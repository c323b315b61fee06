"""Per-layer cost ledger for traced benchmark iterations.

The layers are the ``src/repro`` packages. The ledger records spans
from this directory only, by wrapping calls into each layer's public
functions while an iteration runs:

* the benchmark's own calls (engine build, server set-up, population
  run, result collection) and the module functions they reach (HML
  ``parse``, QoE replay, the population digest);
* the simulator's public constructors (``timeout``, ``process``,
  ``call_later``, ...) and ``run``, charged to ``des``;
* ``Network.send`` and every port handler bound on a node, charged to
  ``net`` and to the handler's own layer;
* the engine tracer's ``emit``/``span_begin``/``span_end``, charged to
  ``obs``;
* every kernel callback, charged to the layer whose module defines the
  handler (see :func:`resolve`).

A layer's self time is the time it sits on top of the span stack,
which equals its span time minus its child spans. Time with no span
open is ``unattributed``. Kernel-callback spans are aggregated by
layer; the coarse spans are kept in memory and written out once, when
the run ends.
"""

from __future__ import annotations

import heapq
import json
import time
import types
from collections import Counter
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

UNATTRIBUTED = "unattributed"
#: protocols that carry media; the rest is service traffic
MEDIA_PROTOCOLS = frozenset({"RTP", "RTCP", "SFLOW", "BCAST", "UDP"})

_SIM_CONSTRUCTORS = ("timeout", "process", "event", "call_later",
                     "any_of", "all_of")

_file_layers: dict[str, str | None] = {}


def file_layer(filename: str) -> str | None:
    """``.../repro/<pkg>/mod.py`` -> ``<pkg>``; None outside the package."""
    layer = _file_layers.get(filename, "?")
    if layer == "?":
        parts = Path(filename).parts
        layer = None
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == "repro":
                rest = parts[i + 1:]
                layer = rest[0] if len(rest) > 1 else "core"
                break
        _file_layers[filename] = layer
    return layer


_code_layers: dict[types.CodeType, str | None] = {}


def _code_layer(code: types.CodeType) -> str | None:
    layer = _code_layers.get(code, "?")
    if layer == "?":
        layer = _code_layers[code] = file_layer(code.co_filename)
    return layer


def _running_code(gen: types.GeneratorType) -> types.CodeType:
    """Code a resumption of ``gen`` runs: follow ``yield from``."""
    inner = gen.gi_yieldfrom
    while isinstance(inner, types.GeneratorType):
        gen, inner = inner, inner.gi_yieldfrom
    return gen.gi_code


def resolve(cb: Any, depth: int = 0) -> str | None:
    """The layer a kernel callback (or port handler) belongs to.

    * a process resumption (a bound method of an object running a
      generator) goes to the module of the generator's code, following
      ``yield from`` to the generator that actually resumes;
    * any other bound method goes to the module of its defining class;
    * a plain function goes to its module, except that a generic
      kernel helper (a ``des`` function, such as the lambda
      ``call_later`` schedules) is looked through: its closure cells
      and default arguments are resolved in turn, and the first
      non-``des`` layer found wins.
    """
    if depth > 4:
        return None
    func = getattr(cb, "__func__", None)
    if func is not None:
        gen = getattr(cb.__self__, "gen", None)
        if type(gen) is types.GeneratorType:
            return _code_layer(_running_code(gen))
        return _code_layer(func.__code__)
    gen = getattr(cb, "gen", None)
    if type(gen) is types.GeneratorType:
        return _code_layer(_running_code(gen))
    if isinstance(cb, partial):
        return resolve(cb.func, depth + 1)
    code = getattr(cb, "__code__", None)
    if code is None:
        return None
    layer = _code_layer(code)
    if layer == "des":
        inner = [c.cell_contents for c in cb.__closure__ or ()
                 if c.cell_contents is not None]
        inner.extend(cb.__defaults__ or ())
        for value in inner:
            if callable(value) or hasattr(value, "gen"):
                found = resolve(value, depth + 1)
                if found is not None and found != "des":
                    return found
    return layer


class Ledger:
    """Self time per layer, split into set-up and run phases."""

    def __init__(self) -> None:
        self.setup_ns: Counter[str] = Counter()
        self.run_ns: Counter[str] = Counter()
        self._acc = self.setup_ns
        self._stack: list[str] = [UNATTRIBUTED]
        self._last = 0
        #: inclusive time of named spans (core.build, hml.parse, ...)
        self.named_ns: Counter[str] = Counter()
        #: coarse spans: (name, layer, start_ns, end_ns, parent index)
        self.spans: list[tuple[str, str, int, int, int]] = []
        self._open: list[int] = []
        self._open_names: Counter[str] = Counter()
        self.events = 0
        self.events_by_layer: Counter[str] = Counter()
        self.heap_peak = 0
        self.packets: Counter[str] = Counter()
        self.engines: list[Any] = []
        self.t_begin = 0
        self.t_end = 0

    # -- the span stack -------------------------------------------------------
    def _push(self, layer: str) -> None:
        now = time.perf_counter_ns()
        self._acc[self._stack[-1]] += now - self._last
        self._stack.append(layer)
        self._last = now

    def _pop(self) -> None:
        now = time.perf_counter_ns()
        self._acc[self._stack.pop()] += now - self._last
        self._last = now

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """A named span around one call into ``layer``.

        ``named_ns`` counts only the outermost of nested same-name
        spans, so it stays an inclusive time.
        """
        self._push(layer)
        start = self._last
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, layer, start, 0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        self._open_names[name] += 1
        try:
            yield
        finally:
            self._pop()
            self._open.pop()
            self._open_names[name] -= 1
            self.spans[index] = (name, layer, start, self._last, parent)
            if not self._open_names[name]:
                self.named_ns[name] += self._last - start

    def wrap(self, fn: Callable[..., Any], name: str,
             layer: str) -> Callable[..., Any]:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, layer):
                return fn(*args, **kwargs)
        return wrapped

    def _layer_call(self, fn: Callable[..., Any],
                    layer: str) -> Callable[..., Any]:
        """An unnamed (aggregated) span; for hot, many-call paths."""
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            now = clock()
            self._acc[stack[-1]] += now - self._last
            stack.append(layer)
            self._last = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self._acc[stack.pop()] += now - self._last
                self._last = now
        return wrapped

    # -- the measured window --------------------------------------------------
    def begin(self) -> None:
        self._last = self.t_begin = time.perf_counter_ns()

    def end(self) -> None:
        now = time.perf_counter_ns()
        self._acc[self._stack[-1]] += now - self._last
        self._last = self.t_end = now

    def _set_phase(self, acc: Counter[str]) -> None:
        """Charge the open interval, then account into ``acc``.

        An engine is in set-up from its build until its simulator's
        first ``run`` call, and in its run phase from then on.
        """
        if acc is not self._acc:
            now = time.perf_counter_ns()
            self._acc[self._stack[-1]] += now - self._last
            self._last = now
            self._acc = acc

    # -- simulator and network hooks ------------------------------------------
    def instrument_engine(self, eng: Any) -> None:
        self.engines.append(eng)
        self._instrument_sim(eng.sim)
        self._instrument_network(eng.network)
        tracer = eng.sim.tracer
        if tracer is not None:
            # every layer records through the tracer: its cost is obs's
            for name in ("emit", "span_begin", "span_end"):
                setattr(tracer, name,
                        self._layer_call(getattr(tracer, name), "obs"))

    def _instrument_sim(self, sim: Any) -> None:
        for name in _SIM_CONSTRUCTORS:
            fn = getattr(sim, name, None)
            if fn is not None:
                setattr(sim, name, self._layer_call(fn, "des"))
        run = self._layer_call(sim.run, "des")

        def run_span(until: Any = None) -> Any:
            self._set_phase(self.run_ns)
            return run(until)
        sim.run = run_span
        if _mirrors_kernel(sim):
            sim.step = partial(self._step, sim)

    def _step(self, sim: Any) -> None:
        """``Simulator.step`` with one span per callback.

        Mirrors the kernel's step (heap pop, clock advance, optional
        trace emit, eager trigger, callbacks in order), as the
        program's own ``obs.profile.KernelProfiler`` does, so a traced
        run is event-for-event identical to a bare one. The span
        bookkeeping is inlined: it runs once per callback.
        """
        heap = sim._heap
        if len(heap) > self.heap_peak:
            self.heap_peak = len(heap)
        when, _, event = heapq.heappop(heap)
        sim._now = when
        if sim._tracing_detail:
            sim._tracer.emit(when, "kernel.event", type(event).__name__)
        event._triggered = True
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        self.events += 1
        if not callbacks:
            self.events_by_layer["des"] += 1
            return
        stack = self._stack
        clock = time.perf_counter_ns
        first = True
        for cb in callbacks:
            layer = resolve(cb) or UNATTRIBUTED
            if first:
                self.events_by_layer[layer] += 1
                first = False
            now = clock()
            self._acc[stack[-1]] += now - self._last
            stack.append(layer)
            self._last = now
            try:
                cb(event)
            finally:
                now = clock()
                self._acc[stack.pop()] += now - self._last
                self._last = now

    def _instrument_network(self, network: Any) -> None:
        send = self._layer_call(network.send, "net")
        packets = self.packets

        def counted_send(pkt: Any) -> Any:
            packets[pkt.protocol] += 1
            return send(pkt)
        network.send = counted_send

    def bind_handler(self, handler: Callable[..., Any]) -> Callable[..., Any]:
        return self._layer_call(handler, resolve(handler) or UNATTRIBUTED)

    # -- results --------------------------------------------------------------
    def total_ns(self) -> int:
        return self.t_end - self.t_begin

    def run_total_ns(self) -> int:
        return sum(self.run_ns.values())

    def self_s(self, layer: str) -> float:
        return (self.setup_ns[layer] + self.run_ns[layer]) / 1e9

    def coverage(self) -> float:
        """Attributed share of the run phase (first kernel step on)."""
        total = self.run_total_ns()
        if total <= 0:
            return 0.0
        return 1.0 - self.run_ns[UNATTRIBUTED] / total

    def to_dict(self) -> dict[str, Any]:
        return {
            "total_s": self.total_ns() / 1e9,
            "run_s": self.run_total_ns() / 1e9,
            "self_s_setup": {k: v / 1e9 for k, v in sorted(
                self.setup_ns.items())},
            "self_s_run": {k: v / 1e9 for k, v in sorted(
                self.run_ns.items())},
            "events": self.events,
            "events_by_layer": dict(sorted(self.events_by_layer.items())),
            "heap_peak": self.heap_peak,
            "packets_sent": dict(sorted(self.packets.items())),
            "spans": [
                {"name": n, "layer": layer, "start_s": (s - self.t_begin) / 1e9,
                 "end_s": (e - self.t_begin) / 1e9, "parent": p}
                for n, layer, s, e, p in self.spans
            ],
        }


def _mirrors_kernel(sim: Any) -> bool:
    """True when the simulator still has the shape ``_step`` mirrors."""
    from repro.des.kernel import Event

    slots = set(getattr(Event, "__slots__", ()))
    return (isinstance(getattr(sim, "_heap", None), list)
            and callable(getattr(sim, "step", None))
            and {"callbacks", "_triggered", "_processed"} <= slots)


# -- installation -------------------------------------------------------------
def _module_bindings(fn: Any) -> list[tuple[Any, str]]:
    """Every global bound to ``fn`` in the program or the benchmark."""
    import sys

    here = str(Path(__file__).resolve().parent)
    out = []
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        if not (name == "repro" or name.startswith("repro.")
                or str(getattr(module, "__file__", "")).startswith(here)):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                out.append((module, attr))
    return out


@contextmanager
def installed(ledger: Ledger) -> Iterator[Ledger]:
    """Patch the program's public entry points for one traced iteration.

    Every patch is undone on exit, so untraced iterations in the same
    process run the program exactly as shipped.
    """
    from repro.core.engine import ClientComposition, ServiceEngine
    from repro.core.orchestrator import PopulationResult, SessionOrchestrator
    from repro.faults import digest
    from repro.hml import parser
    from repro.media.store import MediaStore
    from repro.media.traces import FrameSource
    from repro.net import layers
    from repro.net.topology import Node
    from repro.obs import lifecycle, qoe
    from repro.rtp.session import RtpSender
    from repro.shard import worker

    saved: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_everywhere(fn: Any, name: str, layer: str) -> None:
        wrapped = ledger.wrap(fn, name, layer)
        for module, attr in _module_bindings(fn):
            patch(module, attr, wrapped)

    init = ServiceEngine.__init__

    def engine_init(eng: Any, *args: Any, **kwargs: Any) -> None:
        ledger._set_phase(ledger.setup_ns)
        with ledger.span("core.build", "core"):
            init(eng, *args, **kwargs)
        ledger.instrument_engine(eng)

    bind = Node.bind

    def node_bind(node: Any, port: int, handler: Any) -> None:
        bind(node, port, ledger.bind_handler(handler))

    try:
        patch(ServiceEngine, "__init__", engine_init)
        patch(Node, "bind", node_bind)
        for owner, attrs in (
                (ServiceEngine, ("add_server", "add_client", "client_nodes",
                                 "attach_service_monitor",
                                 "attach_timeseries")),
                (SessionOrchestrator, ("run_population", "run_workload"))):
            for attr in attrs:
                patch(owner, attr, ledger.wrap(
                    getattr(owner, attr), f"core.{attr}", "core"))
        # per-frame entry points of layers whose code runs inside other
        # layers' processes (aggregated, unnamed spans)
        for owner, attr, layer in (
                (FrameSource, "next_frame", "media"),
                (MediaStore, "frame_source", "media"),
                (MediaStore, "trace", "media"),
                (RtpSender, "send_frame", "rtp")):
            patch(owner, attr, ledger._layer_call(getattr(owner, attr),
                                                  layer))
        patch(ClientComposition, "collect_result", ledger.wrap(
            ClientComposition.collect_result, "core.collect", "core"))
        patch(PopulationResult, "to_dict", ledger.wrap(
            PopulationResult.to_dict, "core.collect", "core"))
        patch_everywhere(layers.cdn_stack, "net.cdn_stack", "net")
        patch_everywhere(worker.run_cell, "shard.run_cell", "shard")
        patch_everywhere(parser.parse, "hml.parse", "hml")
        patch_everywhere(digest.population_digest, "core.collect", "core")
        patch_everywhere(lifecycle.correlate_frames, "obs.qoe_replay", "obs")
        patch_everywhere(qoe.score_session, "obs.qoe_replay", "obs")
        yield ledger
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def write_spans(path: Path, doc: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
