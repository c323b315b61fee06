"""Always-on flight recorder: a bounded ring of trace events.

The third :class:`~repro.obs.tracer.Tracer` beside no-op and
recording. A production-shaped run can't afford full-trace recording
(at 10⁶ clients the event log *is* the memory budget), but when a
media server crashes the operator wants the last N sim-seconds of
control-plane history. The flight recorder keeps exactly that: a
``deque(maxlen=...)`` of events, always on, costing <5% wall time
(gated by ``benchmarks/bench_perf_flightrec.py``) because it declares
``detail = False`` — the per-packet firehose tier is never even
constructed (see :mod:`repro.obs.tracer`).

Dumps are ordinary trace-v3 JSONL windows ("everything in the ring
from the last ``window_s`` sim-seconds"), so ``repro trace``,
lifecycle correlation and QoE tooling parse them unchanged. A dump
fires on the first fault-injection event (``trigger_kinds``), on an
SLO violation (the CLI calls :meth:`FlightRecorder.dump`), or
explicitly.

Wrapping: ``FlightRecorder(inner=RecordingTracer())`` tees every
event into the inner tracer first and inherits its ``detail`` tier,
so a chaos run keeps full recording fidelity *and* gets incident
dumps; attribute lookups (``metrics``, ``session_snapshot``, ...)
delegate to the inner tracer, making the wrapper drop-in wherever a
RecordingTracer is expected.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

from repro.obs.tracer import TraceEvent, Tracer

__all__ = ["FlightRecorder", "DEFAULT_TRIGGER_KINDS"]

#: fault-injection kinds that auto-dump the ring (first occurrence)
DEFAULT_TRIGGER_KINDS = frozenset({
    "fault.crash", "fault.link", "fault.ctl_partition", "fault.shard",
})


class FlightRecorder(Tracer):
    """Bounded, always-on ring of control-plane trace events."""

    enabled = True

    def __init__(self, max_events: int = 4096, window_s: float = 30.0,
                 inner: Tracer | None = None,
                 dump_path: str | None = None,
                 trigger_kinds: Iterable[str] = DEFAULT_TRIGGER_KINDS,
                 skip_kinds: Iterable[str] = ()) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be > 0")
        self.ring: deque[TraceEvent] = deque(maxlen=max_events)
        self.window_s = window_s
        self.inner = inner
        # Standalone recorders stay on the cheap control tier; a
        # wrapped tracer dictates the tier so its recording keeps
        # full fidelity.
        self.detail = (bool(getattr(inner, "detail", True))
                       if inner is not None else False)
        self.dump_path = dump_path
        self.trigger_kinds = frozenset(trigger_kinds)
        self.skip_kinds = frozenset(skip_kinds)
        #: metadata of the last dump ({} until one happens)
        self.last_dump: dict[str, Any] = {}
        self.dropped_events = 0

    # -- Tracer API ----------------------------------------------------------
    def emit(self, time: float, kind: str, name: str = "", *,
             session: str = "", node: str = "", **args: Any) -> None:
        if self.inner is not None:
            self.inner.emit(time, kind, name, session=session, node=node,
                            **args)
        self._record(TraceEvent(time=time, kind=kind, name=name, phase="i",
                                session=session, node=node, args=args))

    def span_begin(self, time: float, kind: str, name: str = "", *,
                   session: str = "", node: str = "", **args: Any) -> None:
        if self.inner is not None:
            self.inner.span_begin(time, kind, name, session=session,
                                  node=node, **args)
        self._record(TraceEvent(time=time, kind=kind, name=name, phase="B",
                                session=session, node=node, args=args))

    def span_end(self, time: float, kind: str, name: str = "", *,
                 session: str = "", node: str = "", **args: Any) -> None:
        if self.inner is not None:
            self.inner.span_end(time, kind, name, session=session,
                                node=node, **args)
        self._record(TraceEvent(time=time, kind=kind, name=name, phase="E",
                                session=session, node=node, args=args))

    def _record(self, event: TraceEvent) -> None:
        if event.kind in self.skip_kinds:
            return
        if len(self.ring) == self.ring.maxlen:
            self.dropped_events += 1
        self.ring.append(event)
        if (self.dump_path is not None and not self.last_dump
                and event.kind in self.trigger_kinds):
            self.dump(trigger=event.kind)

    # -- delegation ----------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        # Only reached for attributes not set on the recorder itself:
        # forwards inner-tracer surface (metrics, events,
        # session_snapshot, ...) so the wrapper is drop-in.
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    # -- dumping -------------------------------------------------------------
    def window(self, window_s: float | None = None) -> list[TraceEvent]:
        """Ring contents from the trailing ``window_s`` sim-seconds."""
        if not self.ring:
            return []
        span = self.window_s if window_s is None else window_s
        t_end = self.ring[-1].time
        return [e for e in self.ring if e.time >= t_end - span]

    def dump(self, path: str | None = None,
             window_s: float | None = None,
             trigger: str = "manual") -> str:
        """Write the trailing window as trace-v3 JSONL; returns path."""
        from repro.obs.export import write_jsonl

        target = path if path is not None else self.dump_path
        if target is None:
            raise ValueError("no dump path configured")
        events = self.window(window_s)
        write_jsonl(events, target, dropped_events=self.dropped_events)
        self.last_dump = {
            "path": str(target),
            "trigger": trigger,
            "events": len(events),
            "t_end": events[-1].time if events else 0.0,
            "window_s": self.window_s if window_s is None else window_s,
        }
        return str(target)
