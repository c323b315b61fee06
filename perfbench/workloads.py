"""Benchmark workloads: seeded inputs and one untraced iteration each.

Every workload is a closed batch run by one caller: an iteration runs
one whole population to completion, then the next starts. Viewers
arrive on the simulated clock, so nothing is paced by host time. The
seed is the only source of variation; the program receives nothing
but the generated engine config and HML markup.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.faults.digest import population_digest
from repro.net import cdn_stack
from repro.shard.bench import run_sharded
from repro.shard.plan import ShardPlan, ShardWorkload

SERVER = "srv1"
DOCUMENT = "doc"
TOPIC = "bench"

_WORDS = ("lecture", "museum", "atlas", "orchestra", "harbour", "glacier",
          "market", "archive", "garden", "railway", "theatre", "observatory")


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; why each exists is in BENCHMARK.json."""

    name: str
    clients: int
    duration_s: float
    stagger_s: float
    topology: str = "star"          # "star" | "cdn"
    with_images: bool = True
    config: dict[str, Any] = field(default_factory=dict)
    shards: int = 0                 # 0 = one in-process engine
    cell_clients: int = 8
    #: sessions must carry a QoE dict (trace-replay scoring)
    needs_qoe: bool = False


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="population_clean",
        clients=16, duration_s=6.0, stagger_s=0.4,
    ),
    Workload(
        name="cdn_hot",
        clients=32, duration_s=6.0, stagger_s=0.0, topology="cdn",
        with_images=False,
        config={"shared_flows": True, "admission_capacity_bps": 400e6},
    ),
    Workload(
        name="shard_qoe",
        clients=32, duration_s=6.0, stagger_s=0.4, shards=2,
        config={"admission_capacity_bps": 400e6},
        needs_qoe=True,
    ),
    # Not in BENCHMARK.json: on every seed tried, 2-5 of its 32
    # sessions fail the delivery check. A lossy tail leaves the video
    # slave stalling for 20 s after its audio master has stopped.
    Workload(
        name="shard_lossy_qoe",
        clients=32, duration_s=6.0, stagger_s=0.4, shards=2,
        config={"admission_capacity_bps": 400e6,
                "loss_p_gb": 0.05, "loss_bad": 0.3},
        needs_qoe=True,
    ),
)}


@dataclass(frozen=True)
class Inputs:
    """Everything the program receives for one workload and seed."""

    workload: Workload
    seed: int
    engine_seed: int
    markup: str
    config: dict[str, Any]


def make_markup(rng: random.Random, duration_s: float,
                with_images: bool) -> str:
    """One A/V document (plus two images) in HML surface syntax.

    The seed picks the title, the text and where the image change
    falls; the A/V pair always spans ``duration_s``.
    """
    title = " ".join(rng.choice(_WORDS) for _ in range(3))
    text = " ".join(rng.choice(_WORDS) for _ in range(8))
    lines = [
        f"<TITLE> {title} </TITLE>",
        f"<TEXT> {text} </TEXT>",
        f"<AU_VI> STARTIME=0 STARTIME=0 DURATION={duration_s:g} "
        "SOURCE=audsrv:/a.au SOURCE=vidsrv:/v.mpg ID=A ID=V </AU_VI>",
    ]
    if with_images:
        split = round(duration_s * rng.uniform(0.35, 0.65), 2)
        lines.append(f"<IMG> STARTIME=0 DURATION={split:g} "
                     "SOURCE=imgsrv:/i1.gif ID=I1 </IMG>")
        lines.append(f"<IMG> STARTIME={split:g} "
                     f"DURATION={round(duration_s - split, 2):g} "
                     "SOURCE=imgsrv:/i2.gif ID=I2 </IMG>")
    return "\n".join(lines) + "\n"


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Deterministic inputs of ``workload`` for ``seed`` (>= 0)."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = random.Random(f"{workload.name}:{seed}")
    markup = make_markup(rng, workload.duration_s, workload.with_images)
    return Inputs(workload=workload, seed=seed,
                  engine_seed=rng.randrange(2 ** 31), markup=markup,
                  config=dict(workload.config))


def scaled(inputs: Inputs, clients: int, duration_s: float) -> Inputs:
    """A smaller copy of ``inputs`` (warm-up and tests)."""
    w = inputs.workload
    small = Workload(**{**w.__dict__, "clients": clients,
                        "duration_s": duration_s,
                        "cell_clients": min(w.cell_clients, clients)})
    rng = random.Random(f"{w.name}:{inputs.seed}")
    return Inputs(workload=small, seed=inputs.seed,
                  engine_seed=inputs.engine_seed,
                  markup=make_markup(rng, duration_s, w.with_images),
                  config=dict(inputs.config))


# -- one iteration -----------------------------------------------------------
@dataclass
class Iteration:
    """Host timings and the result document of one population run."""

    setup_s: float
    wall_s: float
    doc: dict[str, Any]
    digest: str
    #: sharded runs only: the supervisor's result object
    sharded: Any = None


def build_engine(inputs: Inputs) -> ServiceEngine:
    """Engine, topology, server and documents for a direct workload."""
    w = inputs.workload
    layers = (cdn_stack(clients_per_region=max(1, w.clients // 2))
              if w.topology == "cdn" else None)
    eng = ServiceEngine(EngineConfig(seed=inputs.engine_seed,
                                     **inputs.config), layers=layers)
    eng.add_server(SERVER, documents={DOCUMENT: (inputs.markup, TOPIC)})
    eng.attach_service_monitor()
    eng.attach_timeseries()
    eng.client_nodes(w.clients)
    return eng


def first_run_clock(sim: Any) -> list[float]:
    """Stamp the host time of the simulator's first ``run`` call.

    The stamp marks the end of set-up: everything before it builds
    the service, everything after it simulates and collects.
    """
    stamp: list[float] = []
    run = sim.run

    def timed_run(until: Any = None) -> Any:
        if not stamp:
            stamp.append(time.perf_counter())
        return run(until)

    sim.run = timed_run
    return stamp


def run_direct(inputs: Inputs) -> Iteration:
    """One in-process population, untraced."""
    w = inputs.workload
    t0 = time.perf_counter()
    eng = build_engine(inputs)
    stamp = first_run_clock(eng.sim)
    pop = eng.orchestrator.run_population(w.clients, SERVER, DOCUMENT,
                                          stagger_s=w.stagger_s)
    doc = pop.to_dict()
    digest = population_digest(doc)
    t1 = time.perf_counter()
    return Iteration(setup_s=stamp[0] - t0, wall_s=t1 - stamp[0],
                     doc=doc, digest=digest)


class SpawnClock:
    """Supervisor ``tracer=`` hook: host time of each lifecycle event."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[tuple[float, str, dict[str, Any]]] = []

    def emit(self, _t: float, kind: str, _name: str = "",
             **args: Any) -> None:
        self.events.append((time.perf_counter(), kind, args))

    def last(self, kind: str) -> float:
        return max(t for t, k, _ in self.events if k == kind)


def shard_workload(inputs: Inputs) -> ShardWorkload:
    return ShardWorkload(markup=inputs.markup, document=DOCUMENT,
                         topic=TOPIC, server=SERVER,
                         stagger_s=inputs.workload.stagger_s,
                         config=dict(inputs.config))


def shard_plan(inputs: Inputs) -> ShardPlan:
    w = inputs.workload
    return ShardPlan(n_clients=w.clients, n_shards=w.shards,
                     cell_clients=w.cell_clients, seed=inputs.engine_seed)


def run_shards(inputs: Inputs) -> tuple[Iteration, SpawnClock]:
    """One supervised sharded population; set-up ends at the last spawn."""
    w = inputs.workload
    clock = SpawnClock()
    t0 = time.perf_counter()
    res = run_sharded(w.clients, w.shards, seed=inputs.engine_seed,
                      cell_clients=w.cell_clients,
                      workload=shard_workload(inputs), tracer=clock)
    t1 = time.perf_counter()
    spawned = clock.last("shard.spawn")
    return (Iteration(setup_s=spawned - t0, wall_s=t1 - spawned,
                      doc=res.merged, digest=res.digest, sharded=res),
            clock)


def run_iteration(inputs: Inputs) -> Iteration:
    if inputs.workload.shards:
        return run_shards(inputs)[0]
    return run_direct(inputs)
