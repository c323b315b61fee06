"""Fixed-interval fleet telemetry on the DES clock.

A :class:`TimeSeriesSampler` is the engine's one telemetry process.
It ticks every ``interval_s`` of simulated time and appends one row
to a columnar :class:`TimeSeries`: per-media-server concurrent
streams, per-host egress, peak link utilization, admission
accept/block deltas, client buffer occupancy and DES event-queue
depth. Because sampling rides the simulated clock, the series is
exactly reproducible run-to-run.

The same sampler feeds both telemetry documents: the *trajectory*
(:attr:`TimeSeriesSampler.series`) and the end-of-run
:class:`~repro.obs.service_metrics.ServiceReport`
(:meth:`TimeSeriesSampler.report`), whose per-server loads are a
reduction of the ``streams.<ms>`` columns.

Shard-merge contract (ROADMAP item 1): every column declares how it
combines *across shards* (``merge``: level gauges and interval deltas
add, engine-local gauges take the max) and how it coarsens *across
time* (``resample``: deltas add, gauges take the max). Both
operations are associative and commutative, and
``resample(a).resample(b) == resample(a*b)`` — so N shards sampled
anywhere can be merged in any order and downsampled in any grouping
with one canonical result.

The serialized form is schema-stamped (``repro.timeseries`` v1) and
embedded in BENCH_*/CHAOS_* artifacts under the ``timeseries`` key.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.obs.service_metrics import ServerLoad, ServiceReport

__all__ = ["Column", "TimeSeries", "TimeSeriesSampler",
           "TIMESERIES_SCHEMA", "TIMESERIES_SCHEMA_VERSION"]

TIMESERIES_SCHEMA = "repro.timeseries"
TIMESERIES_SCHEMA_VERSION = 1

#: valid column combine operations (cross-shard merge / time resample)
_OPS = ("sum", "max")


class Column:
    """One named series: values plus its merge/resample semantics."""

    __slots__ = ("merge", "resample", "values")

    def __init__(self, merge: str = "sum", resample: str = "max",
                 values: list[float] | None = None) -> None:
        if merge not in _OPS or resample not in _OPS:
            raise ValueError(
                f"column ops must be one of {_OPS}: "
                f"merge={merge!r} resample={resample!r}"
            )
        self.merge = merge
        self.resample = resample
        self.values: list[float] = values if values is not None else []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Column(merge={self.merge!r}, resample={self.resample!r}, "
                f"n={len(self.values)})")


def _combine(op: str, a: float, b: float) -> float:
    return a + b if op == "sum" else max(a, b)


class TimeSeries:
    """Columnar fixed-interval series; mergeable and resampleable.

    Ticks are implicit: row ``k`` covers simulated time
    ``(k*interval_s, (k+1)*interval_s]``. Columns discovered mid-run
    (an edge replica spun up late) are zero-padded back to tick 0, so
    every column always has ``ticks`` values.
    """

    def __init__(self, interval_s: float = 0.25) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.interval_s = interval_s
        self.ticks = 0
        self.columns: dict[str, Column] = {}

    # -- building ------------------------------------------------------------
    def ensure_column(self, name: str, merge: str = "sum",
                      resample: str = "max") -> Column:
        """Declare a column (idempotent); zero-pads to the current tick."""
        col = self.columns.get(name)
        if col is None:
            col = self.columns[name] = Column(merge=merge, resample=resample)
            col.values.extend(0.0 for _ in range(self.ticks))
        return col

    def tick(self, row: dict[str, float]) -> None:
        """Append one sample row; absent columns record 0.0."""
        for name in row:
            if name not in self.columns:
                raise KeyError(
                    f"column {name!r} not declared; call ensure_column first"
                )
        for name, col in self.columns.items():
            col.values.append(float(row.get(name, 0.0)))
        self.ticks += 1

    # -- queries -------------------------------------------------------------
    def values(self, name: str) -> list[float]:
        col = self.columns.get(name)
        return list(col.values) if col is not None else []

    def peak(self, name: str) -> float:
        vals = self.values(name)
        return max(vals) if vals else 0.0

    def total(self, name: str) -> float:
        return sum(self.values(name))

    def __len__(self) -> int:
        return self.ticks

    def __bool__(self) -> bool:
        return self.ticks > 0 or bool(self.columns)

    # -- shard merge ---------------------------------------------------------
    def merge(self, other: "TimeSeries") -> "TimeSeries":
        """Element-wise combine; associative and commutative.

        Column sets union; a column absent on one side (or a shorter
        side past its last tick) contributes zeros. ``sum`` columns
        add per tick, ``max`` columns take the per-tick max — so an
        empty series is the identity.
        """
        if self.interval_s != other.interval_s:
            raise ValueError(
                f"cannot merge series with different intervals "
                f"({self.interval_s} != {other.interval_s})"
            )
        out = TimeSeries(interval_s=self.interval_s)
        out.ticks = max(self.ticks, other.ticks)
        for name in sorted(set(self.columns) | set(other.columns)):
            a, b = self.columns.get(name), other.columns.get(name)
            spec = a or b
            assert spec is not None
            if a is not None and b is not None and (
                    a.merge != b.merge or a.resample != b.resample):
                raise ValueError(
                    f"column {name!r} has conflicting ops across shards"
                )
            va = a.values if a is not None else []
            vb = b.values if b is not None else []
            merged = [
                _combine(spec.merge,
                         va[i] if i < len(va) else 0.0,
                         vb[i] if i < len(vb) else 0.0)
                for i in range(out.ticks)
            ]
            out.columns[name] = Column(merge=spec.merge,
                                       resample=spec.resample,
                                       values=merged)
        return out

    @staticmethod
    def merge_all(series: Iterable["TimeSeries"]) -> "TimeSeries":
        """Fold :meth:`merge` over any number of shards (order-free)."""
        out: TimeSeries | None = None
        for s in series:
            out = s if out is None else out.merge(s)
        if out is None:
            raise ValueError("merge_all needs at least one series")
        return out

    # -- time resample -------------------------------------------------------
    def resample(self, factor: int) -> "TimeSeries":
        """Coarsen by grouping ``factor`` consecutive ticks.

        A partial tail group is kept (its value covers fewer source
        ticks). Resampling composes: ``resample(a).resample(b)``
        equals ``resample(a*b)`` for both ops.
        """
        if factor < 1:
            raise ValueError("resample factor must be >= 1")
        if factor == 1:
            return self.copy()
        out = TimeSeries(interval_s=self.interval_s * factor)
        out.ticks = (self.ticks + factor - 1) // factor
        for name, col in self.columns.items():
            grouped = []
            for start in range(0, self.ticks, factor):
                chunk = col.values[start:start + factor]
                grouped.append(sum(chunk) if col.resample == "sum"
                               else max(chunk))
            out.columns[name] = Column(merge=col.merge,
                                       resample=col.resample,
                                       values=grouped)
        return out

    def copy(self) -> "TimeSeries":
        out = TimeSeries(interval_s=self.interval_s)
        out.ticks = self.ticks
        for name, col in self.columns.items():
            out.columns[name] = Column(merge=col.merge,
                                       resample=col.resample,
                                       values=list(col.values))
        return out

    # -- (de)serialization ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON form (sorted columns, plain lists)."""
        return {
            "schema": TIMESERIES_SCHEMA,
            "version": TIMESERIES_SCHEMA_VERSION,
            "interval_s": self.interval_s,
            "ticks": self.ticks,
            "columns": {
                name: {
                    "merge": col.merge,
                    "resample": col.resample,
                    "values": list(col.values),
                }
                for name, col in sorted(self.columns.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TimeSeries":
        if doc.get("schema") != TIMESERIES_SCHEMA:
            raise ValueError(
                f"not a {TIMESERIES_SCHEMA} document: {doc.get('schema')!r}"
            )
        out = cls(interval_s=float(doc.get("interval_s", 0.25)))
        out.ticks = int(doc.get("ticks", 0))
        for name, entry in doc.get("columns", {}).items():
            out.columns[name] = Column(
                merge=entry.get("merge", "sum"),
                resample=entry.get("resample", "max"),
                values=[float(v) for v in entry.get("values", ())],
            )
        return out


def _serving_egress(eng: Any) -> dict[str, dict[str, Any]]:
    """Serving media host -> bytes sent so far and its region label."""
    out: dict[str, dict[str, Any]] = {}
    for server in eng.servers.values():
        for ms in server.all_media_servers():
            out[ms.node_id] = {"bytes": 0, "region": ms.region or "origin"}
    for (src, _dst), link in eng.network.links.items():
        entry = out.get(src)
        if entry is not None:
            entry["bytes"] += link.stats.tx_bytes
    return {host: out[host] for host in sorted(out)}


def _admission_by_server(eng: Any) -> dict[str, dict[str, Any]]:
    """Multimedia-server name -> its admission stats so far."""
    out: dict[str, dict[str, Any]] = {}
    for name in sorted(eng.servers):
        stats = eng.servers[name].admission.stats
        out[name] = {
            "requests": stats.requests,
            "admitted": stats.admitted,
            "rejected": stats.rejected,
            "by_contract": {c: list(stats.by_contract[c])
                            for c in sorted(stats.by_contract)},
        }
    return out


class TimeSeriesSampler:
    """The engine's one DES-clock telemetry process.

    Attach via ``engine.attach_timeseries()`` (or its alias
    ``attach_service_monitor()``). Columns:

    ======================== ===== ======== ==============================
    column                   merge resample meaning (per tick)
    ======================== ===== ======== ==============================
    ``streams.<ms>``         sum   max      concurrent streams on one
                                            media server (level)
    ``egress_bytes.<host>``  sum   sum      bytes leaving a serving host
                                            during the interval (delta)
    ``link_utilization``     max   max      busiest link's busy-time
                                            fraction this interval
    ``admit_accepted.<srv>`` sum   sum      admissions during interval
    ``admit_rejected.<srv>`` sum   sum      refusals during interval
    ``buffer_occupancy_s``   max   max      fullest client media buffer
                                            (engine-local gauge)
    ``event_queue_depth``    max   max      DES heap size (engine-local)
    ======================== ===== ======== ==============================

    The two engine-local gauges describe *this* engine's internals, so
    after a shard merge they read "worst across shards", not a
    population-wide level — the other columns aggregate exactly.
    """

    #: columns that never compare across an engine boundary
    ENGINE_LOCAL = ("buffer_occupancy_s", "event_queue_depth")

    def __init__(self, engine: Any, interval_s: float = 0.25) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.engine = engine
        self.sim = engine.sim
        self.interval_s = interval_s
        self.series = TimeSeries(interval_s=interval_s)
        self._started = False
        #: media-server name -> region label, in first-sampled order
        self._regions: dict[str, str] = {}
        self._last_egress: dict[str, int] = {}
        self._last_busy: dict[Any, float] = {}
        self._last_admit: dict[str, tuple[int, int]] = {}

    def start(self) -> None:
        """Spawn the sampler process (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.process(self._sampler(), name="timeseries-sampler")

    def _sampler(self) -> Iterator[Any]:
        while True:
            yield self.sim.timeout(self.interval_s)
            self.sample()

    # -- one tick ------------------------------------------------------------
    def sample(self) -> None:
        eng = self.engine
        series = self.series
        row: dict[str, float] = {}

        # Concurrent streams per media server (level gauge).
        for name in sorted(eng.servers):
            for ms in eng.servers[name].all_media_servers():
                col = f"streams.{ms.name}"
                if ms.name not in self._regions:
                    self._regions[ms.name] = ms.region or "origin"
                    series.ensure_column(col, merge="sum", resample="max")
                row[col] = float(len(ms.streams))

        # Per-interval egress off each serving host (delta counter).
        for host, entry in _serving_egress(eng).items():
            col = f"egress_bytes.{host}"
            series.ensure_column(col, merge="sum", resample="sum")
            cur = entry["bytes"]
            row[col] = float(cur - self._last_egress.get(host, 0))
            self._last_egress[host] = cur

        # Peak link utilization over the interval (busy-time delta).
        series.ensure_column("link_utilization", merge="max", resample="max")
        peak_util = 0.0
        for key, link in eng.network.links.items():
            busy = link.stats.busy_time
            util = (busy - self._last_busy.get(key, 0.0)) / self.interval_s
            self._last_busy[key] = busy
            if util > peak_util:
                peak_util = util
        row["link_utilization"] = min(1.0, peak_util)

        # Admission accept/reject deltas per multimedia server.
        for name in sorted(eng.servers):
            stats = eng.servers[name].admission.stats
            a_col = f"admit_accepted.{name}"
            r_col = f"admit_rejected.{name}"
            series.ensure_column(a_col, merge="sum", resample="sum")
            series.ensure_column(r_col, merge="sum", resample="sum")
            last_a, last_r = self._last_admit.get(name, (0, 0))
            row[a_col] = float(stats.admitted - last_a)
            row[r_col] = float(stats.rejected - last_r)
            self._last_admit[name] = (stats.admitted, stats.rejected)

        # Fullest client media buffer (engine-local gauge).
        series.ensure_column("buffer_occupancy_s", merge="max",
                             resample="max")
        occupancy = 0.0
        for comp in getattr(eng, "compositions", ()):
            for buf in comp.scheduler.buffers.values():
                if buf.occupancy_s > occupancy:
                    occupancy = buf.occupancy_s
        row["buffer_occupancy_s"] = occupancy

        # DES heap size (engine-local gauge).
        series.ensure_column("event_queue_depth", merge="max",
                             resample="max")
        row["event_queue_depth"] = float(len(self.sim._heap))

        series.tick(row)

    # -- end-of-run rollup ---------------------------------------------------
    def report(self) -> ServiceReport:
        """The fleet rollup as of the current simulated instant.

        Each server's load reduces its ``streams.<ms>`` column: every
        tick is a sample, the column total is ``sum_streams`` and the
        column peak is ``peak_streams``. Egress, admission and
        recovery state are read live, so ``report()`` may be called at
        any instant.
        """
        eng = self.engine
        series = self.series
        report = ServiceReport(
            interval_s=self.interval_s,
            duration_s=self.sim.now,
            samples=series.ticks,
            egress_by_host=_serving_egress(eng),
            admission_by_server=_admission_by_server(eng),
        )
        for name in sorted(self._regions):
            col = f"streams.{name}"
            report.servers[name] = ServerLoad(
                region=self._regions[name], samples=series.ticks,
                sum_streams=int(series.total(col)),
                peak_streams=int(series.peak(col)),
            )
        for watchdog in eng.watchdogs.values():
            report.detections += watchdog.detections
            report.streams_failed_over += watchdog.streams_failed_over
            report.streams_lost += watchdog.streams_lost
            report.sessions_saved += len(watchdog.sessions_saved)
            for t in watchdog.detect_times:
                report.detect_hist.observe(t)
            for t in watchdog.recover_times:
                report.recover_hist.observe(t)
        return report

