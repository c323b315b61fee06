"""Population throughput benchmark of the on-demand A/V service.

Run from the repository root:

    python3 perfbench/run.py --workload population_clean --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs the workload untraced for ``--seconds`` and prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
iterations and prints the per-layer ledger. Every iteration's result
is checked; the last line of output is one JSON object, and the exit
code is nonzero when a check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "frames_per_s": "1/s",
    "sessions_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child (shard worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Run:
    """One benchmark invocation: inputs, iterations, checks, report."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        import workloads

        if workload not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {workload!r}; choose from "
                             f"{sorted(workloads.WORKLOADS)}")
        self.wl = workloads
        self.inputs = workloads.make_inputs(workloads.WORKLOADS[workload],
                                            seed)
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self.stats: dict[str, Any] = {}
        #: the last traced iteration's ledger, written out at the end
        self.spans: dict[str, Any] = {}
        #: reference kernels timed after the last iteration, which are
        #: also the ones before the next
        self.last_block: list[float] = []

    @property
    def workload(self) -> Any:
        return self.inputs.workload

    def warm_up(self) -> None:
        """Load lazily imported modules and fill caches, untimed."""
        from speed import reference_s

        reference_s()
        small = self.wl.scaled(self.inputs, clients=2, duration_s=1.0)
        if self.workload.shards:
            from repro.shard.worker import run_cell

            run_cell(self.wl.shard_workload(small), 0, 0, 2,
                     self.inputs.engine_seed)
        else:
            self.wl.run_direct(small)
        gc.collect()

    def check(self, it: Any) -> None:
        from checks import check_iteration

        verdict = check_iteration(
            it.doc, self.workload.clients, self.workload.needs_qoe,
            sharded=it.sharded, expected_digest=self.digest,
            digest=it.digest)
        if self.digest is None:
            self.digest = it.digest
        self.attempted += verdict.sessions
        self.failed += verdict.failed
        self.problems.extend(verdict.problems)

    def sim_stats(self, it: Any) -> dict[str, Any]:
        from checks import frames_played, qoe_score_p50

        service = it.doc.get("service") or {}
        return {
            "digest": it.digest,
            "frames_played": frames_played(it.doc),
            "origin_egress_bytes": service.get("egress", {}).get(
                "origin_bytes", 0),
            "qoe_score_p50": qoe_score_p50(it.doc),
        }

    def iterate(self, body: Any) -> list[Any]:
        """Call ``body()`` until ``seconds`` have passed (at least once)."""
        rows = []
        t0 = time.perf_counter()
        while not rows or time.perf_counter() - t0 < self.seconds:
            gc.collect()
            rows.append(body())
        return rows

    # -- untraced -----------------------------------------------------------
    def untraced_row(self, reference: Any) -> dict[str, Any]:
        """One iteration, its timings in reference seconds (see ``speed``)."""
        from checks import delivered_sessions, frames_played
        from speed import REF_S

        before = self.last_block or reference.block(0.0)
        it = self.wl.run_iteration(self.inputs)
        after = self.last_block = reference.block(it.wall_s)
        self.check(it)
        self.stats = self.sim_stats(it)
        scale = REF_S / statistics.fmean(before + after)
        wall_s = it.wall_s * scale
        return {
            "setup_s": it.setup_s * scale,
            "wall_s": wall_s,
            "frames_per_s": frames_played(it.doc) / wall_s,
            "sessions_per_s": delivered_sessions(it.doc) / wall_s,
            "host_setup_s": it.setup_s,
            "host_wall_s": it.wall_s,
            "host_reference_s": statistics.fmean(before + after),
        }

    def end_to_end(self) -> dict[str, float]:
        """Medians over the run's iterations of timings in reference seconds.

        The host's speed drifts within and between runs by more than
        the bounds allow, so each iteration's host seconds are scaled
        by the reference kernels timed around it on as many processes
        as the workload keeps busy (see ``speed``). The medians of the
        unscaled host figures are printed as ``sim.host_*``.
        """
        from speed import Reference

        with Reference(max(1, self.workload.shards)) as reference:
            rows = self.iterate(lambda: self.untraced_row(reference))
            # before the helpers are reaped, so RUSAGE_CHILDREN holds
            # only the shard workers
            rss = peak_rss_mb()
        for r in rows:
            print("iteration", json.dumps(r))
        out = {k: median([r[k] for r in rows]) for k in rows[0]}
        for key in [k for k in out if k.startswith("host_")]:
            self.stats[key] = round(out.pop(key), 6)
        self.stats["iterations"] = len(rows)
        out["peak_rss_mb"] = rss
        return out

    # -- traced -------------------------------------------------------------
    def traced_row(self) -> dict[str, float]:
        if self.workload.shards:
            untraced, clock = self.wl.run_shards(self.inputs)
        else:
            untraced = self.wl.run_direct(self.inputs)
        self.check(untraced)
        self.stats = self.sim_stats(untraced)
        if self.workload.shards:
            row, spans = self._traced_shards(untraced, clock)
        else:
            row, spans = self._traced_direct()
            row["ledger.untraced_wall_s"] = untraced.wall_s
        row["ledger.overhead_s"] = (row["ledger.traced_wall_s"]
                                    - row["ledger.untraced_wall_s"])
        self.spans = spans
        return row

    def _traced_direct(self) -> tuple[dict[str, float], dict[str, Any]]:
        from layermetrics import layer_row
        from ledger import Ledger, installed

        led = Ledger()
        with installed(led):
            led.begin()
            it = self.wl.run_direct(self.inputs)
            led.end()
        self.check(it)
        row = layer_row(led, [it.doc])
        row["ledger.traced_wall_s"] = it.wall_s
        return row, led.to_dict()

    def _traced_shards(self, untraced: Any, clock: Any
                       ) -> tuple[dict[str, float], dict[str, Any]]:
        """Parent-side shard numbers plus the same cells in-process.

        Inside workers the parent cannot wrap calls, so the layer
        numbers come from the run's cells executed here through
        ``run_cell``; the ``shard.*`` numbers come from the supervised
        run and its lifecycle events.
        """
        from layermetrics import layer_row, shard_row
        from ledger import Ledger, installed
        from repro.shard import worker

        plan = self.wl.shard_plan(self.inputs)
        workload = self.wl.shard_workload(self.inputs)
        led = Ledger()
        docs = []
        with installed(led):
            led.begin()
            for s in range(plan.n_shards):
                for cell, lo, hi, seed in plan.worker_cells(s):
                    docs.append(worker.run_cell(workload, cell, lo, hi, seed))
            led.end()
        cells = [{**d["population"], "service": d["service"],
                  "timeseries": d["timeseries"]} for d in docs]
        row = layer_row(led, cells,
                        trace_events=sum(d["events"] for d in docs))
        row.update(shard_row(untraced, clock,
                             sum(len(pickle.dumps(d)) for d in docs)))
        # the traced in-process cells must reproduce the workers' sessions
        self.attempted += self.workload.clients
        ours = sorted((o for c in cells for o in c["outcomes"]),
                      key=lambda o: o["session_id"])
        theirs = sorted(untraced.doc["outcomes"],
                        key=lambda o: o["session_id"])
        if ours != theirs:
            self.problems.append("traced in-process cells differ from the "
                                 "supervised run's sessions")
            self.failed += self.workload.clients
        row["ledger.traced_wall_s"] = sum(d["wall_s"] for d in docs)
        row["ledger.untraced_wall_s"] = untraced.sharded.cpu_wall_s
        return row, led.to_dict()

    def ledger(self) -> dict[str, float]:
        rows = self.iterate(self.traced_row)
        self.stats["iterations"] = len(rows)
        return {k: median([r[k] for r in rows]) for k in rows[0]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from ledger import write_spans
    from layermetrics import PER_LAYER_UNITS

    run = Run(args.workload, args.seed, args.seconds)
    run.warm_up()
    if args.trace:
        values = run.ledger()
        units = PER_LAYER_UNITS
        write_spans(ROOT / ".perfbench" /
                    f"ledger-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "metrics": values, "last_iteration": run.spans})
    else:
        values = run.end_to_end()
        units = END_TO_END_UNITS
    for name, value in values.items():
        print(f"{name:32s} {value:16.6f} {units[name]}")
    for key, value in run.stats.items():
        print(f"{'sim.' + key:32s} {value}")
    for problem in run.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
