"""Command-line front end: ``python -m repro COMMAND [-h]``.

Runs the paper's experiments, figures and tables, a demo delivery,
and the service tooling: traces, benchmarks, the kernel profiler, SLO
gates, chaos runs, trend and report dashboards, and the linter. Every
command takes ``-h`` for its flags and ``--json`` to emit one
machine-readable document instead of text tables.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis import Reporter
from repro.ioutil import atomic_write_text

EXPERIMENTS = {
    "e1": ("run_time_window_sweep", "media time window vs quality"),
    "e2": ("run_skew_control_matrix", "short-term skew control"),
    "e3": ("run_grading_comparison", "long-term quality grading"),
    "e4": ("run_admission_sweep", "admission by pricing class"),
    "e5": ("run_watermark_comparison", "buffer watermarks [LIT 92]"),
    "e6": ("run_navigation_grace", "suspend grace interval"),
    "e7": ("run_search_experiment", "distributed search"),
    "e8": ("run_grading_order_ablation", "degrade-order ablation"),
    "e9": ("run_interplay_experiment", "short- vs long-term timing"),
    "e10": ("run_scaling_experiment", "concurrent-session scaling"),
    "e10b": ("run_population_scaling", "population on per-client links"),
    "e11": ("run_atm_comparison", "ATM access link (future work)"),
}

FIGURES = {
    "table1": "the keyword table",
    "fig1": "the grammar BNF",
    "fig2": "the example scenario timeline",
    "fig4": "the session state machine",
}


def _list(ns: argparse.Namespace, report: Reporter) -> int:
    report.table("experiments", ["key", "title"],
                 [[k, title] for k, (_, title) in EXPERIMENTS.items()])
    report.table("figures", ["key", "title"],
                 [[k, title] for k, title in FIGURES.items()])
    return 0


def _run(ns: argparse.Namespace, report: Reporter) -> int:
    if ns.key in FIGURES:
        return _run_figure(ns.key, report)
    import repro.core.experiments as exp

    fn_name, title = EXPERIMENTS[ns.key]
    out = getattr(exp, fn_name)()
    headers, rows = out[0], out[1]
    report.table(f"{ns.key.upper()} — {title}", headers, rows)
    return 0


def _run_figure(key: str, report: Reporter) -> int:
    if key == "table1":
        from repro.hml.tokens import keyword_table_rows

        report.table("Table 1 — Description of basic keywords",
                     ["Keyword", "Description"], keyword_table_rows())
    elif key == "fig1":
        from repro.hml.grammar import grammar_text

        report.text("Figure 1 — Grammar of the language in BNF notation",
                    grammar_text())
    elif key == "fig2":
        from repro.hml.examples import figure2_document
        from repro.model import ascii_timeline, build_playout_schedule

        report.text("Figure 2 — the example scenario's playout timeline",
                    ascii_timeline(build_playout_schedule(figure2_document())))
    elif key == "fig4":
        from repro.service.states import transition_table_rows

        report.table("Figure 4 — application state transitions",
                     ["state", "event", "next state"],
                     transition_table_rows())
    return 0


def _demo(ns: argparse.Namespace, report: Reporter) -> int:
    from repro.core import ServiceEngine
    from repro.core.experiments import av_markup

    eng = ServiceEngine()
    eng.add_server("srv1", documents={"demo": (av_markup(6.0, True), "demo")})
    result = eng.orchestrator.run_full_session("srv1", "demo")
    report.table(
        "Demo delivery (6 s synchronized A/V + images)",
        ["stream", "frames", "gaps"],
        [[sid, s.frames_played, s.gaps]
         for sid, s in sorted(result.streams.items())],
    )
    report.value("worst_skew_ms", round(result.worst_skew_s() * 1e3, 1))
    report.value("startup_s", round(result.startup_latency_s, 2))
    return 0


def _record_trace(out_path: str, chrome_path: str | None,
                  n_clients: int, report: Reporter) -> int:
    """Run a traced population and export JSONL (+ Chrome trace)."""
    from repro.core import ServiceEngine
    from repro.core.config import EngineConfig
    from repro.core.experiments import av_markup
    from repro.obs import RecordingTracer, write_chrome_trace, write_jsonl

    tracer = RecordingTracer()
    eng = ServiceEngine(EngineConfig(), tracer=tracer)
    eng.add_server("srv1", documents={"doc": (av_markup(5.0, True), "demo")})
    pop = eng.orchestrator.run_population(n_clients, "srv1", "doc",
                                          stagger_s=0.5)
    n = write_jsonl(tracer.events, out_path,
                    dropped_events=tracer.dropped_events)
    report.value("sessions_completed", len(pop.completed()))
    report.value("jsonl_events", n)
    report.value("jsonl_path", out_path)
    if chrome_path:
        m = write_chrome_trace(tracer.events, chrome_path)
        report.value("chrome_records", m)
        report.value("chrome_path", chrome_path)
    return 0


def _trace(ns: argparse.Namespace, report: Reporter) -> int:
    """``trace`` subcommand: summarize or record structured traces."""
    from repro.obs import (
        read_jsonl,
        read_jsonl_header,
        summarize_trace,
        write_chrome_trace,
    )

    if ns.record is not None:
        return _record_trace(ns.record, ns.chrome, ns.clients, report)
    for path in ns.inputs:
        events = read_jsonl(path)
        dropped = int(read_jsonl_header(path).get("dropped_events", 0))
        report.value("dropped_events", dropped)
        for section in summarize_trace(events, top=ns.top,
                                       dropped_events=dropped):
            report.table(section["title"], section["headers"],
                         section["rows"])
        if ns.chrome:
            m = write_chrome_trace(events, ns.chrome)
            report.value("chrome_records", m)
            report.value("chrome_path", ns.chrome)
    return 0


def _bench(ns: argparse.Namespace, report: Reporter) -> int:
    """``bench`` subcommand: run scenarios, emit BENCH_*.json, compare."""
    import json

    from repro.obs.bench import SCENARIOS, compare_to_baseline, run_benchmarks

    if ns.clients is not None or ns.scale_curve:
        return _bench_sharded(ns, report)

    smoke, out_dir = ns.smoke, ns.out
    names = ns.scenarios + [s.name for topology in ns.topologies
                            for s in SCENARIOS.values()
                            if s.topology == topology]
    os.makedirs(out_dir, exist_ok=True)
    artifacts = run_benchmarks(names or None, smoke=smoke,
                               profile=ns.profile)
    problems: list[str] = []
    rows = []
    for name, artifact in artifacts.items():
        out_path = os.path.join(out_dir, f"BENCH_{name}.json")
        report.artifact(f"artifact:{name}", out_path, artifact)
        if ns.profile and "profile" in artifact:
            prof_path = os.path.join(out_dir, f"PROFILE_{name}.json")
            report.artifact(f"profile:{name}", prof_path,
                            artifact["profile"])
            report.value(f"profile_coverage:{name}",
                         round(artifact["profile"]["coverage"], 4))
        qoe = artifact.get("qoe") or {}
        rows.append([
            name, artifact["clients"],
            f"{artifact['wall_s']:.3f}",
            f"{artifact['events_per_sec']:.0f}",
            f"{artifact['completed']}/{artifact['sessions']}",
            f"{qoe.get('score', {}).get('p50', 0.0):.1f}",
        ])
        base_name = f"BENCH_{name}.smoke.json" if smoke \
            else f"BENCH_{name}.json"
        base_path = os.path.join(ns.baseline, base_name)
        if ns.update_baseline:
            os.makedirs(ns.baseline, exist_ok=True)
            report.artifact(f"baseline:{name}", base_path, artifact)
        elif os.path.exists(base_path):
            with open(base_path, encoding="utf-8") as fh:
                baseline = json.load(fh)
            problems.extend(compare_to_baseline(
                artifact, baseline,
                threshold=ns.threshold, perf_threshold=ns.perf_threshold,
            ))
        else:
            report.value(f"baseline:{name}", "missing (not compared)")
    report.table(
        "Benchmark trajectory" + (" (smoke)" if smoke else ""),
        ["scenario", "clients", "wall_s", "events/s", "completed",
         "qoe_p50"],
        rows,
    )
    for problem in problems:
        report.value("regression", problem)
    return 1 if problems else 0


def _shard_lifecycle_table(report: Reporter, shards) -> None:
    report.table(
        "Shard lifecycle",
        ["shard", "cells", "status", "attempts", "retries", "failures"],
        [[s.shard, len(s.cells), s.status, s.attempts, s.retries,
          "; ".join(s.failures) or "-"] for s in shards],
    )


def _bench_sharded(ns: argparse.Namespace, report: Reporter) -> int:
    """Sharded bench paths: one supervised point or the scaling curve."""
    from repro.shard.bench import (
        run_scale_curve,
        run_sharded,
        sharded_artifact,
    )
    from repro.shard.result import ShardFailure

    smoke, out_dir = ns.smoke, ns.out
    os.makedirs(out_dir, exist_ok=True)
    if ns.scale_curve:
        artifact = run_scale_curve(
            n_shards=ns.shards, seed=ns.seed, cell_clients=ns.cell,
            smoke=smoke, tolerate_failures=ns.tolerate_shard_failures)
        out_path = os.path.join(out_dir, "BENCH_population_scale.json")
        report.artifact("artifact:population_scale", out_path, artifact)
        report.table(
            "Population scaling curve"
            + (" (smoke)" if smoke else ""),
            ["clients", "wall_s", "events/s", "completed",
             "completeness", "digest"],
            [[p["clients"], f"{p['wall_s']:.2f}",
              f"{p['events_per_sec']:.0f}",
              f"{p['completed']}/{p['sessions']}",
              f"{p['completeness']:.2f}", p["digest"][:16]]
             for p in artifact["points"]],
        )
        return 0

    try:
        result = run_sharded(
            ns.clients, ns.shards, seed=ns.seed, cell_clients=ns.cell,
            duration_s=ns.duration,
            tolerate_failures=ns.tolerate_shard_failures)
    except ShardFailure as exc:
        result = exc.result
        report.text(f"sharded run failed: {exc}")
        _shard_lifecycle_table(report, result.shards)
        return 1

    artifact = sharded_artifact(result, smoke=smoke,
                                duration_s=ns.duration)
    out_path = os.path.join(out_dir, "BENCH_population_shard.json")
    report.artifact("artifact:population_shard", out_path, artifact)
    qoe = artifact.get("qoe") or {}
    report.table(
        "Sharded population" + (" (smoke)" if smoke else ""),
        ["clients", "shards", "wall_s", "events/s", "completed",
         "completeness", "qoe_p50", "digest"],
        [[result.clients, result.n_shards, f"{result.wall_s:.3f}",
          f"{artifact['events_per_sec']:.0f}",
          f"{artifact['completed']}/{artifact['sessions']}",
          f"{result.completeness:.2f}",
          f"{qoe.get('score', {}).get('p50', 0.0):.1f}",
          result.digest[:16]]],
    )
    _shard_lifecycle_table(report, result.shards)
    if result.completeness < 1.0:
        report.value("degraded",
                     f"partial result: completeness "
                     f"{result.completeness:.2f}, missing cells "
                     f"{result.missing_cells}")
    if result.interrupted:
        report.value("interrupted", True)
        return 130
    return 0


def _profile(ns: argparse.Namespace, report: Reporter) -> int:
    """``profile`` subcommand: kernel attribution over a bench run."""
    from repro.obs.bench import SCENARIOS, run_scenario

    smoke, out_dir = ns.smoke, ns.out
    os.makedirs(out_dir, exist_ok=True)
    for name in ns.scenarios or ["population_clean"]:
        artifact = run_scenario(SCENARIOS[name], smoke=smoke, profile=True)
        prof = artifact["profile"]
        out_path = os.path.join(out_dir, f"PROFILE_{name}.json")
        report.artifact(f"profile:{name}", out_path, prof)
        collapsed_path = os.path.join(out_dir,
                                      f"PROFILE_{name}.collapsed.txt")
        atomic_write_text(
            collapsed_path,
            "".join(line + "\n" for line in prof["collapsed_stacks"]))
        report.value(f"collapsed:{name}", collapsed_path)
        report.table(
            f"Kernel time by event kind — {name}"
            + (" (smoke)" if smoke else ""),
            ["kind", "count", "total_us", "mean_us", "share"],
            [[r["kind"], r["count"], f"{r['total_us']:.0f}",
              f"{r['mean_us']:.2f}", f"{r['share']:.1%}"]
             for r in prof["by_kind"]],
        )
        report.table(
            f"Hot spots — {name}",
            ["kind", "handler", "count", "total_us", "mean_us"],
            [[r["kind"], r["handler"], r["count"],
              f"{r['total_us']:.0f}", f"{r['mean_us']:.2f}"]
             for r in prof["hotspots"][:ns.top]],
        )
        report.value(f"kernel_ms:{name}", round(prof["kernel_ms"], 2))
        report.value(f"coverage:{name}", round(prof["coverage"], 4))
    return 0


def _slo(ns: argparse.Namespace, report: Reporter) -> int:
    """``slo`` subcommand: evaluate SLO rules, exit 1 on violation."""
    import json

    from repro.obs.slo import DEFAULT_SLOS, evaluate, parse_spec

    chaos_run = None
    if ns.artifact is not None:
        with open(ns.artifact, encoding="utf-8") as fh:
            artifact = json.load(fh)
        default_key = artifact.get("name") or artifact.get("scenario")
        if artifact.get("schema") == "repro.chaos":
            default_key = "chaos"
    elif ns.scenario is not None:
        from repro.obs.bench import SCENARIOS, run_scenario

        artifact = run_scenario(SCENARIOS[ns.scenario], smoke=ns.smoke)
        default_key = ns.scenario
    else:
        from repro.faults.scenarios import run_chaos

        chaos_run = run_chaos(ns.chaos, smoke=ns.smoke,
                              flight_dump=ns.flight_dump)
        artifact = chaos_run.artifact
        default_key = "chaos"

    rules = []
    if ns.spec_file is not None:
        with open(ns.spec_file, encoding="utf-8") as fh:
            rules.extend(parse_spec(fh.read().splitlines()))
    if ns.rules:
        rules.extend(parse_spec(ns.rules))
    if not rules:
        key = ns.spec if ns.spec is not None else default_key
        spec = DEFAULT_SLOS.get(key or "")
        if spec is None:
            report.text(
                f"no SLO spec for {key!r}: pass --spec "
                f"({', '.join(sorted(DEFAULT_SLOS))}), --spec-file or "
                "--rule")
            return 2
        report.value("spec", key)
        rules = parse_spec(spec)

    checks = evaluate(rules, artifact)
    report.table(
        "SLO evaluation",
        ["rule", "value", "status"],
        [[c.rule.text,
          "missing" if c.value is None else f"{c.value:g}",
          "PASS" if c.ok else "FAIL"]
         for c in checks],
    )
    service = artifact.get("service")
    if isinstance(service, dict) and service:
        report.service_report(service)
    violations = [c for c in checks if not c.ok]
    recorder = (chaos_run.flight_recorder if chaos_run is not None
                else None)
    if recorder is not None:
        # A fault may already have dumped; otherwise a violated gate
        # is itself the incident worth forensics.
        if violations and not recorder.last_dump:
            recorder.dump(trigger="slo.violation")
        if recorder.last_dump:
            report.value("flight_dump", recorder.last_dump["path"])
            report.value("flight_dump_trigger",
                         recorder.last_dump["trigger"])
    report.value("violations", len(violations))
    return 1 if violations else 0


def _chaos(ns: argparse.Namespace, report: Reporter) -> int:
    """``chaos`` subcommand: fault-injection scenarios + assertions."""
    from repro.faults.scenarios import check_determinism, run_chaos

    name, smoke, seed = ns.scenario, ns.smoke, ns.seed
    run = run_chaos(name, smoke=smoke, seed=seed, n_clients=ns.clients,
                    recovery=ns.recovery, retry=ns.retry,
                    flight_dump=ns.flight_dump,
                    flight_window_s=ns.flight_window)
    a = run.artifact
    report.table(
        f"Chaos run — {name}" + (" (smoke)" if smoke else ""),
        ["metric", "value"],
        [
            ["sessions", a["sessions"]],
            ["completed", a["completed"]],
            ["delivered", a["delivered"]],
            ["control retries", a["retries"]],
            ["stream recoveries", a["recoveries"]],
            ["streams failed over",
             a.get("watchdog", {}).get("streams_failed_over", 0)],
            ["streams lost",
             a.get("watchdog", {}).get("streams_lost", 0)],
            ["sessions saved",
             a.get("watchdog", {}).get("sessions_saved", 0)],
            ["digest", a["digest"][:16]],
        ],
    )
    if isinstance(a.get("service"), dict) and a["service"]:
        report.service_report(a["service"])
    if ns.out:
        report.artifact(f"chaos:{name}", ns.out, a)
    failed = False
    if ns.flight_dump is not None:
        dump = a.get("flight_dump") or {}
        if dump:
            report.value("flight_dump", dump.get("path"))
            report.value("flight_dump_events", dump.get("events"))
            report.value("flight_dump_trigger", dump.get("trigger"))
        elif a.get("faults", {}).get("faults"):
            # Faults were scheduled but no trigger fired the recorder —
            # the crash forensics the caller asked for don't exist.
            report.value("failure",
                         "flight recorder never dumped despite a "
                         "non-empty fault plan")
            failed = True
    if ns.check_determinism:
        same, d1, d2 = check_determinism(name, smoke=smoke, seed=seed)
        report.value("deterministic", same)
        if not same:
            report.value("digest_a", d1)
            report.value("digest_b", d2)
            failed = True
    if ns.min_delivered is not None:
        frac = a["delivered"] / a["sessions"] if a["sessions"] else 0.0
        report.value("delivered_fraction", round(frac, 3))
        if frac < ns.min_delivered:
            report.value(
                "failure",
                f"delivered {frac:.2f} < required {ns.min_delivered:.2f}")
            failed = True
    if ns.min_completed is not None:
        frac = a["completed"] / a["sessions"] if a["sessions"] else 0.0
        report.value("completed_fraction", round(frac, 3))
        if frac < ns.min_completed:
            report.value(
                "failure",
                f"completed {frac:.2f} < required {ns.min_completed:.2f}")
            failed = True
    return 1 if failed else 0


def _trend(ns: argparse.Namespace, report: Reporter) -> int:
    """``trend`` subcommand: newest run vs history, exit 1 on regress."""
    from repro.obs.trend import (
        analyze_group,
        group_history,
        load_history,
        sparkline,
    )

    history_paths = list(ns.history)
    if not history_paths:
        default_dir = os.path.join("benchmarks", "history")
        if os.path.isdir(default_dir):
            history_paths.append(default_dir)
    # --artifact files load after the history so they land as the
    # newest (judged) point of their scenario group.
    history = load_history(history_paths + ns.artifacts)
    if not history:
        report.text("no artifacts found; pass --history DIR and/or "
                    "--artifact FILE (see --help)")
        return 2

    kwargs: dict[str, float] = {}
    if ns.threshold is not None:
        kwargs["threshold"] = ns.threshold
    if ns.perf_threshold is not None:
        kwargs["perf_threshold"] = ns.perf_threshold
    regressions = 0
    rows = []
    for (name, smoke), docs in sorted(group_history(history).items()):
        label = name + (" (smoke)" if smoke else "")
        for row in analyze_group(docs, **kwargs):
            rows.append([
                label, row.metric, sparkline(row.values),
                f"{row.median:g}", f"{row.last:g}", row.verdict,
            ])
            if row.verdict == "regressed":
                regressions += 1
                report.value("regression", f"{label}: {row.detail}")
    report.table(
        "Trend verdicts (newest vs median ± MAD band)",
        ["scenario", "metric", "history", "median", "last", "verdict"],
        rows,
    )
    report.value("regressions", regressions)
    return 1 if regressions else 0


def _report(ns: argparse.Namespace, report: Reporter) -> int:
    """``report`` subcommand: markdown dashboard for one artifact."""
    import json

    from repro.obs.slo import DEFAULT_SLOS, evaluate, parse_spec
    from repro.obs.trend import (
        analyze_group,
        group_history,
        load_history,
        render_markdown_report,
    )

    artifact_path = ns.artifact or ns.artifact_file
    with open(artifact_path, encoding="utf-8") as fh:
        artifact = json.load(fh)

    spec_key = artifact.get("scenario") or artifact.get("name")
    if artifact.get("schema") == "repro.chaos":
        spec_key = "chaos"
    spec = DEFAULT_SLOS.get(spec_key or "")
    slo_checks = evaluate(parse_spec(spec), artifact) if spec else None

    trend_rows = None
    if ns.history:
        history = load_history(ns.history)
        key = (str(artifact.get("scenario") or artifact.get("name")
                   or "?"), bool(artifact.get("smoke")))
        docs = group_history(history).get(key, [])
        docs.append(artifact)
        trend_rows = analyze_group(docs)

    markdown = render_markdown_report(artifact, trend_rows=trend_rows,
                                      slo_checks=slo_checks)
    if ns.out:
        atomic_write_text(ns.out, markdown + "\n")
        report.value("report_path", ns.out)
    else:
        report.text(markdown)
    if slo_checks:
        report.value("slo_violations",
                     sum(1 for c in slo_checks if not c.ok))
    return 0


def _lint(ns: argparse.Namespace, report: Reporter) -> int:
    """``lint`` subcommand: scenario analyzer + determinism linter."""
    from repro.analysis.runner import list_rules, run_lint

    if ns.list_rules:
        return list_rules(report)
    baseline_path = ns.baseline
    if ns.self_lint and baseline_path is None:
        default_baseline = os.path.join(os.getcwd(), "lint-baseline.json")
        if os.path.exists(default_baseline):
            baseline_path = default_baseline
    capacity_bps = (None if ns.capacity_mbps is None
                    else ns.capacity_mbps * 1e6)
    return run_lint(report, paths=ns.paths, self_lint=ns.self_lint,
                    scenarios=ns.scenarios, capacity_bps=capacity_bps,
                    closed=ns.closed_set, examples_dir=ns.examples_dir,
                    fmt=ns.format, baseline_path=baseline_path,
                    write_baseline=ns.write_baseline)


#: bench flags that only the scenario run reads, and those that only
#: the sharded modes (``--clients`` / ``--scale-curve``) read
_BENCH_SCENARIO_FLAGS = ("--profile", "--scenario", "--topology",
                         "--baseline", "--threshold", "--perf-threshold",
                         "--update-baseline")
_BENCH_SHARD_FLAGS = ("--shards", "--cell", "--seed", "--duration",
                      "--tolerate-shard-failures")


def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The ``python -m repro`` parser and its subparsers by name."""
    from repro.faults.scenarios import CHAOS_SCENARIOS
    from repro.obs.bench import (
        DEFAULT_PERF_THRESHOLD,
        DEFAULT_THRESHOLD,
        SCENARIOS,
    )

    bench_names = sorted(SCENARIOS)
    chaos_names = sorted(CHAOS_SCENARIOS)
    json_help = "emit one JSON document instead of text tables"
    # --json is accepted before or after the command; SUPPRESS keeps
    # a subparser from overwriting the top-level value with a default
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true",
                           default=argparse.SUPPRESS, help=json_help)
    parser = argparse.ArgumentParser(prog="python -m repro",
                                     description=__doc__, allow_abbrev=False)
    parser.add_argument("--json", action="store_true", help=json_help)
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, run, summary):
        sub = subparsers.add_parser(name, help=summary, description=summary,
                                    parents=[json_flag], allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    command("help", None, "show this help")
    command("list", _list, "list the experiments and figures")
    sub = command("run", _run, "run an experiment or render a figure")
    sub.add_argument("key", type=str.lower, metavar="KEY",
                     choices=[*EXPERIMENTS, *FIGURES],
                     help="experiment or figure key (see list)")
    command("demo", _demo, "the quickstart A/V delivery")

    sub = command("trace", _trace,
                  "summarize a JSONL trace, or record a traced run")
    sub.add_argument("inputs", nargs="*", metavar="FILE.jsonl")
    sub.add_argument("--record", metavar="OUT.jsonl",
                     help="record a traced population run to OUT")
    sub.add_argument("--chrome", metavar="OUT.json",
                     help="also write a Chrome trace")
    sub.add_argument("--top", type=int, default=12,
                     help="rows in the top-N tables")
    sub.add_argument("--clients", type=int, default=3,
                     help="viewers in a --record run")

    sub = command("bench", _bench,
                  "benchmark scenarios into BENCH_<name>.json and gate "
                  "them on the baselines; or a sharded population run "
                  "(--clients) or scaling curve (--scale-curve)")
    sub.add_argument("--smoke", action="store_true",
                     help="CI-sized runs")
    sub.add_argument("--out", default=".", metavar="DIR")
    sub.add_argument("--profile", action="store_true",
                     help="embed kernel attribution in the artifacts")
    sub.add_argument("--scenario", action="append", default=[],
                     dest="scenarios", choices=bench_names)
    sub.add_argument("--topology", action="append", default=[],
                     dest="topologies",
                     choices=sorted({s.topology for s in SCENARIOS.values()}),
                     help="every scenario on this topology")
    sub.add_argument("--baseline", metavar="DIR",
                     default=os.path.join("benchmarks", "baseline"))
    sub.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                     help="tolerated regression of deterministic metrics")
    sub.add_argument("--perf-threshold", type=float,
                     default=DEFAULT_PERF_THRESHOLD,
                     help="tolerated regression of timing metrics")
    sub.add_argument("--update-baseline", action="store_true",
                     help="re-record the baselines")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--clients", type=int, metavar="N",
                      help="one supervised sharded run of N viewers")
    mode.add_argument("--scale-curve", action="store_true",
                      help="the sharded scaling curve")
    sub.add_argument("--shards", type=int, default=4, metavar="K")
    sub.add_argument("--cell", type=int, default=8, metavar="N",
                     help="viewers per shard cell")
    sub.add_argument("--seed", type=int, default=11)
    sub.add_argument("--duration", type=float, default=6.0,
                     help="document length in seconds (--clients)")
    sub.add_argument("--tolerate-shard-failures", action="store_true",
                     help="degrade to a partial result on shard failure")

    sub = command("profile", _profile,
                  "DES kernel profile: hot spots, PROFILE_<name>.json and "
                  "collapsed stacks")
    sub.add_argument("--scenario", action="append", default=[],
                     dest="scenarios", choices=bench_names,
                     help="default: population_clean")
    sub.add_argument("--smoke", action="store_true")
    sub.add_argument("--out", default=".", metavar="DIR")
    sub.add_argument("--top", type=int, default=15,
                     help="rows in the hot-spot table")

    sub = command("slo", _slo,
                  "evaluate SLO rules against an artifact or a live run; "
                  "exit 1 on a violated rule")
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--artifact", metavar="FILE")
    source.add_argument("--scenario", choices=bench_names,
                        help="a live bench run")
    source.add_argument("--chaos", choices=chaos_names,
                        help="a live chaos run")
    sub.add_argument("--smoke", action="store_true")
    sub.add_argument("--spec", metavar="KEY",
                     help="a shipped spec (default: the artifact's name)")
    sub.add_argument("--spec-file", metavar="FILE")
    sub.add_argument("--rule", action="append", default=[], dest="rules",
                     metavar="'METRIC OP N'")
    sub.add_argument("--flight-dump", metavar="FILE",
                     help="(--chaos) dump the flight recorder on fault "
                     "injection or SLO violation")

    sub = command("chaos", _chaos,
                  "fault-injection run: scheduled crashes, flaps and "
                  "partitions against failover and retry")
    sub.add_argument("--scenario", default="crash", choices=chaos_names)
    sub.add_argument("--smoke", action="store_true")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--clients", type=int, metavar="N")
    sub.add_argument("--no-recovery", action="store_false",
                     dest="recovery", help="disable stream failover")
    sub.add_argument("--no-retry", action="store_const", const=False,
                     dest="retry", help="disable control RPC retry")
    sub.add_argument("--check-determinism", action="store_true",
                     help="run twice and compare digests")
    sub.add_argument("--min-delivered", type=float, metavar="FRAC")
    sub.add_argument("--min-completed", type=float, metavar="FRAC")
    sub.add_argument("--out", metavar="FILE")
    sub.add_argument("--flight-dump", metavar="FILE",
                     help="dump the flight-recorder window around the "
                     "first injected fault")
    sub.add_argument("--flight-window", type=float, default=30.0,
                     metavar="SECONDS")

    sub = command("trend", _trend,
                  "judge the newest artifact of each scenario against "
                  "its history; exit 1 on a regression")
    sub.add_argument("--history", action="append", default=[],
                     metavar="DIR|FILE",
                     help="default: benchmarks/history")
    sub.add_argument("--artifact", action="append", default=[],
                     dest="artifacts", metavar="FILE",
                     help="appended as the newest point of its group")
    sub.add_argument("--threshold", type=float)
    sub.add_argument("--perf-threshold", type=float)

    sub = command("report", _report,
                  "markdown dashboard for one artifact: QoE, service, "
                  "time series, SLO status, trend")
    artifact = sub.add_mutually_exclusive_group(required=True)
    artifact.add_argument("artifact_file", nargs="?", metavar="ARTIFACT")
    artifact.add_argument("--artifact", metavar="FILE")
    sub.add_argument("--out", metavar="FILE.md")
    sub.add_argument("--history", action="append", default=[],
                     metavar="DIR|FILE")

    sub = command("lint", _lint,
                  "determinism linter over .py files and scenario "
                  "analyzer over .hml files")
    sub.add_argument("paths", nargs="*", metavar="PATH")
    sub.add_argument("--self", action="store_true", dest="self_lint",
                     help="lint src/repro as a whole program")
    sub.add_argument("--scenarios", action="store_true",
                     help="analyze the shipped scenario corpus")
    sub.add_argument("--capacity-mbps", type=float, metavar="F")
    sub.add_argument("--closed-set", action="store_true",
                     help="treat the .hml paths as one closed set")
    sub.add_argument("--examples-dir", metavar="DIR")
    sub.add_argument("--format", default="text", choices=("text", "github"))
    sub.add_argument("--baseline", metavar="FILE",
                     help="suppress the findings listed in FILE "
                     "(--self default: ./lint-baseline.json)")
    sub.add_argument("--write-baseline", metavar="FILE",
                     help="snapshot the current findings")
    sub.add_argument("--list-rules", action="store_true")
    return parser, subparsers.choices


def _usage_problem(ns: argparse.Namespace, args: list[str]) -> str | None:
    """A flag combination the parser itself cannot reject, or None."""
    if ns.command == "trace" and ns.record is None and not ns.inputs:
        return "give a FILE.jsonl to summarize or --record OUT.jsonl"
    if ns.command == "slo" and ns.flight_dump and ns.chaos is None:
        return "--flight-dump needs a live --chaos run"
    if ns.command == "bench":
        if ns.scale_curve:
            mode, ignored = "--scale-curve", (*_BENCH_SCENARIO_FLAGS,
                                              "--duration")
        elif ns.clients is not None:
            mode, ignored = "--clients", _BENCH_SCENARIO_FLAGS
        else:
            mode, ignored = "a scenario run", _BENCH_SHARD_FLAGS
        given = {a.split("=", 1)[0] for a in args}
        for flag in ignored:
            if flag in given:
                return f"{flag} does not apply to {mode}"
    return None


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        ns, extra = parser.parse_known_args(args)
        if extra:
            # blame the subcommand, whose usage lists the flags it takes
            (commands.get(ns.command) or parser).error(
                f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # usage error (2) or -h (0)
        return int(exc.code or 0)
    if ns.command in (None, "help"):
        parser.print_help()
        return 0
    report = Reporter(json_mode=ns.json)
    try:
        problem = _usage_problem(ns, args)
        if problem:
            sub = commands[ns.command]
            report.text(sub.format_usage().rstrip(),
                        f"{sub.prog}: error: {problem}")
            return 2
        return ns.run(ns, report)
    finally:
        report.close()


if __name__ == "__main__":
    raise SystemExit(main())
