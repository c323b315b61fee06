"""The ``python -m repro trace`` subcommand and the ``--json`` reporter."""

from __future__ import annotations

import io
import json

from repro.__main__ import main
from repro.analysis import Reporter
from repro.obs import read_jsonl


def test_reporter_text_mode_streams_tables():
    out = io.StringIO()
    rep = Reporter(json_mode=False, stream=out)
    rep.table("T", ["a", "b"], [[1, 2]])
    rep.value("k", 3)
    rep.close()
    text = out.getvalue()
    assert "T" in text and "a" in text and "k: 3" in text


def test_reporter_json_mode_single_document():
    out = io.StringIO()
    rep = Reporter(json_mode=True, stream=out)
    rep.table("T", ["a"], [[1]])
    rep.text("note", "body")
    rep.value("k", 3)
    rep.close()
    doc = json.loads(out.getvalue())
    assert doc["values"] == {"k": 3}
    assert doc["sections"][0] == {"title": "T", "headers": ["a"],
                                  "rows": [[1]]}
    assert doc["sections"][1] == {"title": "note", "text": "body"}


def test_cli_list_json(capsys):
    assert main(["list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    titles = [s["title"] for s in doc["sections"]]
    assert titles == ["experiments", "figures"]


def test_cli_trace_record_then_summarize(tmp_path, capsys):
    jl = tmp_path / "t.jsonl"
    cj = tmp_path / "t.json"
    assert main(["trace", "--record", str(jl), "--chrome", str(cj),
                 "--clients", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["sessions_completed"] == 2
    assert doc["values"]["jsonl_events"] > 0
    events = read_jsonl(jl)
    assert len(events) == doc["values"]["jsonl_events"]
    chrome = json.loads(cj.read_text())
    assert len(chrome["traceEvents"]) == doc["values"]["chrome_records"]

    assert main(["trace", str(jl)]) == 0
    text = capsys.readouterr().out
    assert "Top event kinds" in text
    assert "Session timelines" in text
    assert "sess-1" in text


def test_cli_trace_usage_without_args(capsys):
    assert main(["trace"]) == 2
    assert "usage" in capsys.readouterr().out


def test_cli_run_figure_still_works(capsys):
    assert main(["run", "table1"]) == 0
    assert "keywords" in capsys.readouterr().out


def test_trace_summary_stamps_a_capped_recording_partial(tmp_path, capsys):
    """A ring-buffered recording says what it shed: in the JSONL
    header, the JSON report and the replayed lifecycle/QoE titles."""
    import warnings

    from repro.core import ServiceEngine
    from repro.core.config import EngineConfig
    from repro.core.experiments import av_markup
    from repro.obs import (
        RecordingTracer,
        score_sessions,
        summarize_trace,
        write_jsonl,
    )

    tracer = RecordingTracer(max_events=4500)
    eng = ServiceEngine(EngineConfig(seed=5), tracer=tracer)
    eng.add_server("srv1", documents={"doc": (av_markup(2.0), "x")})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # the ring sheds the first session's start and keeps the
        # second's, which replays from a truncated frame history
        eng.orchestrator.run_population(2, "srv1", "doc", stagger_s=1.5)
    assert tracer.dropped_events > 0
    assert len(tracer.events) == 4500
    # both sessions survive in the ring, so both are scored, though
    # the first one's span begin was shed
    named = {e.session for e in tracer.events if e.session}
    assert named == {"sess-1", "sess-2"}
    assert set(score_sessions(list(tracer.events))) == named

    titles = [s["title"] for s in summarize_trace(list(tracer.events))]
    assert not any("partial" in t for t in titles)
    stamp = f"partial: {tracer.dropped_events} events shed"
    titles = [s["title"] for s in summarize_trace(
        list(tracer.events), dropped_events=tracer.dropped_events)]
    assert any(t.startswith("Frame lifecycle") and stamp in t
               for t in titles)
    assert any(t.startswith("Session QoE") and stamp in t for t in titles)

    jl = tmp_path / "capped.jsonl"
    write_jsonl(tracer.events, jl, dropped_events=tracer.dropped_events)
    assert main(["trace", str(jl), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["dropped_events"] == tracer.dropped_events
    assert any(stamp in s["title"] for s in doc["sections"]
               if s["title"].startswith("Session QoE"))
