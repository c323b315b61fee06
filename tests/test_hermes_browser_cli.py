"""Tests for the Hermes browser facilities and the CLI front end."""

import pytest

import repro.__main__ as cli
from repro.hermes import HermesBrowser, HermesService, make_course
from repro.__main__ import EXPERIMENTS, FIGURES, main


@pytest.fixture
def svc():
    s = HermesService()
    s.add_hermes_server(
        "hermes-x", "Unit X", ["xunit"],
        make_course("x", "xunit", n_lessons=3, segment_s=3.0),
    )
    return s


def test_browser_view_and_history(svc):
    b = HermesBrowser(svc, "alice")
    r1 = b.view("x-1")
    assert r1.completed
    b.view("x-2")
    assert b.current_lesson == "x-2"
    r_back = b.back()
    assert b.current_lesson == "x-1"
    assert r_back.completed
    r_fwd = b.forward()
    assert b.current_lesson == "x-2"
    assert r_fwd.completed
    assert b.history.entries() == ["x-1", "x-2"]


def test_browser_resolves_server_from_catalogue(svc):
    b = HermesBrowser(svc, "alice")
    b.view("x-1")  # no server given
    with pytest.raises(KeyError):
        b.view("ghost-lesson")


def test_browser_annotations(svc):
    b = HermesBrowser(svc, "alice")
    with pytest.raises(RuntimeError):
        b.annotate("too early")  # nothing viewed yet
    b.view("x-1")
    ann = b.annotate("great explanation", element_id="LV2",
                     presentation_time_s=4.0)
    assert ann.document == "x-1"
    assert ann.author == "alice"
    assert b.notes_for("x-1") == [ann]
    assert b.notes_for("x-2") == []


# ----------------------------------------------------------------- CLI
def test_cli_list_and_help(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out
    for key in FIGURES:
        assert key in out
    assert main(["help"]) == 0


def test_cli_run_figure(capsys):
    assert main(["run", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "[sync]" in out
    assert main(["run", "table1"]) == 0
    assert "STARTIME" in capsys.readouterr().out
    assert main(["run", "fig1"]) == 0
    assert "<Hdocument>" in capsys.readouterr().out
    assert main(["run", "fig4"]) == 0
    assert "viewing" in capsys.readouterr().out


def test_cli_run_fast_experiments(capsys):
    assert main(["run", "e4"]) == 0
    assert "admit_gold_%" in capsys.readouterr().out
    assert main(["run", "e7"]) == 0
    assert "hermes" in capsys.readouterr().out


#: malformed invocations: each is a usage error (exit 2) caught before
#: any command body runs
MALFORMED = [
    # a value flag with its value missing
    ["bench", "--out"],
    ["lint", "--format"],
    ["slo", "--artifact"],
    ["chaos", "--seed"],
    ["report", "--history"],
    ["profile", "--top"],
    # a value of the wrong type or outside a closed set
    ["trace", "--top", "x"],
    ["bench", "--scenario", "nope"],
    ["chaos", "--scenario", "nope"],
    ["profile", "--scenario", "nope"],
    ["bench", "--topology", "mesh"],
    ["lint", "--self", "--format", "sarif"],
    # a flag the command does not take
    ["trace", "--bogus"],
    ["lint", "--frobnicate"],
    # a flag the chosen bench mode would ignore
    ["bench", "--scale-curve", "--duration", "2"],
    ["bench", "--clients", "16", "--profile"],
    ["bench", "--clients", "16", "--scenario", "population_clean"],
    ["bench", "--shards", "2"],
    ["bench", "--clients", "16", "--scale-curve"],
    # a missing or ambiguous source
    ["trace"],
    ["slo"],
    ["slo", "--artifact", "a.json", "--chaos", "crash"],
    ["slo", "--artifact", "a.json", "--flight-dump", "d.jsonl"],
    ["report"],
    ["report", "a.json", "--artifact", "b.json"],
]

COMMANDS = ["help", "list", "run", "demo", "trace", "bench", "profile",
            "slo", "chaos", "trend", "report", "lint"]


def _refuse_command_bodies(monkeypatch):
    def refuse(ns, report):
        raise AssertionError(f"{ns.command} ran on a usage error")

    for name in ("_list", "_run", "_demo", "_trace", "_bench", "_profile",
                 "_slo", "_chaos", "_trend", "_report", "_lint"):
        monkeypatch.setattr(cli, name, refuse)


def test_cli_error_paths(capsys, monkeypatch):
    assert main(["run"]) == 2
    assert main(["run", "e99"]) == 2
    assert main(["frobnicate"]) == 2
    _refuse_command_bodies(monkeypatch)
    for argv in MALFORMED:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "error:" in captured.out + captured.err, argv
        assert "Traceback" not in captured.out + captured.err, argv


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_subcommand_help_exits_zero(command, capsys, monkeypatch):
    _refuse_command_bodies(monkeypatch)
    assert main([command, "-h"]) == 0
    assert "usage: python -m repro" in capsys.readouterr().out
