"""Correctness checks on population results.

A session passes when it completed and delivered its media: the same
rule as ``PopulationResult.delivered(max_gap_ratio=0.25)``, applied to
the result document so in-process and sharded runs are judged alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

MAX_GAP_RATIO = 0.25


def gap_ratio(result: dict[str, Any]) -> float:
    streams = result.get("streams", {}).values()
    played = sum(s["frames_played"] for s in streams)
    gaps = sum(s["gaps"] for s in streams)
    total = played + gaps
    return 0.0 if total == 0 else gaps / total


def session_problems(outcome: dict[str, Any], needs_qoe: bool) -> list[str]:
    result = outcome.get("result", {})
    sid = outcome.get("session_id", "?")
    problems = []
    if not result.get("completed"):
        problems.append(f"{sid}: did not complete")
    elif gap_ratio(result) > MAX_GAP_RATIO:
        problems.append(f"{sid}: gap ratio {gap_ratio(result):.3f} "
                        f"> {MAX_GAP_RATIO}")
    if needs_qoe and not result.get("qoe"):
        problems.append(f"{sid}: no QoE summary")
    return problems


@dataclass
class Verdict:
    """Outcome of checking one iteration."""

    sessions: int
    failed: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_iteration(doc: dict[str, Any], clients: int, needs_qoe: bool,
                    sharded: Any = None,
                    expected_digest: str | None = None,
                    digest: str | None = None) -> Verdict:
    """Judge one population document.

    Session-level failures count once per failing session. A failure
    of the whole iteration — a missing session, a shard retry, an
    incomplete merge or a digest that differs from the first
    iteration's — counts every requested session as failed.
    """
    outcomes = doc.get("outcomes", [])
    problems: list[str] = []
    bad = 0
    for outcome in outcomes:
        p = session_problems(outcome, needs_qoe)
        if p:
            bad += 1
            problems.extend(p)
    run_level: list[str] = []
    if len(outcomes) != clients:
        run_level.append(f"{len(outcomes)} sessions for {clients} clients")
    if sharded is not None:
        if sharded.completeness != 1.0:
            run_level.append(f"completeness {sharded.completeness}")
        retries = sum(s.retries for s in sharded.shards)
        if retries:
            run_level.append(f"{retries} shard retries")
    if expected_digest is not None and digest != expected_digest:
        run_level.append(f"digest {digest} differs from the first "
                         f"iteration's {expected_digest}")
    if run_level:
        return Verdict(clients, clients, run_level + problems)
    return Verdict(clients, bad, problems)


def frames_played(doc: dict[str, Any]) -> int:
    return sum(s["frames_played"] for o in doc.get("outcomes", [])
               for s in o["result"].get("streams", {}).values())


def delivered_sessions(doc: dict[str, Any]) -> int:
    return sum(1 for o in doc.get("outcomes", [])
               if o["result"].get("completed")
               and gap_ratio(o["result"]) <= MAX_GAP_RATIO)


def qoe_score_p50(doc: dict[str, Any]) -> float:
    """Median per-session QoE score (0.0 when sessions carry none)."""
    scores = sorted(o["result"]["qoe"]["score"]
                    for o in doc.get("outcomes", [])
                    if o["result"].get("qoe"))
    if not scores:
        return 0.0
    mid = len(scores) // 2
    if len(scores) % 2:
        return float(scores[mid])
    return (scores[mid - 1] + scores[mid]) / 2.0
