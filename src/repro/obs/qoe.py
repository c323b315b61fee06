"""Per-session Quality-of-Experience scoring from trace events.

Turns the frame spans of :mod:`repro.obs.lifecycle` plus the
skew-correction and grading events into one :class:`SessionQoE` per
session: startup delay, stall count/duration, skew violations,
grade-degradation time, frame delivery accounting, end-to-end latency
percentiles (streaming log-bucketed histograms — no sample list is
retained) and a composite 0–100 score.

The score is a diagnostic ranking, not a perceptual model: it starts
at 100 and subtracts bounded penalties for startup delay, stalls,
undelivered frames, skew corrections and time spent at a degraded
grade, so a clean run always ranks strictly above an impaired one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.lifecycle import FrameSpan, correlate_frames
from repro.obs.metrics import Histogram, log_buckets
from repro.obs.tracer import TraceEvent

__all__ = ["SessionQoE", "score_session", "score_sessions",
           "qoe_summary", "qoe_summary_of_dicts"]

#: latency histogram bounds shared by all QoE scorers
LATENCY_BOUNDS = log_buckets(1e-4, 100.0, per_decade=9)

#: two gap events closer than this belong to the same stall
STALL_MERGE_S = 0.5


@dataclass(slots=True)
class SessionQoE:
    """One session's derived quality-of-experience summary."""

    session: str
    duration_s: float = 0.0
    startup_s: float = 0.0
    stall_count: int = 0
    stall_time_s: float = 0.0
    skew_violations: int = 0
    degraded_time_s: float = 0.0
    frames_sent: int = 0
    frames_played: int = 0
    frames_dropped: int = 0
    frames_lost: int = 0
    #: end-to-end (send -> playout) latency distribution, played frames
    latency: dict[str, float] = field(default_factory=dict)
    score: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        if self.frames_sent == 0:
            return 1.0
        return self.frames_played / self.frames_sent

    def to_dict(self) -> dict[str, object]:
        return {
            "session": self.session,
            "score": self.score,
            "duration_s": self.duration_s,
            "startup_s": self.startup_s,
            "stall_count": self.stall_count,
            "stall_time_s": self.stall_time_s,
            "skew_violations": self.skew_violations,
            "degraded_time_s": self.degraded_time_s,
            "frames_sent": self.frames_sent,
            "frames_played": self.frames_played,
            "frames_dropped": self.frames_dropped,
            "frames_lost": self.frames_lost,
            "delivery_ratio": self.delivery_ratio,
            "latency": dict(self.latency),
        }


def _stalls(gap_times: list[float]) -> tuple[int, float]:
    """Merge per-tick gap events into stalls: (count, total seconds).

    Consecutive gaps one frame interval apart are one stall; the
    stall's duration spans its first to its last gap plus one typical
    spacing (a lone gap still stalls for about one frame time).
    """
    if not gap_times:
        return 0, 0.0
    gap_times = sorted(gap_times)
    deltas = [b - a for a, b in zip(gap_times, gap_times[1:]) if b > a]
    spacing = min(deltas) if deltas else STALL_MERGE_S / 2.0
    merge = max(STALL_MERGE_S, 2.0 * spacing)
    count = 1
    total = 0.0
    run_start = gap_times[0]
    prev = gap_times[0]
    for t in gap_times[1:]:
        if t - prev > merge:
            total += (prev - run_start) + spacing
            count += 1
            run_start = t
        prev = t
    total += (prev - run_start) + spacing
    return count, total


def _degraded_time(grade_events: list[TraceEvent], end_s: float) -> float:
    """Seconds spent above (worse than) the session's initial grade."""
    if not grade_events:
        return 0.0
    baseline = grade_events[0].args.get("old", 0)
    degraded_since: float | None = None
    total = 0.0
    for e in sorted(grade_events, key=lambda e: e.time):
        grade = e.args.get("new", baseline)
        if grade > baseline and degraded_since is None:
            degraded_since = e.time
        elif grade <= baseline and degraded_since is not None:
            total += e.time - degraded_since
            degraded_since = None
    if degraded_since is not None:
        total += max(0.0, end_s - degraded_since)
    return total


def _composite_score(q: SessionQoE) -> float:
    """Bounded-penalty composite in [0, 100] (higher is better)."""
    duration = max(q.duration_s, 1e-9)
    undelivered = 1.0 - q.delivery_ratio
    penalty = 0.0
    penalty += min(15.0, 4.0 * q.startup_s)
    penalty += min(15.0, 3.0 * q.stall_count)
    penalty += min(20.0, 100.0 * q.stall_time_s / duration)
    penalty += min(40.0, 100.0 * undelivered)
    penalty += min(5.0, 0.5 * q.skew_violations)
    penalty += min(15.0, 50.0 * q.degraded_time_s / duration)
    return max(0.0, 100.0 - penalty)


def score_session(
    events: list[TraceEvent],
    session: str,
    spans: dict[tuple[str, str, int], FrameSpan] | None = None,
) -> SessionQoE:
    """Score one session from a trace (and optionally pre-built spans)."""
    if spans is None:
        spans = correlate_frames(events, session=session)
    qoe = SessionQoE(session=session)

    begin_s: float | None = None
    end_s: float | None = None
    first_play_s: float | None = None
    gap_times: list[float] = []
    grade_events: list[TraceEvent] = []
    for e in events:
        if e.session != session:
            continue
        if e.kind == "session":
            if e.phase == "B":
                begin_s = e.time if begin_s is None else begin_s
            elif e.phase == "E":
                end_s = e.time
        elif e.kind in ("playout.frame", "playout.start"):
            if first_play_s is None or e.time < first_play_s:
                first_play_s = e.time
        elif e.kind == "playout.gap":
            gap_times.append(e.time)
        elif e.kind == "skew.correct":
            qoe.skew_violations += 1
        elif e.kind == "qos.grade":
            grade_events.append(e)

    if begin_s is None:
        begin_s = min((e.time for e in events if e.session == session),
                      default=0.0)
    if end_s is None:
        end_s = max((e.time for e in events if e.session == session),
                    default=begin_s)
    qoe.duration_s = max(0.0, end_s - begin_s)
    if first_play_s is not None:
        qoe.startup_s = max(0.0, first_play_s - begin_s)
    qoe.stall_count, qoe.stall_time_s = _stalls(gap_times)
    qoe.degraded_time_s = _degraded_time(grade_events, end_s)

    latency = Histogram(bounds=LATENCY_BOUNDS)
    for span in spans.values():
        if span.session != session:
            continue
        qoe.frames_sent += 1
        terminal = span.terminal
        if terminal == "played":
            qoe.frames_played += 1
            total = span.total_s
            if total is not None and total >= 0:
                latency.observe(total)
        elif terminal == "dropped":
            qoe.frames_dropped += 1
        elif terminal == "lost":
            qoe.frames_lost += 1
    qoe.latency = latency.summary()
    qoe.score = _composite_score(qoe)
    return qoe


def score_sessions(
    events: list[TraceEvent],
) -> dict[str, SessionQoE]:
    """Score every session that opened a ``session`` span in the trace."""
    sessions = [e.name for e in events
                if e.kind == "session" and e.phase == "B"]
    spans = correlate_frames(events)
    out: dict[str, SessionQoE] = {}
    for sess in sessions:
        sess_spans = {k: s for k, s in spans.items() if s.session == sess}
        out[sess] = score_session(events, sess, spans=sess_spans)
    return out


def qoe_summary(qoes: list[SessionQoE] | dict[str, SessionQoE]) -> dict:
    """Population rollup: score/startup/latency percentiles.

    Streaming histograms keep this O(buckets) regardless of
    population size; the result is JSON-serializable and rides on
    :class:`~repro.core.orchestrator.PopulationResult`.
    """
    values = list(qoes.values()) if isinstance(qoes, dict) else list(qoes)
    score = Histogram(bounds=tuple(range(1, 101)) + (float("inf"),))
    startup = Histogram(bounds=log_buckets(1e-3, 100.0))
    latency = Histogram(bounds=LATENCY_BOUNDS)
    totals = {"stall_count": 0, "skew_violations": 0, "frames_sent": 0,
              "frames_played": 0, "frames_dropped": 0, "frames_lost": 0}
    for q in values:
        score.observe(q.score)
        startup.observe(q.startup_s)
        if q.latency.get("count"):
            # fold the per-session p50 into the population view
            latency.observe(q.latency.get("p50", 0.0))
        for key in totals:
            totals[key] += getattr(q, key)
    return {
        "sessions": len(values),
        "score": score.summary(),
        "startup_s": startup.summary(),
        "frame_latency_p50_s": latency.summary(),
        **totals,
    }


#: scalar fields a ``SessionQoE.to_dict()`` document carries back
_QOE_FIELDS = ("score", "duration_s", "startup_s", "stall_count",
               "stall_time_s", "skew_violations", "degraded_time_s",
               "frames_sent", "frames_played", "frames_dropped",
               "frames_lost")


def qoe_summary_of_dicts(
    docs: Iterable[dict[str, Any] | None],
) -> dict[str, Any]:
    """:func:`qoe_summary` over ``SessionQoE.to_dict()`` documents.

    Empty documents (untraced sessions) are skipped; the result is
    empty when none remain.
    """
    qoes = []
    for doc in docs:
        if not doc:
            continue
        qoe = SessionQoE(session=doc.get("session", ""))
        for key in _QOE_FIELDS:
            if key in doc:
                setattr(qoe, key, doc[key])
        qoe.latency = dict(doc.get("latency", {}))
        qoes.append(qoe)
    return qoe_summary(qoes) if qoes else {}
