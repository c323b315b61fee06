"""Per-session Quality-of-Experience scoring.

One :class:`SessionQoE` per session: startup delay, stall
count/duration, skew violations, grade-degradation time, frame
delivery accounting, end-to-end latency percentiles (streaming
log-bucketed histograms — no sample list is retained) and a composite
0–100 score.

Two sources feed the same scorer:

* **in band** — :func:`score_inband`, from state a run keeps anyway:
  the session span the orchestrator records, the playout event log,
  the skew controllers' correction counts, the server QoS manager's
  grading decisions and a :class:`SessionFrames` ledger that the data
  path (RTP sender and receiver, link drops, client buffers and
  playout) updates once per frame. This is how every
  :class:`~repro.core.results.SessionResult` gets its ``qoe``; no
  tracer is needed.
* **trace replay** — :func:`score_session` / :func:`score_sessions`,
  from a recorded trace via the frame spans of
  :mod:`repro.obs.lifecycle`. It is the debugging view over a
  recording and the oracle the in-band path is tested against: both
  must serialize byte-identically for every session.

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

__all__ = ["SessionQoE", "SessionFrames", "score_inband",
           "score_session", "score_sessions", "qoe_summary",
           "qoe_summary_of_dicts"]

#: latency histogram bounds shared by all QoE scorers
LATENCY_BOUNDS = log_buckets(1e-4, 100.0, per_decade=9)

#: two gap events closer than this belong to the same stall
STALL_MERGE_S = 0.5

#: a grade transition: (time, old grade, new grade)
Transition = tuple[float, int, int]


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


def _degraded_time(transitions: list[Transition], end_s: float) -> float:
    """Seconds spent above (worse than) the session's initial grade."""
    if not transitions:
        return 0.0
    baseline = transitions[0][1]
    degraded_since: float | None = None
    total = 0.0
    for time, _old, grade in sorted(transitions, key=lambda t: t[0]):
        if grade > baseline and degraded_since is None:
            degraded_since = time
        elif grade <= baseline and degraded_since is not None:
            total += time - degraded_since
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


#: lifecycle flags of an in-band frame record
_REASSEMBLED, _DROPPED, _PACKET_LOST = 1, 2, 4


class SessionFrames:
    """One session's frames, keyed by stream and seq, in first-touch order.

    The in-band counterpart of :func:`correlate_frames` for one
    session: each update method mirrors one trace event kind (named in
    its docstring) and costs O(1), so a frame's record ends in the
    same terminal state as its replayed :class:`FrameSpan`, and
    records are numbered in the order the replayed spans are created
    (the order latencies are observed in). Records are columns — first
    send instant, first play instant, lifecycle flags — so a frame
    costs no object of its own.
    """

    __slots__ = ("sent_s", "played_s", "flags", "_index", "_by_media_time")

    def __init__(self) -> None:
        self.sent_s: list[float | None] = []
        self.played_s: list[float | None] = []
        self.flags = bytearray()
        #: per stream: seq -> record number
        self._index: dict[str, dict[int, int]] = {}
        #: per stream: RTP timestamp -> record last sent with it
        self._by_media_time: dict[str, dict[int, int]] = {}

    def _record(self, stream: str, seq: int) -> int:
        index = self._index.get(stream)
        if index is None:
            index = self._index[stream] = {}
            self._by_media_time[stream] = {}
        i = index.get(seq)
        if i is None:
            i = index[seq] = len(self.flags)
            self.sent_s.append(None)
            self.played_s.append(None)
            self.flags.append(0)
        return i

    def sent(self, stream: str, seq: int, media_time: int,
             now: float) -> None:
        """``rtp.send``: the sender packetized the frame.

        Sends create almost every record, so :meth:`_record` is
        inlined here (one call less per frame).
        """
        index = self._index.get(stream)
        if index is None:
            index = self._index[stream] = {}
            self._by_media_time[stream] = {}
        i = index.get(seq)
        if i is None:
            i = index[seq] = len(self.flags)
            self.sent_s.append(now)
            self.played_s.append(None)
            self.flags.append(0)
        elif self.sent_s[i] is None:
            self.sent_s[i] = now
        self._by_media_time[stream][media_time] = i

    def packet_dropped(self, stream: str, seq: int) -> None:
        """``link.drop``: a link dropped one of the frame's packets."""
        self.flags[self._record(stream, seq)] |= _PACKET_LOST

    def reassembled(self, stream: str, seq: int) -> None:
        """``rtp.frame``: the receiver completed the frame."""
        try:  # per frame: skip the call when the record exists
            i = self._index[stream][seq]
        except KeyError:
            i = self._record(stream, seq)
        self.flags[i] |= _REASSEMBLED

    def dropped(self, stream: str, seq: int) -> None:
        """``buffer.drop`` / ``playout.drop``: the client discarded it."""
        self.flags[self._record(stream, seq)] |= _DROPPED

    def dropped_media_time(self, stream: str, media_time: int) -> None:
        """``rtp.frame_drop``: reassembly gave up on a timestamp."""
        i = self._by_media_time.get(stream, {}).get(media_time)
        if i is not None:
            self.flags[i] |= _DROPPED

    def played(self, stream: str, seq: int, now: float) -> None:
        """``playout.frame``: the frame was presented (first time wins)."""
        try:
            i = self._index[stream][seq]
        except KeyError:
            i = self._record(stream, seq)
        if self.played_s[i] is None:
            self.played_s[i] = now

    def tally(self, qoe: SessionQoE, latency: Histogram) -> None:
        """Count each record's terminal state into ``qoe`` (the
        :attr:`FrameSpan.terminal` rules) and observe played latencies
        into ``latency``, in first-touch order."""
        played_n = dropped_n = lost_n = 0
        observe = latency.observe
        for sent, played, flags in zip(self.sent_s, self.played_s,
                                       self.flags):
            if played is not None:
                played_n += 1
                if sent is not None and played - sent >= 0:
                    observe(played - sent)
            elif flags & _DROPPED:
                dropped_n += 1
            elif (sent is not None and flags & _PACKET_LOST
                  and not flags & _REASSEMBLED):
                lost_n += 1
        qoe.frames_sent += len(self.flags)
        qoe.frames_played += played_n
        qoe.frames_dropped += dropped_n
        qoe.frames_lost += lost_n


def _score(qoe: SessionQoE, begin_s: float, end_s: float,
           first_play_s: float | None, gap_times: list[float],
           transitions: list[Transition], latency: Histogram) -> SessionQoE:
    """Finish ``qoe`` (frame accounting already tallied, played
    latencies in ``latency``) from one session's extracted facts."""
    qoe.duration_s = max(0.0, end_s - begin_s)
    if first_play_s is not None:
        qoe.startup_s = max(0.0, first_play_s - begin_s)
    qoe.stall_count, qoe.stall_time_s = _stalls(gap_times)
    qoe.degraded_time_s = _degraded_time(transitions, end_s)
    qoe.latency = latency.summary()
    qoe.score = _composite_score(qoe)
    return qoe


def score_inband(
    session: str,
    begin_s: float | None,
    end_s: float | None,
    first_play_s: float | None,
    gap_times: list[float],
    skew_violations: int,
    transitions: list[Transition],
    frames: SessionFrames | None,
) -> SessionQoE:
    """Score one session from in-band state (no trace).

    ``begin_s``/``end_s`` are the session span's edges (``None`` when
    the session never opened or never closed it), ``first_play_s``
    the first playout START/FRAME instant, ``gap_times`` every
    playout GAP instant, ``skew_violations`` the skew controllers'
    correction decisions and ``transitions`` the server QoS
    manager's grading decisions as ``(time, old, new)``.
    """
    begin = 0.0 if begin_s is None else begin_s
    end = begin if end_s is None else end_s
    qoe = SessionQoE(session=session, skew_violations=skew_violations)
    latency = Histogram(bounds=LATENCY_BOUNDS)
    if frames is not None:
        frames.tally(qoe, latency)
    return _score(qoe, begin, end, first_play_s, gap_times, transitions,
                  latency)


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
    first_old = grade_events[0].args.get("old", 0) if grade_events else 0
    transitions = [(e.time, e.args.get("old", 0), e.args.get("new", first_old))
                   for e in grade_events]
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
    return _score(qoe, begin_s, end_s, first_play_s, gap_times, transitions,
                  latency)


def score_sessions(
    events: list[TraceEvent],
) -> dict[str, SessionQoE]:
    """Score every session that a surviving trace event names.

    A ring-buffered recording may have shed a session's ``session``
    span begin; :func:`score_session` then falls back to the session's
    first and last surviving events for the span edges.
    """
    sessions = dict.fromkeys(e.session for e in events if e.session)
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

    Empty documents (results not built by the orchestrator) are
    skipped; the result is empty when none remain.
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
