"""Concurrent playout processes — one per media stream.

The paper's playout algorithm (§3.1):

    for i = 0 to number of structures E_i
        create a playout thread
        wait until current relative time = t_i
        play incoming stream S_i in nominal rate for duration d_i

Each tick the process consults the buffer monitor (underflow →
duplicate, overflow → drop) and, for sync-group slaves, the skew
controller; a missing frame at its deadline is a *gap* (an intramedia
synchronization failure), after which media time advances at nominal
rate so late frames are discarded as stale.
"""

from __future__ import annotations

from repro.client.buffers import MediaBuffer
from repro.client.metrics import PlayoutEventKind, PlayoutEventLog
from repro.client.monitor import BufferAction, BufferMonitor
from repro.client.skew import SkewController
from repro.des import Event, Simulator
from repro.media.types import Frame
from repro.model.sync import PlayoutEntry

__all__ = ["PauseGate", "PlayoutProcess"]


class PauseGate:
    """Shared pause/resume switch for all playout processes."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._paused = False
        self._resume_event: Event | None = None

    @property
    def paused(self) -> bool:
        return self._paused

    def pause(self) -> None:
        if not self._paused:
            self._paused = True
            self._resume_event = self.sim.event()

    def resume(self) -> None:
        if self._paused:
            self._paused = False
            event, self._resume_event = self._resume_event, None
            assert event is not None
            event.succeed()

    def wait(self):
        """Yieldable event that triggers on resume (None if running)."""
        return self._resume_event


class PlayoutProcess:
    """Deadline-driven playout of one continuous stream."""

    def __init__(
        self,
        sim: Simulator,
        entry: PlayoutEntry,
        buffer: MediaBuffer,
        log: PlayoutEventLog,
        nominal_frame_interval_s: float,
        monitor: BufferMonitor | None = None,
        skew: SkewController | None = None,
        gate: PauseGate | None = None,
        start_offset_s: float = 0.0,
        max_consecutive_gaps: int | None = None,
        gap_policy: str = "advance",
    ) -> None:
        """``gap_policy`` selects what a missed deadline does:

        * ``"advance"`` — media time moves on at nominal rate; frames
          arriving late are stale and get discarded (deadline-driven,
          keeps total playout time nominal);
        * ``"stall"`` — media time holds until data arrives, so a
          starved stream falls behind its sync group and the skew
          controller's drop/duplicate actions (the paper's short-term
          recovery) are what re-locks the pair.
        """
        if nominal_frame_interval_s <= 0:
            raise ValueError("nominal_frame_interval_s must be positive")
        if gap_policy not in ("advance", "stall"):
            raise ValueError(f"unknown gap_policy {gap_policy!r}")
        if entry.duration is None:
            raise ValueError(
                f"stream {entry.stream_id}: playout requires a known duration"
            )
        self.sim = sim
        self.entry = entry
        self.buffer = buffer
        self.log = log
        self.interval_s = nominal_frame_interval_s
        self.monitor = monitor
        self.skew = skew
        self.gate = gate
        self.start_offset_s = start_offset_s
        self.max_consecutive_gaps = max_consecutive_gaps
        self.gap_policy = gap_policy
        self.played_s = 0.0  # presented media time within the stream
        self.finished = sim.event()
        self._is_slave = (
            skew is not None and entry.sync_group is not None
            and not entry.is_sync_master
        )
        self._is_master = (
            skew is not None and entry.sync_group is not None
            and entry.is_sync_master
        )
        self.process = sim.process(self._run(), name=f"playout:{entry.stream_id}")

    # -- helpers ----------------------------------------------------------
    def _record(self, kind: PlayoutEventKind, grade: int = 0,
                frame_seq: int | None = None, reason: str = "") -> None:
        self.log.record(self.sim.now, self.entry.stream_id, kind,
                        media_time_s=self.played_s, grade=grade,
                        frame_seq=frame_seq, reason=reason)

    def _report_position(self, active: bool = True) -> None:
        if self.skew is not None:
            self.skew.report_position(self.entry.stream_id, self.played_s,
                                      active=active)

    def _report_finished(self) -> None:
        self._report_position(active=False)
        if self.skew is not None:
            self.skew.report_finished(self.entry.stream_id)

    def _pop_fresh(self, next_ticks: int) -> Frame | None:
        """Pop the next non-stale frame; stale frames are discarded."""
        while True:
            head = self.buffer.peek()
            if head is None:
                return None
            if head.media_time < next_ticks:
                stale = self.buffer.drop_head()
                self._record(PlayoutEventKind.DROP,
                             frame_seq=stale.seq if stale else None,
                             reason="stale")
                continue
            return self.buffer.pop()

    # -- the playout loop ---------------------------------------------------
    def _run(self):
        sim = self.sim
        if self.start_offset_s > 0:
            yield sim.timeout(self.start_offset_s)
        duration = self.entry.duration
        assert duration is not None
        clock = self.buffer.clock_rate
        self._record(PlayoutEventKind.START)
        self._report_position()
        next_ticks = 0
        consecutive_gaps = 0
        while self.played_s < duration - 1e-9:
            if self.gate is not None and self.gate.paused:
                self._record(PlayoutEventKind.PAUSE)
                self._report_position(active=False)
                yield self.gate.wait()
                self._record(PlayoutEventKind.RESUME)
                self._report_position(active=True)

            action = BufferAction.NONE
            if self.monitor is not None:
                action = self.monitor.check(sim.now)
                # Near the end of the stream a draining buffer is
                # expected, not an anomaly: don't stretch the tail.
                if (action is BufferAction.DUPLICATE
                        and duration - self.played_s
                        <= self.buffer.time_window_s):
                    action = BufferAction.NONE
            if self._is_slave:
                decision = self.skew.decide(
                    self.entry.stream_id, sim.now, self.interval_s
                )
                if decision.action == "duplicate":
                    action = BufferAction.DUPLICATE
                elif decision.action == "drop":
                    # Catching up overrides any monitor stretching —
                    # the two mechanisms must not fight.
                    action = BufferAction.NONE
                    dropped = 0
                    for _ in range(decision.drop_count):
                        # Never shed the last buffered frame: playing
                        # it snaps the position to its timestamp, which
                        # realigns faster than a drop credit of one
                        # interval. When delivery is arrival-limited
                        # (one frame per tick, e.g. a failover resume),
                        # shedding the head would eat every fresh frame
                        # while the slave gains nothing on the master.
                        if len(self.buffer) <= 1:
                            break
                        shed = self.buffer.drop_head()
                        if shed is None:
                            break
                        dropped += 1
                        self._record(PlayoutEventKind.DROP,
                                     frame_seq=shed.seq, reason="skew")
                    next_ticks += dropped * int(round(self.interval_s * clock))
                    self.played_s = min(
                        duration, self.played_s + dropped * self.interval_s
                    )
                    self._report_position()
            elif action is BufferAction.DROP:
                # Overflow: shed one buffered frame this tick.
                shed = self.buffer.drop_head()
                if shed is not None:
                    self._record(PlayoutEventKind.DROP,
                                 frame_seq=shed.seq, reason="overflow")
                    next_ticks += int(round(self.interval_s * clock))
                    self.played_s = min(duration,
                                        self.played_s + self.interval_s)

            if action is BufferAction.DUPLICATE:
                # Hold position: replay the previous frame interval.
                self._record(PlayoutEventKind.DUPLICATE)
                self._report_position()
                yield sim.timeout(self.interval_s)
                continue

            frame = self._pop_fresh(next_ticks)
            if frame is None:
                self._record(PlayoutEventKind.GAP)
                consecutive_gaps += 1
                if (self.max_consecutive_gaps is not None
                        and consecutive_gaps > self.max_consecutive_gaps):
                    break
                advance = self.gap_policy == "advance"
                if not advance and self._is_slave:
                    # A slave already lagging its master must not hold
                    # position on missing data — skip the gap so the
                    # skew stays bounded (late frames become stale and
                    # are dropped, the paper's "drop frames" action).
                    # Once the master has finished there is nothing to
                    # wait for: a lost tail is skipped, not stalled on.
                    if self.skew.master_finished:
                        advance = True
                    else:
                        skew = self.skew.skew_of(self.entry.stream_id)
                        if (skew is not None
                                and skew < -self.skew.threshold_s):
                            advance = True
                if advance:
                    self.played_s = min(duration,
                                        self.played_s + self.interval_s)
                    next_ticks += int(round(self.interval_s * clock))
                self._report_position()
                yield sim.timeout(self.interval_s)
                continue
            consecutive_gaps = 0
            self._record(PlayoutEventKind.FRAME, grade=frame.grade,
                         frame_seq=frame.seq)
            frame_time = frame.duration / clock
            self.played_s = min(duration,
                                (frame.end_time) / clock)
            next_ticks = frame.end_time
            self._report_position()
            yield sim.timeout(frame_time)
        self._record(PlayoutEventKind.STOP)
        self._report_finished()
        if not self.finished.triggered:
            self.finished.succeed(self.played_s)

    def cancel(self, cause: str = "disabled") -> None:
        """Stop this playout (user disabled the media, §5) and mark it
        finished so the presentation as a whole can still complete."""
        if self.process.is_alive:
            self.process.interrupt(cause)
        self._report_finished()
        if not self.finished.triggered:
            self.finished.succeed(self.played_s)
