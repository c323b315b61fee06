"""Point-to-point links: finite rate, propagation delay, drop-tail queue.

Queueing delay and overflow loss — the "network's load conditions and
probabilistic behavior" the paper's buffering layer exists to absorb —
emerge here rather than being injected as closed-form noise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.des import Event, Simulator
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.impairments import GilbertElliottLoss

__all__ = ["Link", "LinkStats"]


@dataclass(slots=True)
class LinkStats:
    """Counters a link maintains for experiment reporting."""

    tx_packets: int = 0
    tx_bytes: int = 0
    queue_drops: int = 0
    loss_drops: int = 0
    #: packets discarded because the link was administratively down
    #: (fault injection), at ingress or while in flight
    fault_drops: int = 0
    busy_time: float = 0.0

    def utilisation(self, elapsed: float) -> float:
        return 0.0 if elapsed <= 0 else self.busy_time / elapsed


class Link:
    """Unidirectional link ``src -> dst``: an analytic drop-tail FIFO.

    The transmitter is closed-form, not a process. A packet offered at
    ``now`` starts service at ``start = max(now, busy_until)``, leaves
    the wire at ``end = start + size * 8 / rate_bps`` and reaches the
    far end at ``end + delay_s``, where ``on_arrival`` (wired by the
    :class:`~repro.net.topology.Network` to the next hop) receives it.
    ``enqueue`` schedules that arrival with :meth:`Simulator.call_at`,
    so each hop costs one kernel event. Random loss (e.g. a noisy
    last-mile) is an optional Gilbert–Elliott process applied on
    arrival.

    ``queue_packets`` bounds the waiting room; the packet in service
    is not counted. A packet whose service ends at ``now`` has left
    before anything else is asked of the link at ``now``. Transmit
    counters are credited at service end, lazily: reading
    :attr:`stats` adds every packet with ``end <= now``.
    """

    def __init__(
        self,
        sim: Simulator,
        src: str,
        dst: str,
        rate_bps: float,
        delay_s: float,
        queue_packets: int = 100,
        loss_model: "GilbertElliottLoss | None" = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive, got {rate_bps}")
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        if queue_packets <= 0:
            raise ValueError(f"queue_packets must be positive, got {queue_packets}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = float(rate_bps)
        self.delay_s = float(delay_s)
        self.queue_packets = queue_packets
        self.loss_model = loss_model
        #: administrative state; a downed link drops everything offered
        #: to it and everything still propagating when it went down
        self.up = True
        self.busy_until = 0.0
        #: (end, serialization, bytes) of accepted packets not yet
        #: credited, in service order
        self._unfinished: deque[tuple[float, float, int]] = deque()
        self._stats = LinkStats()
        self.on_arrival: Callable[[Packet], None] | None = None
        self.on_drop: Callable[[Packet, str], None] | None = None

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    @property
    def stats(self) -> LinkStats:
        self._credit(self.sim._now)
        return self._stats

    def serialization_delay(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.rate_bps

    def _credit(self, now: float) -> None:
        """Count every packet whose service has ended by ``now``."""
        unfinished = self._unfinished
        st = self._stats
        while unfinished and unfinished[0][0] <= now:
            _, ser, size = unfinished.popleft()
            st.busy_time += ser
            st.tx_packets += 1
            st.tx_bytes += size

    # -- fault injection ---------------------------------------------------
    def set_up(self, up: bool) -> None:
        """Administratively raise or cut the link (fault injection)."""
        if up == self.up:
            return
        self.up = up
        if self.sim._tracing:
            self.sim._tracer.emit(self.sim.now, "fault.link", self.name,
                                  state="up" if up else "down")

    def _drop_down(self, pkt: Packet) -> None:
        self._stats.fault_drops += 1
        if self.sim._tracing:
            self.sim._tracer.emit(self.sim.now, "link.drop", self.name,
                                  reason="down", seq=pkt.seq,
                                  flow=pkt.flow_id, session=pkt.session,
                                  frame=pkt.frame_seq)
        if self.on_drop is not None:
            self.on_drop(pkt, "drop-down")

    # -- ingress ---------------------------------------------------------
    def enqueue(self, pkt: Packet) -> bool:
        """Offer a packet; returns False (and counts a drop) if full."""
        if not self.up:
            self._drop_down(pkt)
            return False
        sim = self.sim
        now = sim._now
        unfinished = self._unfinished
        if unfinished and unfinished[0][0] <= now:
            self._credit(now)
        if len(unfinished) > self.queue_packets:
            self._stats.queue_drops += 1
            if sim._tracing:
                sim._tracer.emit(now, "link.drop", self.name,
                                 reason="queue", seq=pkt.seq,
                                 flow=pkt.flow_id, session=pkt.session,
                                 frame=pkt.frame_seq)
            if self.on_drop is not None:
                self.on_drop(pkt, "drop-queue")
            return False
        ser = self.serialization_delay(pkt.size_bytes)
        busy_until = self.busy_until
        end = (now if now > busy_until else busy_until) + ser
        self.busy_until = end
        unfinished.append((end, ser, pkt.size_bytes))
        sim.call_at(end + self.delay_s, self._arrive, pkt)
        if sim._tracing_detail:
            sim._tracer.emit(now, "link.enqueue", self.name,
                             depth=len(unfinished) - 1,
                             flow=pkt.flow_id, seq=pkt.seq,
                             session=pkt.session, frame=pkt.frame_seq)
        return True

    # -- egress ------------------------------------------------------------
    def _arrive(self, event: Event) -> None:
        self._propagated(event._value)

    def _propagated(self, pkt: Packet) -> None:
        if not self.up:
            self._drop_down(pkt)
            return
        if self.loss_model is not None and (
            self.loss_model.is_lost(flow=pkt.flow_id, seq=pkt.seq,
                                    session=pkt.session, frame=pkt.frame_seq)
            if self.sim._tracing_detail
            else self.loss_model.is_lost()
        ):
            self._stats.loss_drops += 1
            if self.sim._tracing:
                self.sim._tracer.emit(self.sim.now, "link.drop", self.name,
                                      reason="loss", seq=pkt.seq,
                                      flow=pkt.flow_id,
                                      session=pkt.session,
                                      frame=pkt.frame_seq)
            if self.on_drop is not None:
                self.on_drop(pkt, "drop-loss")
            return
        if self.on_arrival is not None:
            pkt.hops += 1
            self.on_arrival(pkt)
