"""Packets and the protocol tap (packet log).

The tap counts every packet the network delivers, keyed by protocol
label — the raw evidence from which the Figure 5 (protocol stack)
reproduction derives which stream type traversed which stack. Per-packet
records are opt-in (``PacketTap.enabled_detail``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Packet", "TapRecord", "PacketTap"]

_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """A network-layer datagram.

    ``protocol`` is the stack label carried for accounting ("UDP",
    "TCP", "RTP", "RTCP", "SMTP", ...); ``flow_id`` identifies the
    application flow (one per media stream / control session);
    ``dst_port`` selects the handler bound at the destination node.
    """

    src: str
    dst: str
    size_bytes: int
    protocol: str
    flow_id: str
    dst_port: int
    payload: Any = None
    seq: int = 0
    created_at: float = 0.0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    hops: int = 0
    #: correlation keys for frame-lifecycle tracing: the session the
    #: packet belongs to ("" for anonymous traffic) and the media
    #: frame it carries a fragment of (-1 for non-frame packets)
    session: str = ""
    frame_seq: int = -1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")


@dataclass(frozen=True, slots=True)
class TapRecord:
    """One delivered (or dropped) packet, as seen by the tap."""

    time: float
    event: str  # "deliver" | "drop-queue" | "drop-loss" | "rx-discard"
    protocol: str
    flow_id: str
    src: str
    dst: str
    size_bytes: int
    seq: int


class PacketTap:
    """Accumulates per-protocol aggregates and, opt-in, per-packet records.

    ``bytes_by_protocol``, ``count_by_protocol`` and
    ``discards_by_node`` always count. One :class:`TapRecord` per
    delivery or drop is kept only when ``enabled_detail`` is set: the
    list grows with every packet, so it is off by default and
    ``records``, :meth:`delivered`, :meth:`drops` and
    :meth:`protocols_for_flow` see nothing until a caller opts in.
    """

    def __init__(self) -> None:
        self.records: list[TapRecord] = []
        self.bytes_by_protocol: dict[str, int] = {}
        self.count_by_protocol: dict[str, int] = {}
        #: packets delivered to a node but addressed to an unbound port
        self.discards_by_node: dict[str, int] = {}
        self.enabled_detail = False

    def record(self, time: float, event: str, pkt: Packet) -> None:
        if self.enabled_detail:
            self.records.append(
                TapRecord(
                    time=time,
                    event=event,
                    protocol=pkt.protocol,
                    flow_id=pkt.flow_id,
                    src=pkt.src,
                    dst=pkt.dst,
                    size_bytes=pkt.size_bytes,
                    seq=pkt.seq,
                )
            )
        if event == "deliver":
            self.bytes_by_protocol[pkt.protocol] = (
                self.bytes_by_protocol.get(pkt.protocol, 0) + pkt.size_bytes
            )
            self.count_by_protocol[pkt.protocol] = (
                self.count_by_protocol.get(pkt.protocol, 0) + 1
            )

    def record_discard(self, time: float, node_id: str, pkt: Packet) -> None:
        """An endpoint dropped a delivered packet: no handler on its port."""
        self.discards_by_node[node_id] = \
            self.discards_by_node.get(node_id, 0) + 1
        if self.enabled_detail:
            self.records.append(
                TapRecord(
                    time=time,
                    event="rx-discard",
                    protocol=pkt.protocol,
                    flow_id=pkt.flow_id,
                    src=pkt.src,
                    dst=pkt.dst,
                    size_bytes=pkt.size_bytes,
                    seq=pkt.seq,
                )
            )

    def rx_discarded(self, node_id: str | None = None) -> int:
        """Total unbound-port discards (optionally for one node)."""
        if node_id is not None:
            return self.discards_by_node.get(node_id, 0)
        return sum(self.discards_by_node.values())

    def protocols_for_flow(self, flow_id: str) -> set[str]:
        return {r.protocol for r in self.records if r.flow_id == flow_id}

    def delivered(self, flow_id: str | None = None) -> list[TapRecord]:
        return [
            r
            for r in self.records
            if r.event == "deliver" and (flow_id is None or r.flow_id == flow_id)
        ]

    def drops(self) -> list[TapRecord]:
        return [r for r in self.records if r.event.startswith("drop")]
