"""Per-layer metrics of one traced iteration.

Self times come from the :class:`~ledger.Ledger`; work counts come
from the traced engines and the result documents. Each metric's unit
is in :data:`PER_LAYER_UNITS`; ``BENCHMARK.json`` maps each one to
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

from typing import Any

from checks import frames_played, qoe_score_p50
from ledger import MEDIA_PROTOCOLS, UNATTRIBUTED, Ledger

#: layers whose self time is reported (the src/repro packages the
#: benchmark's workloads execute)
SELF_TIME_LAYERS = ("des", "net", "rtp", "server", "client", "media",
                    "service", "obs", "hml", "core", "shard")

PER_LAYER_UNITS: dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "des.events": "count",
    "des.ns_per_event": "ns",
    "des.events_per_frame": "count",
    "des.heap_peak": "count",
    "net.packet_hops": "count",
    "net.bytes": "bytes",
    "net.events_per_hop": "count",
    "net.queue_drops": "count",
    "net.loss_drops": "count",
    "rtp.packets_sent": "count",
    "rtp.packets_received": "count",
    "rtp.rtcp_reports": "count",
    "server.grading_decisions": "count",
    "server.origin_egress_bytes": "bytes",
    "client.frames_played": "count",
    "client.skew_drops": "count",
    "client.duplicates": "count",
    "client.gaps": "count",
    "service.protocol_bytes": "bytes",
    "service.retries": "count",
    "obs.trace_events": "count",
    "obs.qoe_replay_s": "s",
    "obs.sampler_ticks": "count",
    "obs.qoe_score_p50": "score",
    "hml.parse_s": "s",
    "core.build_s": "s",
    "core.collect_s": "s",
    "shard.cells": "count",
    "shard.worker_busy_s": "s",
    "shard.parallel_efficiency": "ratio",
    "shard.result_bytes": "bytes",
    "shard.merge_s": "s",
    "shard.retries": "count",
    "ledger.unattributed_s": "s",
    "ledger.coverage": "ratio",
    "ledger.traced_wall_s": "s",
    "ledger.untraced_wall_s": "s",
    "ledger.overhead_s": "s",
}


def _streams(docs: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return [s for d in docs for o in d["outcomes"]
            for s in o["result"].get("streams", {}).values()]


def _results(docs: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return [o["result"] for d in docs for o in d["outcomes"]]


def layer_row(led: Ledger, docs: list[dict[str, Any]],
              trace_events: int = 0) -> dict[str, float]:
    """Every per-layer metric except the ``shard.*`` and wall ones.

    ``docs`` are the traced population documents (one per engine),
    each with its ``service`` and ``timeseries`` reports.
    """
    links = [link.stats for eng in led.engines
             for link in eng.network.links.values()]
    hops = sum(s.tx_packets for s in links)
    frames = sum(frames_played(d) for d in docs)
    streams = _streams(docs)
    results = _results(docs)
    protocol_bytes = sum(
        n for eng in led.engines
        for proto, n in eng.network.tap.bytes_by_protocol.items()
        if proto not in MEDIA_PROTOCOLS)
    row = {f"{layer}.self_s": led.self_s(layer)
           for layer in SELF_TIME_LAYERS}
    row.update({
        "des.events": led.events,
        "des.ns_per_event": (led.self_s("des") * 1e9 / led.events
                             if led.events else 0.0),
        "des.events_per_frame": led.events / frames if frames else 0.0,
        "des.heap_peak": led.heap_peak,
        "net.packet_hops": hops,
        "net.bytes": sum(s.tx_bytes for s in links),
        "net.events_per_hop": (led.events_by_layer["net"] / hops
                               if hops else 0.0),
        "net.queue_drops": sum(s.queue_drops for s in links),
        "net.loss_drops": sum(s.loss_drops for s in links),
        "rtp.packets_sent": led.packets["RTP"],
        "rtp.packets_received": sum(s["packets_received"] for s in streams),
        "rtp.rtcp_reports": led.packets["RTCP"],
        "server.grading_decisions": sum(
            len(r.get("grading", {}).get("decisions", [])) for r in results),
        "server.origin_egress_bytes": sum(
            d.get("service", {}).get("egress", {}).get("origin_bytes", 0)
            for d in docs),
        "client.frames_played": frames,
        "client.skew_drops": sum(s["drops"] for s in streams),
        "client.duplicates": sum(s["duplicates"] for s in streams),
        "client.gaps": sum(s["gaps"] for s in streams),
        "service.protocol_bytes": protocol_bytes,
        "service.retries": sum(r.get("retries", 0) for r in results),
        "obs.trace_events": trace_events,
        "obs.qoe_replay_s": led.named_ns["obs.qoe_replay"] / 1e9,
        "obs.sampler_ticks": sum(
            d.get("service", {}).get("samples", 0)
            + d.get("timeseries", {}).get("ticks", 0) for d in docs),
        "obs.qoe_score_p50": qoe_score_p50(
            {"outcomes": [o for d in docs for o in d["outcomes"]]}),
        "hml.parse_s": led.named_ns["hml.parse"] / 1e9,
        "core.build_s": led.named_ns["core.build"] / 1e9,
        "core.collect_s": led.named_ns["core.collect"] / 1e9,
        "ledger.unattributed_s": led.run_ns[UNATTRIBUTED] / 1e9,
        "ledger.coverage": led.coverage(),
    })
    for key in ("shard.cells", "shard.worker_busy_s",
                "shard.parallel_efficiency", "shard.result_bytes",
                "shard.merge_s", "shard.retries"):
        row[key] = 0.0
    return row


def shard_row(it: Any, clock: Any, result_bytes: int) -> dict[str, float]:
    """Parent-side ``shard.*`` numbers of one supervised run."""
    res = it.sharded
    return {
        "shard.cells": res.cells_merged,
        "shard.worker_busy_s": res.cpu_wall_s,
        "shard.parallel_efficiency": (res.cpu_wall_s
                                      / (res.n_shards * it.wall_s)),
        "shard.result_bytes": result_bytes,
        "shard.merge_s": clock.last("shard.merge") - clock.last("shard.exit"),
        "shard.retries": sum(s.retries for s in res.shards),
    }
