"""Service-level telemetry: the operator's view of one run.

Per-session traces and QoE (PRs 2-3) answer "how did this viewer
do?"; a service operator instead watches the fleet: how many streams
each media server carries, how much egress leaves the origin versus
the edges, how often admission turns viewers away, and how fast
failures recover. The engine's one DES-clock sampler,
:class:`~repro.obs.timeseries.TimeSeriesSampler`, samples those series
on the *simulated* clock (so runs stay deterministic) and rolls them
up into a :class:`ServiceReport`.

The report's :meth:`ServiceReport.merge` is associative and
commutative — counters and byte totals add, peaks take the max,
histograms merge bucket-wise — which is the shard-merge contract a
future sharded population runner needs: run N shards anywhere, merge
their reports in any order, get the same fleet rollup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import Histogram, log_buckets

__all__ = ["ServerLoad", "ServiceReport", "SERVICE_SCHEMA",
           "SERVICE_SCHEMA_VERSION", "RECOVERY_BOUNDS"]

SERVICE_SCHEMA = "repro.service"
SERVICE_SCHEMA_VERSION = 1

#: shared bucket bounds for detection/recovery latency histograms —
#: a module constant so every shard buckets identically and merge()
#: never has to reconcile misaligned histograms
RECOVERY_BOUNDS = log_buckets(1e-3, 100.0, per_decade=9)


@dataclass(slots=True)
class ServerLoad:
    """Sampled concurrent-stream load of one media server."""

    region: str = "origin"
    samples: int = 0
    sum_streams: int = 0
    peak_streams: int = 0

    @property
    def mean_streams(self) -> float:
        return self.sum_streams / self.samples if self.samples else 0.0

    def merge(self, other: "ServerLoad") -> "ServerLoad":
        if self.region != other.region:
            raise ValueError(
                f"cannot merge loads across regions "
                f"({self.region!r} != {other.region!r})"
            )
        return ServerLoad(
            region=self.region,
            samples=self.samples + other.samples,
            sum_streams=self.sum_streams + other.sum_streams,
            peak_streams=max(self.peak_streams, other.peak_streams),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "region": self.region,
            "samples": self.samples,
            "sum_streams": self.sum_streams,
            "peak_streams": self.peak_streams,
            "mean_streams": self.mean_streams,
        }


def _merge_admission(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Sum two per-server admission stat dicts."""
    out: dict[str, Any] = {
        "requests": a["requests"] + b["requests"],
        "admitted": a["admitted"] + b["admitted"],
        "rejected": a["rejected"] + b["rejected"],
        "by_contract": {},
    }
    contracts = sorted(set(a["by_contract"]) | set(b["by_contract"]))
    for contract in contracts:
        adm_a, rej_a = a["by_contract"].get(contract, (0, 0))
        adm_b, rej_b = b["by_contract"].get(contract, (0, 0))
        out["by_contract"][contract] = [adm_a + adm_b, rej_a + rej_b]
    return out


def _hist_dict(hist: Histogram) -> dict[str, Any]:
    """Summary plus raw bucket counts (lossless for ``from_dict``)."""
    out: dict[str, Any] = dict(hist.summary())
    out["buckets"] = list(hist.bucket_counts)
    return out


def _hist_from_dict(doc: dict[str, Any]) -> Histogram:
    hist = Histogram(bounds=RECOVERY_BOUNDS)
    if not doc or not doc.get("count"):
        return hist
    buckets = list(doc.get("buckets", ()))
    if len(buckets) == len(RECOVERY_BOUNDS):
        hist.bucket_counts = [int(n) for n in buckets]
    hist.count = int(doc["count"])
    hist.total = float(doc["sum"])
    hist.min = float(doc["min"])
    hist.max = float(doc["max"])
    return hist


@dataclass(slots=True)
class ServiceReport:
    """Fleet-level rollup of one run (or a merge of shard runs)."""

    interval_s: float = 0.25
    duration_s: float = 0.0
    samples: int = 0
    #: media-server name -> sampled concurrent-stream load
    servers: dict[str, ServerLoad] = field(default_factory=dict)
    #: serving host -> {"bytes": egress bytes, "region": origin/edge}
    egress_by_host: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: multimedia-server name -> admission stats dict
    admission_by_server: dict[str, dict[str, Any]] = field(
        default_factory=dict)
    #: fault-recovery counters (zero on clean runs)
    detections: int = 0
    streams_failed_over: int = 0
    streams_lost: int = 0
    sessions_saved: int = 0
    detect_hist: Histogram = field(
        default_factory=lambda: Histogram(bounds=RECOVERY_BOUNDS))
    recover_hist: Histogram = field(
        default_factory=lambda: Histogram(bounds=RECOVERY_BOUNDS))

    # -- merging ------------------------------------------------------------
    def merge(self, other: "ServiceReport") -> "ServiceReport":
        """Combine two reports; associative and commutative.

        Counters, byte totals and sampled sums add; peaks and the
        run duration take the max (shards run in parallel wall
        time); histograms merge bucket-wise. Server/host/admission
        keys union, merging entries present on both sides.
        """
        merged = ServiceReport(
            interval_s=min(self.interval_s, other.interval_s),
            duration_s=max(self.duration_s, other.duration_s),
            samples=self.samples + other.samples,
            detections=self.detections + other.detections,
            streams_failed_over=(self.streams_failed_over
                                 + other.streams_failed_over),
            streams_lost=self.streams_lost + other.streams_lost,
            sessions_saved=self.sessions_saved + other.sessions_saved,
            detect_hist=self.detect_hist.merge(other.detect_hist),
            recover_hist=self.recover_hist.merge(other.recover_hist),
        )
        for name in sorted(set(self.servers) | set(other.servers)):
            a, b = self.servers.get(name), other.servers.get(name)
            merged.servers[name] = (a.merge(b) if a and b
                                    else (a or b))  # type: ignore[assignment]
        for host in sorted(set(self.egress_by_host)
                           | set(other.egress_by_host)):
            a_e = self.egress_by_host.get(host)
            b_e = other.egress_by_host.get(host)
            if a_e and b_e:
                if a_e["region"] != b_e["region"]:
                    raise ValueError(
                        f"host {host!r} changed region across shards"
                    )
                merged.egress_by_host[host] = {
                    "bytes": a_e["bytes"] + b_e["bytes"],
                    "region": a_e["region"],
                }
            else:
                src = a_e or b_e
                assert src is not None
                merged.egress_by_host[host] = dict(src)
        for name in sorted(set(self.admission_by_server)
                           | set(other.admission_by_server)):
            a_s = self.admission_by_server.get(name)
            b_s = other.admission_by_server.get(name)
            if a_s and b_s:
                merged.admission_by_server[name] = _merge_admission(a_s, b_s)
            else:
                src_s = a_s or b_s
                assert src_s is not None
                merged.admission_by_server[name] = {
                    "requests": src_s["requests"],
                    "admitted": src_s["admitted"],
                    "rejected": src_s["rejected"],
                    "by_contract": {c: list(v) for c, v
                                    in src_s["by_contract"].items()},
                }
        return merged

    # -- derived views ------------------------------------------------------
    def regions(self) -> dict[str, ServerLoad]:
        """Per-region load rollup of :attr:`servers`."""
        out: dict[str, ServerLoad] = {}
        for name in sorted(self.servers):
            load = self.servers[name]
            region = out.setdefault(load.region,
                                    ServerLoad(region=load.region))
            region.samples += load.samples
            region.sum_streams += load.sum_streams
            region.peak_streams = max(region.peak_streams,
                                      load.peak_streams)
        return out

    def egress_totals(self) -> dict[str, Any]:
        origin = edge = 0
        for host in sorted(self.egress_by_host):
            entry = self.egress_by_host[host]
            if entry["region"] == "origin":
                origin += int(entry["bytes"])
            else:
                edge += int(entry["bytes"])
        bps = (origin * 8.0 / self.duration_s) if self.duration_s else 0.0
        return {
            "origin_bytes": origin,
            "edge_bytes": edge,
            "total_bytes": origin + edge,
            "origin_egress_bps": bps,
            "by_host": {h: dict(self.egress_by_host[h])
                        for h in sorted(self.egress_by_host)},
        }

    def admission_totals(self) -> dict[str, Any]:
        requests = admitted = rejected = 0
        by_server: dict[str, Any] = {}
        for name in sorted(self.admission_by_server):
            stats = self.admission_by_server[name]
            requests += stats["requests"]
            admitted += stats["admitted"]
            rejected += stats["rejected"]
            by_server[name] = {
                "requests": stats["requests"],
                "admitted": stats["admitted"],
                "rejected": stats["rejected"],
                "by_contract": {c: list(stats["by_contract"][c])
                                for c in sorted(stats["by_contract"])},
            }
        return {
            "requests": requests,
            "admitted": admitted,
            "rejected": rejected,
            "blocking_prob": rejected / requests if requests else 0.0,
            "by_server": by_server,
        }

    def recovery_totals(self) -> dict[str, Any]:
        return {
            "detections": self.detections,
            "streams_failed_over": self.streams_failed_over,
            "streams_lost": self.streams_lost,
            "sessions_saved": self.sessions_saved,
            "time_to_detect_s": _hist_dict(self.detect_hist),
            "time_to_recover_s": _hist_dict(self.recover_hist),
        }

    # -- (de)serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON form (stable key order at every level)."""
        return {
            "schema": SERVICE_SCHEMA,
            "version": SERVICE_SCHEMA_VERSION,
            "interval_s": self.interval_s,
            "duration_s": self.duration_s,
            "samples": self.samples,
            "servers": {name: self.servers[name].to_dict()
                        for name in sorted(self.servers)},
            "regions": {region: load.to_dict()
                        for region, load in self.regions().items()},
            "egress": self.egress_totals(),
            "admission": self.admission_totals(),
            "recovery": self.recovery_totals(),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ServiceReport":
        """Rebuild a report from :meth:`to_dict` output (lossless)."""
        if doc.get("schema") != SERVICE_SCHEMA:
            raise ValueError(
                f"not a {SERVICE_SCHEMA} document: {doc.get('schema')!r}"
            )
        report = cls(
            interval_s=float(doc.get("interval_s", 0.25)),
            duration_s=float(doc.get("duration_s", 0.0)),
            samples=int(doc.get("samples", 0)),
        )
        for name, entry in doc.get("servers", {}).items():
            report.servers[name] = ServerLoad(
                region=entry["region"],
                samples=int(entry["samples"]),
                sum_streams=int(entry["sum_streams"]),
                peak_streams=int(entry["peak_streams"]),
            )
        egress = doc.get("egress", {})
        for host, entry in egress.get("by_host", {}).items():
            report.egress_by_host[host] = {
                "bytes": int(entry["bytes"]), "region": entry["region"],
            }
        admission = doc.get("admission", {})
        for name, stats in admission.get("by_server", {}).items():
            report.admission_by_server[name] = {
                "requests": int(stats["requests"]),
                "admitted": int(stats["admitted"]),
                "rejected": int(stats["rejected"]),
                "by_contract": {c: list(v) for c, v
                                in stats.get("by_contract", {}).items()},
            }
        recovery = doc.get("recovery", {})
        report.detections = int(recovery.get("detections", 0))
        report.streams_failed_over = int(
            recovery.get("streams_failed_over", 0))
        report.streams_lost = int(recovery.get("streams_lost", 0))
        report.sessions_saved = int(recovery.get("sessions_saved", 0))
        report.detect_hist = _hist_from_dict(
            recovery.get("time_to_detect_s", {}))
        report.recover_hist = _hist_from_dict(
            recovery.get("time_to_recover_s", {}))
        return report

