"""Merge laws for sharded population results.

Two layers, with different algebraic strength:

* **Population documents** (outcome lists + integer metric counts)
  merge exactly: outcomes concatenate and re-sort by global session
  index, counts add. Integer addition and sorted union are
  associative and commutative with :func:`empty_population_doc` as
  identity — property-tested over arbitrary splits and orders.

* **Telemetry** (ServiceReport, TimeSeries) merges are mathematically
  associative but sum floats, and float addition is not bit-exact
  under re-association. The final merge therefore always folds cell
  documents in **canonical order** (sorted by cell index), never
  incrementally per shard — so any permutation of any partition of
  the cells produces byte-identical merged telemetry, which is what
  makes the population digest shard-count-invariant.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "empty_population_doc",
    "session_index",
    "merge_population_docs",
    "merge_cell_docs",
    "merged_digest",
    "qoe_summary_of",
]


def empty_population_doc() -> dict[str, Any]:
    """The merge identity: no outcomes, no counts."""
    return {"outcomes": [], "metrics": {}}


def session_index(outcome: dict[str, Any]) -> int:
    """Global session index from an outcome doc (``sess-17`` -> 17)."""
    sid = str(outcome.get("session_id", ""))
    try:
        return int(sid.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        raise ValueError(f"outcome has no global session id: {sid!r}") \
            from None


def merge_population_docs(a: dict[str, Any],
                          b: dict[str, Any]) -> dict[str, Any]:
    """Exact merge of two population docs (see module docstring)."""
    from repro.obs.metrics import MetricsRegistry

    outcomes = sorted(
        list(a.get("outcomes", [])) + list(b.get("outcomes", [])),
        key=session_index,
    )
    seen: set[int] = set()
    for o in outcomes:
        idx = session_index(o)
        if idx in seen:
            raise ValueError(
                f"duplicate session index {idx} in population merge")
        seen.add(idx)
    return {
        "outcomes": outcomes,
        "metrics": MetricsRegistry.merge_counts(
            [a.get("metrics", {}), b.get("metrics", {})]),
    }


def merge_cell_docs(cell_docs: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold cell documents into one population doc, canonically.

    Cells are sorted by index before folding, so the result is
    invariant under any permutation (or shard-partitioning) of the
    input — including the float-summing telemetry merges.
    """
    if not cell_docs:
        raise ValueError("merge needs at least one cell document")
    docs = sorted(cell_docs, key=lambda d: int(d["cell"]))
    seen_cells: set[int] = set()
    for d in docs:
        c = int(d["cell"])
        if c in seen_cells:
            raise ValueError(f"duplicate cell {c} in merge")
        seen_cells.add(c)

    pop = empty_population_doc()
    for d in docs:
        pop = merge_population_docs(pop, d["population"])

    merged: dict[str, Any] = dict(pop)
    service_docs = [d["service"] for d in docs if d.get("service")]
    if service_docs:
        from repro.obs.service_metrics import ServiceReport

        report = ServiceReport.from_dict(service_docs[0])
        for doc in service_docs[1:]:
            report = report.merge(ServiceReport.from_dict(doc))
        merged["service"] = report.to_dict()
    ts_docs = [d["timeseries"] for d in docs if d.get("timeseries")]
    if ts_docs:
        from repro.obs.timeseries import TimeSeries

        merged["timeseries"] = TimeSeries.merge_all(
            TimeSeries.from_dict(doc) for doc in ts_docs
        ).to_dict()
    return merged


def merged_digest(merged: dict[str, Any]) -> str:
    """Digest of a merged population doc (wall-clock-free fields)."""
    from repro.faults.digest import population_digest

    return population_digest({
        key: merged[key]
        for key in ("outcomes", "metrics", "service", "timeseries")
        if key in merged
    })


def qoe_summary_of(merged: dict[str, Any]) -> dict[str, Any]:
    """Population QoE rollup over a merged doc's outcome QoE dicts.

    Shares :func:`~repro.obs.qoe.qoe_summary_of_dicts` with
    :meth:`PopulationResult.qoe_summary`, so a sharded run reports
    the same percentiles a monolithic run would. Empty when the
    outcomes carry no QoE (untraced cells).
    """
    from repro.obs.qoe import qoe_summary_of_dicts

    return qoe_summary_of_dicts(
        outcome.get("result", {}).get("qoe")
        for outcome in merged.get("outcomes", []))
