"""Service telemetry: Histogram.merge, ServiceReport, determinism."""

import itertools

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.faults.digest import canonical_json
from repro.faults.scenarios import run_chaos
from repro.net import cdn_stack
from repro.obs.metrics import Histogram, log_buckets
from repro.obs.service_metrics import ServerLoad, ServiceReport


# -- Histogram.merge (property-style) -----------------------------------------

SAMPLE_SETS = (
    [0.001, 0.5, 2.0, 40.0],
    [0.01, 0.01, 0.01],
    [],
    [100.0, 0.0005],
)


def _hist(values, bounds=None):
    h = Histogram(bounds=bounds) if bounds else Histogram()
    for v in values:
        h.observe(v)
    return h


@pytest.mark.parametrize("a,b", list(itertools.combinations(SAMPLE_SETS, 2)))
def test_histogram_merge_equals_joint_observation(a, b):
    merged = _hist(a).merge(_hist(b))
    joint = _hist(list(a) + list(b))
    assert merged.bucket_counts == joint.bucket_counts
    assert merged.count == joint.count
    assert merged.total == pytest.approx(joint.total)
    # sum/mean may differ in the last ulp (addition order), the
    # bucket-derived stats are exact
    ms, js = merged.summary(), joint.summary()
    assert ms.pop("sum") == pytest.approx(js.pop("sum"))
    assert ms.pop("mean") == pytest.approx(js.pop("mean"))
    assert ms == js


@pytest.mark.parametrize("a,b", list(itertools.combinations(SAMPLE_SETS, 2)))
def test_histogram_merge_commutes(a, b):
    ab = _hist(a).merge(_hist(b))
    ba = _hist(b).merge(_hist(a))
    assert ab.summary() == ba.summary()
    assert ab.bucket_counts == ba.bucket_counts


def test_histogram_merge_associative():
    a, b, c = (_hist(s) for s in SAMPLE_SETS[:3])
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.bucket_counts == right.bucket_counts
    assert left.summary() == right.summary()


def test_histogram_merge_rejects_misaligned_buckets():
    a = _hist([1.0], bounds=log_buckets(1e-3, 10.0))
    b = _hist([1.0], bounds=log_buckets(1e-3, 100.0))
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_merge_does_not_mutate_operands():
    a, b = _hist([1.0, 2.0]), _hist([3.0])
    before = (list(a.bucket_counts), a.count, list(b.bucket_counts))
    a.merge(b)
    assert (list(a.bucket_counts), a.count,
            list(b.bucket_counts)) == before


def test_histogram_merge_with_empty_is_identity():
    a, empty = _hist([0.5, 2.0, 40.0]), _hist([])
    for merged in (a.merge(empty), empty.merge(a)):
        assert merged.bucket_counts == a.bucket_counts
        assert merged.summary() == a.summary()
        assert merged.percentiles() == a.percentiles()


# -- Histogram.quantile / percentiles edge cases ------------------------------

def test_quantile_of_empty_histogram_is_zero():
    h = Histogram()
    assert h.quantile(0.5) == 0.0
    assert h.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_quantile_rejects_out_of_range():
    h = _hist([1.0])
    with pytest.raises(ValueError):
        h.quantile(-0.1)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_quantile_single_observation_is_exact_everywhere():
    h = _hist([0.7])
    for q in (0.0, 0.25, 0.5, 0.95, 1.0):
        assert h.quantile(q) == pytest.approx(0.7)


def test_quantile_single_bucket_clamps_to_observed_range():
    # Many observations landing in one bucket: interpolation stays
    # inside [min, max], exact at the extremes.
    h = _hist([0.42, 0.45, 0.48])
    assert h.quantile(0.0) >= h.min
    assert h.quantile(1.0) == pytest.approx(h.max)
    for q in (0.1, 0.5, 0.9):
        assert h.min <= h.quantile(q) <= h.max


def test_quantile_overflow_bucket_reports_observed_max():
    bounds = (1.0, float("inf"))
    h = _hist([50.0, 900.0], bounds=bounds)
    assert h.quantile(0.99) == pytest.approx(900.0)


def test_percentiles_custom_quantiles_keys():
    h = _hist([1.0, 2.0, 3.0])
    out = h.percentiles((0.5, 0.9))
    assert set(out) == {"p50", "p90"}


# -- ServiceReport: merge laws ------------------------------------------------

def _report(seed):
    run = run_chaos("crash", smoke=True, seed=seed)
    return ServiceReport.from_dict(run.artifact["service"])


def test_service_report_merge_commutes():
    a, b = _report(23), _report(31)
    assert canonical_json(a.merge(b).to_dict()) == \
        canonical_json(b.merge(a).to_dict())


def test_service_report_merge_associative():
    a, b, c = _report(23), _report(31), _report(47)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert canonical_json(left.to_dict()) == canonical_json(right.to_dict())


def test_service_report_three_way_merge_is_order_free():
    # Every shard arrival order yields the identical fleet rollup.
    shards = (_report(23), _report(31), _report(47))
    docs = set()
    for perm in itertools.permutations(shards):
        merged = perm[0].merge(perm[1]).merge(perm[2])
        docs.add(canonical_json(merged.to_dict()))
    assert len(docs) == 1


def test_service_report_merge_adds_counters_and_maxes_peaks():
    a, b = _report(23), _report(23)
    merged = a.merge(b)
    assert merged.samples == a.samples + b.samples
    assert merged.detections == a.detections + b.detections
    for name, load in merged.servers.items():
        assert load.sum_streams == (a.servers[name].sum_streams
                                    + b.servers[name].sum_streams)
        assert load.peak_streams == a.servers[name].peak_streams


def test_server_load_region_conflict_rejected():
    with pytest.raises(ValueError):
        ServerLoad(region="origin").merge(ServerLoad(region="east"))


def test_service_report_roundtrip_is_lossless():
    a = _report(23)
    again = ServiceReport.from_dict(a.to_dict())
    assert canonical_json(again.to_dict()) == canonical_json(a.to_dict())


# -- ServiceReport: acceptance ------------------------------------------------

def test_same_seed_byte_identical_service_report():
    a = run_chaos("crash", smoke=True).artifact["service"]
    b = run_chaos("crash", smoke=True).artifact["service"]
    assert canonical_json(a) == canonical_json(b)


def test_empty_plan_chaos_has_zero_fault_rollups():
    service = run_chaos("none", smoke=True).artifact["service"]
    recovery = service["recovery"]
    assert recovery["detections"] == 0
    assert recovery["streams_failed_over"] == 0
    assert recovery["streams_lost"] == 0
    assert recovery["sessions_saved"] == 0
    assert recovery["time_to_recover_s"]["count"] == 0
    assert service["admission"]["rejected"] == 0
    assert service["admission"]["blocking_prob"] == 0.0


def test_crash_chaos_reports_recovery_rollups():
    service = run_chaos("crash", smoke=True).artifact["service"]
    recovery = service["recovery"]
    assert recovery["detections"] >= 1
    assert recovery["streams_failed_over"] > 0
    assert recovery["time_to_recover_s"]["count"] == \
        recovery["streams_failed_over"]
    assert recovery["time_to_recover_s"]["p95"] >= \
        recovery["time_to_detect_s"]["p50"] > 0


# -- live monitor -------------------------------------------------------------

def _engine_with_monitor(**config):
    eng = ServiceEngine(EngineConfig(seed=5, **config))
    eng.add_server("srv1",
                   documents={"doc": (av_markup(2.0, False), "t")})
    eng.attach_service_monitor()
    return eng


def test_monitor_samples_concurrent_streams():
    eng = _engine_with_monitor()
    pop = eng.orchestrator.run_population(2, "srv1", "doc", stagger_s=0.3)
    service = pop.service
    assert service["samples"] > 0
    loads = service["servers"]
    assert loads["audsrv"]["peak_streams"] >= 1
    assert loads["vidsrv"]["peak_streams"] >= 1
    assert service["regions"]["origin"]["peak_streams"] >= 2
    assert service["egress"]["origin_bytes"] > 0
    assert service["egress"]["origin_egress_bps"] > 0
    assert service["admission"]["requests"] == 2
    assert service["admission"]["blocking_prob"] == 0.0


def test_monitor_sees_admission_blocking():
    # capacity fits one basic contract; the second viewer is refused
    eng = _engine_with_monitor(admission_capacity_bps=2e6)
    pop = eng.orchestrator.run_population(3, "srv1", "doc", stagger_s=0.2)
    service = pop.service
    assert service["admission"]["rejected"] > 0
    assert service["admission"]["blocking_prob"] > 0.0
    assert len(pop.completed()) < len(pop)


def test_monitor_absent_keeps_to_dict_shape():
    eng = ServiceEngine(EngineConfig(seed=5))
    eng.add_server("srv1",
                   documents={"doc": (av_markup(1.0, False), "t")})
    pop = eng.orchestrator.run_population(1, "srv1", "doc")
    assert pop.service == {}
    assert "service" not in pop.to_dict()


# -- one sampler, two documents -------------------------------------------------

def _population(layers, attach):
    """A small population whose engine attaches telemetry by ``attach``."""
    eng = ServiceEngine(EngineConfig(seed=5), layers=layers)
    eng.add_server("srv1",
                   documents={"doc": (av_markup(2.0, False), "t")})
    sampler = getattr(eng, attach)()
    assert eng.attach_service_monitor() is eng.attach_timeseries() \
        is sampler
    return eng.orchestrator.run_population(2, "srv1", "doc",
                                           stagger_s=0.3)


@pytest.mark.parametrize("run", [
    pytest.param(lambda: _population(None, "attach_service_monitor"),
                 id="star"),
    pytest.param(lambda: _population(
        cdn_stack(clients_per_region=1, replicate=True),
        "attach_timeseries"), id="cdn"),
    pytest.param(lambda: run_chaos("crash", smoke=True).population,
                 id="chaos-crash"),
    pytest.param(lambda: run_chaos("replica-crash", smoke=True).population,
                 id="chaos-replica-crash"),
])
def test_service_report_is_a_reduction_of_the_series(run):
    pop = run()
    service, series = pop.service, pop.timeseries
    assert service and series
    ticks = series["ticks"]
    assert ticks > 0
    assert service["samples"] == ticks
    assert service["servers"]
    for name, load in service["servers"].items():
        values = series["columns"][f"streams.{name}"]["values"]
        assert (load["samples"], load["sum_streams"],
                load["peak_streams"]) == (ticks, sum(values), max(values))
