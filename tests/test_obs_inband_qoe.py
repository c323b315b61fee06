"""In-band QoE against trace replay: the differential gate.

Every :class:`~repro.core.results.SessionResult` carries a QoE dict
computed in band, from state the run keeps anyway (no tracer). Trace
replay — :func:`repro.obs.qoe.score_sessions` over a full recording —
stays as the debugging view and is the oracle here: for every session
of every covered run, the in-band dict must serialize (``sort_keys``)
byte-identically to the replayed one.

Coverage: reduced shapes of the benchmark workloads (clean star
population, hot CDN with shared flows, sharded cells clean and lossy),
the lossy bench scenario, all six chaos smokes, hand-built edge cases
(ATM cell loss, a session left open at the horizon) and a hypothesis
sweep over seed, Gilbert–Elliott loss, stagger and client count.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.obs import tracer as tracer_module
from repro.obs.bench import SCENARIOS
from repro.obs.qoe import SessionFrames, score_inband, score_sessions
from repro.obs.tracer import RecordingTracer


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _assert_replay_equal(outcomes, events) -> int:
    """Each outcome's QoE equals the replayed score of its session;
    returns the frames scored."""
    replay = score_sessions(list(events))
    assert len(replay) == len(outcomes)
    frames = 0
    for outcome in outcomes:
        qoe = outcome.result.qoe
        assert _canon(qoe) == \
            _canon(replay[outcome.session_id].to_dict()), outcome.session_id
        frames += qoe["frames_sent"]
    return frames


@pytest.fixture
def recorded(monkeypatch) -> list[RecordingTracer]:
    """Every RecordingTracer a run builds for itself, in order."""
    tracers: list[RecordingTracer] = []

    class Capturing(RecordingTracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracers.append(self)

    monkeypatch.setattr(tracer_module, "RecordingTracer", Capturing)
    return tracers


def _population(n, duration_s=2.0, *, seed=11, stagger_s=0.4,
                config=None, topology="star", images=True, traced=True):
    tracer = RecordingTracer() if traced else None
    layers = None
    if topology == "cdn":
        from repro.net import cdn_stack

        layers = cdn_stack(clients_per_region=max(1, n // 2))
    eng = ServiceEngine(EngineConfig(seed=seed, **(config or {})),
                        tracer=tracer, layers=layers)
    eng.add_server("srv1",
                   documents={"doc": (av_markup(duration_s, images), "t")})
    pop = eng.orchestrator.run_population(n, "srv1", "doc",
                                          stagger_s=stagger_s)
    assert not eng.network.session_frames  # every ledger retired
    return pop, tracer


def test_clean_star_population_matches_replay():
    pop, tracer = _population(6)
    assert _assert_replay_equal(pop.outcomes, tracer.events) > 0
    untraced, _ = _population(6, traced=False)
    assert [o.result.qoe for o in untraced.outcomes] == \
        [o.result.qoe for o in pop.outcomes]


def test_hot_cdn_shared_flows_match_replay():
    pop, tracer = _population(
        8, stagger_s=0.0, topology="cdn", images=False,
        config={"shared_flows": True, "admission_capacity_bps": 400e6})
    _assert_replay_equal(pop.outcomes, tracer.events)


def test_lossy_bench_scenario_matches_replay():
    config = SCENARIOS["population_lossy"].config
    pop, tracer = _population(6, config=config)
    _assert_replay_equal(pop.outcomes, tracer.events)
    qoe = pop.qoe_summary()
    assert qoe["frames_lost"] + qoe["frames_dropped"] > 0


@pytest.mark.parametrize("config", [
    {"admission_capacity_bps": 400e6},
    {"admission_capacity_bps": 400e6, "loss_p_gb": 0.05, "loss_bad": 0.3},
], ids=["shard_qoe", "shard_lossy_qoe"])
def test_untraced_shard_cell_matches_replay_of_traced_cell(
        monkeypatch, config):
    """``run_cell`` runs untraced; the same cell run traced replays to
    the QoE the untraced cell reported, and is otherwise identical."""
    from repro.shard.plan import ShardWorkload
    from repro.shard.worker import run_cell

    workload = ShardWorkload(markup=av_markup(2.0, True), stagger_s=0.4,
                             config=config)
    untraced = run_cell(workload, 1, 4, 8, 99)

    tracers: list[RecordingTracer] = []
    init = ServiceEngine.__init__

    def traced_init(self, config=None, *args, **kwargs):
        kwargs["tracer"] = RecordingTracer()
        tracers.append(kwargs["tracer"])
        init(self, config, *args, **kwargs)

    monkeypatch.setattr(ServiceEngine, "__init__", traced_init)
    traced = run_cell(workload, 1, 4, 8, 99)
    replay = score_sessions(tracers[0].events)
    outcomes = untraced["population"]["outcomes"]
    assert [o["session_id"] for o in outcomes] == \
        ["sess-5", "sess-6", "sess-7", "sess-8"]
    for j, outcome in enumerate(outcomes):
        qoe = dict(outcome["result"]["qoe"], session=f"sess-{j + 1}")
        assert _canon(qoe) == _canon(replay[f"sess-{j + 1}"].to_dict())
    for mine, theirs in zip(outcomes, traced["population"]["outcomes"]):
        theirs = dict(theirs, result=dict(theirs["result"], metrics={}))
        assert mine == theirs
    assert untraced["events"] == traced["events"] > 0


@pytest.mark.parametrize("name", ["none", "crash", "flap", "partition",
                                  "combo", "replica-crash"])
def test_chaos_smoke_matches_replay(recorded, name):
    from repro.faults.scenarios import run_chaos

    run = run_chaos(name, smoke=True, trace=True)
    _assert_replay_equal(run.population.outcomes, recorded[0].events)


def test_session_left_open_at_the_horizon_is_closed_for_both_views(
        recorded):
    """A session the run never finished is closed at collection
    (outcome "unfinished"), so both views measure the same span."""
    from repro.faults.scenarios import run_chaos

    run = run_chaos("combo", smoke=True, trace=True, retry=False,
                    recovery=False)
    events = recorded[0].events
    unfinished = [e.session for e in events
                  if e.kind == "session" and e.phase == "E"
                  and e.args.get("outcome") == "unfinished"]
    assert unfinished
    _assert_replay_equal(run.population.outcomes, events)
    for outcome in run.population.outcomes:
        if outcome.session_id in unfinished:
            assert not outcome.completed
            assert outcome.result.qoe["duration_s"] > 1.0


def test_atm_cell_loss_is_a_traced_frame_loss():
    """An ATM link's cell loss drops the packet like any link loss:
    it is traced as ``link.drop`` and reaches the in-band ledger, so
    both views call the frame lost rather than pending."""
    from repro.des import Simulator
    from repro.media.types import Frame, FrameKind
    from repro.net.impairments import GilbertElliottLoss
    from repro.net.topology import Network
    from repro.rtp.session import RtpSender

    sim = Simulator()
    tracer = RecordingTracer()
    sim.set_tracer(tracer)
    net = Network(sim)
    for node in ("srv", "cli"):
        net.add_node(node)
    loss = GilbertElliottLoss(np.random.default_rng(0), p_gb=1.0,
                              p_bg=0.0, loss_good=1.0, loss_bad=1.0)
    net.add_link("srv", "cli", 10e6, 0.001, loss_model=loss, atm=True)
    frames = net.session_frames["s1"] = SessionFrames()
    sender = RtpSender(net, "srv", 5000, "cli", 6000, ssrc=1,
                       payload_type=96, clock_rate=90_000,
                       stream_id="video", session="s1")
    tracer.span_begin(0.0, "session", "s1", session="s1")
    sender.send_frame(Frame("video", seq=0, media_time=0, duration=3600,
                            size_bytes=3000, kind=FrameKind.I))
    sim.run()
    tracer.span_end(sim.now, "session", "s1", session="s1")
    drops = [e for e in tracer.events if e.kind == "link.drop"]
    assert drops and all(e.args["frame"] == 0 for e in drops)
    replayed = score_sessions(tracer.events)["s1"]
    inband = score_inband("s1", 0.0, sim.now, None, [], 0, [], frames)
    assert replayed.frames_lost == inband.frames_lost == 1
    assert _canon(inband.to_dict()) == _canon(replayed.to_dict())


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000),
       p_gb=st.sampled_from([0.0, 0.02, 0.08]),
       loss_bad=st.sampled_from([0.2, 0.5]),
       stagger_s=st.sampled_from([0.0, 0.15, 0.5]),
       clients=st.integers(1, 4))
def test_inband_equals_replay_over_random_populations(
        seed, p_gb, loss_bad, stagger_s, clients):
    config = {"loss_p_gb": p_gb, "loss_bad": loss_bad} if p_gb else {}
    pop, tracer = _population(clients, 1.5, seed=seed,
                              stagger_s=stagger_s, config=config)
    _assert_replay_equal(pop.outcomes, tracer.events)


def test_heavy_loss_grading_and_skew_match_replay():
    """Several grading decisions and skew drops per session."""
    pop, tracer = _population(4, 4.0, config={"loss_p_gb": 0.1,
                                              "loss_bad": 0.5})
    assert all(len(o.result.grading_decisions) > 1 for o in pop.outcomes)
    assert any(e.kind == "skew.correct" and e.args["action"] == "drop"
               for e in tracer.events)
    _assert_replay_equal(pop.outcomes, tracer.events)


#: the frame lifecycle edges a ledger and a trace both record
_EDGES = ("send", "link_drop", "reassembled", "buffer_drop",
          "playout_drop", "played", "frame_drop")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_EDGES),
                          st.sampled_from(["A", "V"]),
                          st.integers(0, 2)),
                max_size=30))
@example([("send", "A", 0), ("played", "A", 0), ("played", "A", 0)])
@example([("send", "V", 1), ("send", "V", 1), ("played", "V", 1)])
@example([("send", "V", 1), ("link_drop", "V", 1), ("frame_drop", "V", 1),
          ("played", "V", 1)])
@example([("send", "A", 0), ("send", "A", 2), ("frame_drop", "A", 0)])
@example([("send", "V", 0), ("link_drop", "V", 0), ("reassembled", "V", 0)])
def test_frame_ledger_mirrors_correlated_spans(ops):
    """Any sequence of lifecycle edges — retransmits, plays after
    drops, repeated plays, give-ups by timestamp — leaves each ledger
    record in its replayed span's state, in span order, and scores
    the same from the ledger as from the replayed spans."""
    from repro.obs import TraceEvent, correlate_frames
    from repro.obs.qoe import _DROPPED, _PACKET_LOST, _REASSEMBLED

    events = [TraceEvent(0.0, "session", "s", phase="B", session="s")]
    frames = SessionFrames()
    for i, (edge, stream, seq) in enumerate(ops):
        t = 0.1 * (i + 1)
        media_time = 1000 * (seq % 2)  # seqs 0 and 2 share a timestamp
        args: dict = {"frame": seq}
        name = stream
        if edge == "send":
            kind = "rtp.send"
            args.update(media_time=media_time, packets=1)
            frames.sent(stream, seq, media_time, t)
        elif edge == "link_drop":
            kind, name = "link.drop", "link"
            args["flow"] = stream
            frames.packet_dropped(stream, seq)
        elif edge == "reassembled":
            kind = "rtp.frame"
            frames.reassembled(stream, seq)
        elif edge in ("buffer_drop", "playout_drop"):
            kind = "buffer.drop" if edge == "buffer_drop" else "playout.drop"
            frames.dropped(stream, seq)
        elif edge == "played":
            kind = "playout.frame"
            frames.played(stream, seq, t)
        else:
            kind = "rtp.frame_drop"
            args = {"media_time": media_time}
            frames.dropped_media_time(stream, media_time)
        events.append(TraceEvent(t, kind, name, session="s", args=args))
    end = 0.1 * (len(ops) + 1)
    events.append(TraceEvent(end, "session", "s", phase="E", session="s"))

    spans = correlate_frames(events).values()
    assert [(s.sent_s, s.played_s, s.reassembled_s is not None,
             s.dropped_s is not None, s.packets_dropped > 0)
            for s in spans] == \
        [(sent, played, bool(flags & _REASSEMBLED), bool(flags & _DROPPED),
          bool(flags & _PACKET_LOST))
         for sent, played, flags in zip(frames.sent_s, frames.played_s,
                                        frames.flags)]
    first_play = min((e.time for e in events
                      if e.kind == "playout.frame"), default=None)
    inband = score_inband("s", 0.0, end, first_play, [], 0, [], frames)
    assert _canon(inband.to_dict()) == \
        _canon(score_sessions(events)["s"].to_dict())
