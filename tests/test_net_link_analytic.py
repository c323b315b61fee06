"""The analytic drop-tail link against the process-based transmitter.

:class:`ProcessLink` below is the link as it was before it became
closed-form: one transmitter process per link draining a bounded
:class:`~repro.des.Store`, a serialization ``Timeout`` per packet and
a ``call_later`` for propagation (three kernel events per hop). It
lives here only as the reference oracle. Both links are driven with
the same randomized offers, Gilbert–Elliott loss and ``set_up`` flaps
and must agree exactly: per-packet arrival instants (as floats), the
drop kind of every packet, and :class:`LinkStats` at random instants.

Same-instant ties. The analytic link treats a packet whose service
ends at ``t`` as gone before anything else is asked of the link at
``t``: an offer at ``t`` sees it out of the waiting room, a stats read
at ``t`` counts it. The process link decides such ties by heap order,
so the driver below runs every outside action (offer, flap, stats
read) after two same-instant deferrals. That lets the process link's
service-end ``Timeout``, and a zero-delay propagation it schedules,
fire first; with that order the two links agree on exact ties too,
and the strategies produce plenty of them (round rates, sizes and
gaps, zero delays, simultaneous offers).

The second half pins the link to the Pollaczek–Khinchine M/D/1 mean
queueing delay.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.des import Simulator, Store
from repro.des.resources import QueueFullError
from repro.net.impairments import GilbertElliottLoss
from repro.net.link import Link, LinkStats
from repro.net.packet import Packet


class ProcessLink:
    """Reference oracle: the process-based drop-tail link."""

    def __init__(self, sim, src, dst, rate_bps, delay_s, queue_packets=100,
                 loss_model=None):
        self.sim = sim
        self.src, self.dst = src, dst
        self.rate_bps = float(rate_bps)
        self.delay_s = float(delay_s)
        self.queue = Store(sim, capacity=queue_packets)
        self.loss_model = loss_model
        self.up = True
        self.stats = LinkStats()
        self.on_arrival = None
        self.on_drop = None
        sim.process(self._transmitter(), name=f"link:{src}->{dst}")

    def set_up(self, up):
        self.up = up

    def _drop_down(self, pkt):
        self.stats.fault_drops += 1
        if self.on_drop is not None:
            self.on_drop(pkt, "drop-down")

    def enqueue(self, pkt):
        if not self.up:
            self._drop_down(pkt)
            return False
        try:
            self.queue.put_nowait(pkt)
            return True
        except QueueFullError:
            self.stats.queue_drops += 1
            if self.on_drop is not None:
                self.on_drop(pkt, "drop-queue")
            return False

    def _transmitter(self):
        while True:
            pkt = yield self.queue.get()
            ser = pkt.size_bytes * 8.0 / self.rate_bps
            yield self.sim.timeout(ser)
            self.stats.busy_time += ser
            self.stats.tx_packets += 1
            self.stats.tx_bytes += pkt.size_bytes
            self.sim.call_later(self.delay_s,
                                lambda p=pkt: self._propagated(p))

    def _propagated(self, pkt):
        if not self.up:
            self._drop_down(pkt)
            return
        if self.loss_model is not None and self.loss_model.is_lost():
            self.stats.loss_drops += 1
            if self.on_drop is not None:
                self.on_drop(pkt, "drop-loss")
            return
        if self.on_arrival is not None:
            pkt.hops += 1
            self.on_arrival(pkt)


def _after_link_activity(sim, when, action):
    """Run ``action()`` at ``when``, behind the link's own events there."""
    def hop(ev):
        if ev.value:
            sim.call_at(sim.now, hop, ev.value - 1)
        else:
            action()
    sim.call_at(when, hop, 2)


def _stats_row(stats):
    return (stats.tx_packets, stats.tx_bytes, stats.busy_time,
            stats.queue_drops, stats.loss_drops, stats.fault_drops)


def _drive(link_cls, sc):
    """Run one scenario on a fresh link; return everything observable."""
    sim = Simulator()
    loss = None
    if sc["loss"] is not None:
        p_gb, p_bg, loss_bad = sc["loss"]
        loss = GilbertElliottLoss(np.random.default_rng(sc["seed"]),
                                  p_gb=p_gb, p_bg=p_bg, loss_bad=loss_bad)
    link = link_cls(sim, "a", "b", sc["rate"], sc["delay"],
                    queue_packets=sc["queue"], loss_model=loss)
    log: list[tuple] = []
    link.on_arrival = lambda p: log.append((sim.now, p.seq, "arrive"))
    link.on_drop = lambda p, kind: log.append((sim.now, p.seq, kind))

    def backlog():
        """Packets in the waiting room (the one in service excluded)."""
        if isinstance(link, ProcessLink):
            return link.queue.level
        link.stats  # credits every finished packet
        return max(len(link._unfinished) - 1, 0)

    def offer(seq, size):
        pkt = Packet(src="a", dst="b", size_bytes=size, protocol="UDP",
                     flow_id="f", dst_port=1, seq=seq)
        log.append((sim.now, seq, "offer", link.enqueue(pkt), backlog()))

    def sample():
        log.append((sim.now, "stats", _stats_row(link.stats), backlog()))

    t = 0.0
    for seq, (gap, size) in enumerate(sc["offers"]):
        t += gap
        _after_link_activity(sim, t, lambda s=seq, z=size: offer(s, z))
    for when, up in sc["flaps"]:
        _after_link_activity(sim, when, lambda u=up: link.set_up(u))
    for when in sc["samples"]:
        _after_link_activity(sim, when, sample)
    sim.run()
    return log, _stats_row(link.stats)


_round_or_any = st.one_of(
    st.sampled_from([0.0, 0.001, 0.002, 0.004, 0.008]),
    st.floats(0.0, 0.01, allow_nan=False),
)


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 40))
    offers = draw(st.lists(
        st.tuples(_round_or_any, st.sampled_from([100, 500, 1000])
                  | st.integers(40, 1500)),
        min_size=n, max_size=n))
    horizon = sum(g for g, _ in offers) + 0.02
    instants = st.one_of(_round_or_any, st.floats(0.0, horizon))
    return {
        "rate": draw(st.sampled_from([1e6, 4e6, 8e6])
                     | st.floats(2e5, 2e7)),
        "delay": draw(st.sampled_from([0.0, 0.001, 0.004])
                      | st.floats(0.0, 0.02)),
        "queue": draw(st.integers(1, 6)),
        "offers": offers,
        "loss": draw(st.none() | st.tuples(
            st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
        "seed": draw(st.integers(0, 2 ** 16)),
        "flaps": draw(st.lists(st.tuples(instants, st.booleans()),
                               max_size=6)),
        "samples": draw(st.lists(instants, max_size=8)),
    }


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_analytic_link_matches_process_link(sc):
    reference, ref_final = _drive(ProcessLink, sc)
    analytic, final = _drive(Link, sc)
    assert analytic == reference
    assert final == ref_final


def test_one_kernel_event_per_hop():
    """An analytic hop is exactly one heap entry: the arrival."""
    sim = Simulator()
    link = Link(sim, "a", "b", rate_bps=1e6, delay_s=0.01)
    got = []
    link.on_arrival = got.append
    for seq in range(5):
        link.enqueue(Packet(src="a", dst="b", size_bytes=1000,
                            protocol="UDP", flow_id="f", dst_port=1,
                            seq=seq))
    assert len(sim._heap) == 5
    assert [cb.__func__ for _, _, ev in sim._heap
            for cb in ev.callbacks] == [Link._arrive] * 5
    steps = 0
    while sim._heap:
        sim.step()
        steps += 1
    assert steps == 5 and [p.seq for p in got] == list(range(5))
    assert link.stats.tx_packets == 5
    assert link.stats.busy_time == pytest.approx(0.04)


# -- M/D/1 oracle -------------------------------------------------------------
def _md1_waits(rho: float, n: int, seed: int) -> np.ndarray:
    """Queueing delays of ``n`` Poisson-arriving fixed-size packets."""
    size, rate = 1000, 8e6
    service = size * 8.0 / rate
    gaps = np.random.default_rng(seed).exponential(service / rho, n)
    offered = np.cumsum(gaps)
    sim = Simulator()
    link = Link(sim, "a", "b", rate_bps=rate, delay_s=0.0,
                queue_packets=n)
    waits = np.empty(n)
    link.on_arrival = lambda p: waits.__setitem__(
        p.seq, sim.now - p.created_at - service)

    def offer(ev):
        i = ev.value
        pkt = Packet(src="a", dst="b", size_bytes=size, protocol="UDP",
                     flow_id="f", dst_port=1, seq=i,
                     created_at=float(offered[i]))
        link.enqueue(pkt)
        if i + 1 < n:
            sim.call_at(float(offered[i + 1]), offer, i + 1)

    sim.call_at(float(offered[0]), offer, 0)
    sim.run()
    assert link.stats.queue_drops == 0 and link.stats.tx_packets == n
    return waits


def test_mean_queueing_delay_matches_pollaczek_khinchine():
    """Mean wait on one loaded link is M/D/1's ``rho*D / (2(1-rho))``.

    Tolerance: 40 batch means give the standard error of the mean
    (waits correlate, so packets are not independent samples); the
    measured mean must lie within 4 standard errors of the closed
    form, and the run must be long enough that 4 standard errors are
    under 10% of it. The seed is fixed, so the test is deterministic.
    """
    service = 1000 * 8.0 / 8e6
    for rho, n in ((0.3, 100_000), (0.6, 100_000), (0.8, 200_000)):
        waits = _md1_waits(rho, n, seed=int(rho * 100))[n // 20:]
        batches = waits[: len(waits) // 40 * 40].reshape(40, -1).mean(axis=1)
        stderr = batches.std(ddof=1) / math.sqrt(len(batches))
        expected = rho * service / (2.0 * (1.0 - rho))
        assert 4 * stderr < 0.10 * expected, (rho, stderr, expected)
        assert abs(waits.mean() - expected) < 4 * stderr, (
            rho, waits.mean(), expected, stderr)
