"""State-based gossip replication: convergence under loss and partitions."""

import pytest
from oracles import flooded

from repro.algorithms import CCvWindowArray, GossipCCvWindowArray, merge_windows
from repro.core.operations import Invocation
from repro.runtime import DelayModel, Network, Simulator


def _setup(n=4, seed=0, loss=0.0, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, n, delay=DelayModel.uniform(0.2, 1.0), loss_rate=loss)
    obj = GossipCCvWindowArray(sim, net, None, streams=1, k=2, **kwargs)
    return sim, net, obj


class TestMergeWindows:
    def test_join_keeps_top_k(self):
        a = [(1, (1, 0)), (2, (2, 0))]
        b = [(3, (3, 1)), (4, (4, 1))]
        assert merge_windows(a, b, 2) == [(3, (3, 1)), (4, (4, 1))]

    def test_idempotent_commutative_associative(self):
        a = [(1, (1, 0)), (2, (2, 0))]
        b = [(2, (2, 0)), (3, (3, 1))]
        c = [(4, (1, 1)), (5, (5, 0))]
        k = 2
        assert merge_windows(a, a, k) == sorted(a, key=lambda cell: cell[1])[-k:]
        assert merge_windows(a, b, k) == merge_windows(b, a, k)
        left = merge_windows(merge_windows(a, b, k), c, k)
        right = merge_windows(a, merge_windows(b, c, k), k)
        assert left == right

    def test_dedupe_by_stamp(self):
        a = [(7, (3, 0))]
        assert merge_windows(a, a, 2) == [(7, (3, 0))]


class TestGossipConvergence:
    def test_converges_on_reliable_links(self):
        sim, net, obj = _setup(seed=1)
        for pid in range(4):
            obj.invoke(pid, Invocation("w", (0, 10 + pid)))
        obj.start_gossip(rounds=30)
        sim.run()
        assert obj.converged()

    def test_converges_despite_heavy_loss(self):
        """The semilattice + retry structure tolerates a 40%-lossy
        network with no repair protocol at all."""
        sim, net, obj = _setup(seed=2, loss=0.4)
        for pid in range(4):
            obj.invoke(pid, Invocation("w", (0, 20 + pid)))
        obj.start_gossip(rounds=200)
        sim.run()
        assert obj.converged()
        assert net.stats.lost > 0  # losses actually happened

    @staticmethod
    def _opbased_under_loss(cls=CCvWindowArray):
        """Ten lossy runs of op-based CCv: how many end diverged, and
        the repairs their digests drew."""
        diverged = repairs = 0
        for seed in range(10):
            sim = Simulator(seed=seed)
            net = Network(sim, 3, delay=DelayModel.constant(1.0), loss_rate=0.5)
            obj = cls(sim, net, None, streams=1, k=2)
            for pid in range(3):
                obj.invoke(pid, Invocation("w", (0, pid + 1)))
            sim.run()
            windows = {obj.window(pid, 0) for pid in range(3)}
            if len(windows) > 1:
                diverged += 1
            repairs += obj.broadcast.repairs_sent
        return diverged, repairs

    def test_opbased_ccv_over_the_flood_diverges_under_loss(self):
        """Relays are the reference flood's only redundancy: a write
        every copy and relay of which was lost stays lost."""
        diverged, repairs = self._opbased_under_loss(flooded(CCvWindowArray))
        assert diverged > 0 and repairs == 0

    def test_opbased_ccv_over_direct_sends_converges_under_loss(self):
        """Direct sends (the default) are repaired from heartbeat
        digests until every live peer holds every write."""
        diverged, repairs = self._opbased_under_loss()
        assert diverged == 0 and repairs > 0

    def test_heals_after_partition(self):
        sim, net, obj = _setup(seed=3)
        net.partition({0, 1}, {2, 3})
        for pid in range(4):
            obj.invoke(pid, Invocation("w", (0, 30 + pid)))
        obj.start_gossip(rounds=20)
        sim.run()
        assert not obj.converged()  # the two sides cannot agree yet
        net.heal()
        obj.start_gossip(rounds=30)
        sim.run()
        assert obj.converged()

    def test_reads_and_writes_wait_free(self):
        sim, net, obj = _setup(seed=4)
        out = obj.invoke(0, Invocation("w", (0, 5)))
        window = obj.invoke(0, Invocation("r", (0,)))
        assert window == (0, 5)

    def test_crashed_replicas_excluded_from_convergence(self):
        sim, net, obj = _setup(seed=5)
        for pid in range(4):
            obj.invoke(pid, Invocation("w", (0, pid)))
        net.crash(3)
        obj.start_gossip(rounds=40)
        sim.run()
        assert obj.converged()  # among the live replicas

    def test_unwritten_stream_keeps_k_slots_after_gossip(self):
        """The k initial cells have distinct stamps, so a merge keeps
        them all: a stream nobody wrote reads as k defaults, not one."""
        sim = Simulator(seed=0)
        net = Network(sim, 3, delay=DelayModel.constant(1.0))
        obj = GossipCCvWindowArray(sim, net, None, streams=2, k=2)
        obj.invoke(0, Invocation("w", (0, 7)))
        obj.start_gossip(rounds=3)
        sim.run()
        for pid in range(3):
            assert obj.invoke(pid, Invocation("r", (1,))) == (0, 0)
            assert obj.invoke(pid, Invocation("r", (0,))) == (0, 7)
