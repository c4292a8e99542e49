"""Per-process broadcast endpoints: the peer view against the old tables.

Before the endpoints owned their state, the simulator answered the two
resync-verification questions by reading every process's tables:

- the *cutoff* was ``tuple(_next_id)``, the broadcasts each origin had
  issued;
- "does a live peer still hold a message the target has not seen" was a
  scan of every live peer's retained log.

An endpoint now answers both from its peer view (frontier rows + spills;
aliased to the real ones when the peer is hosted beside it).  The
property below stops seeded runs at arbitrary instants — mid-flood
(``oracles.flooding``) or mid-fan-out, with
loss-made spills, a crashed process and GC-pruned logs (soundly pruned
or, under the chaos sentinel, not) — and checks that
the view-based answers are exactly the table-based ones, for every
process as the target and for cutoffs snapshotted at earlier instants.
"""

import random

import pytest
from oracles import flooding

from repro.chaos.sentinels import plant
from repro.runtime import (
    CausalBroadcast,
    DelayModel,
    Network,
    ReliableBroadcast,
    RuntimeMonitor,
    Simulator,
)


def _issued(service, n):
    """The old ``tuple(_next_id)``: broadcasts issued per origin, read
    off each origin's own seen-set."""
    return tuple(
        sum(1 for mid in service.seen_ids(origin) if mid[0] == origin)
        for origin in range(n)
    )


def _log_scan_behind(service, net, target, cutoff, n):
    """The old ``_catchup_missing``: scan every live peer's log."""
    seen = service.seen_ids(target)
    return any(
        mid[1] < cutoff[mid[0]] and mid not in seen
        for helper in range(n)
        if helper != target and not net.is_crashed(helper)
        for mid in (m["id"] for m in service.retained_log(helper))
    )


def _random_run(seed):
    plan = random.Random(seed * 7919 + 5)
    n = plan.choice((3, 4, 6))
    sim = Simulator(seed=seed)
    net = Network(sim, n, delay=DelayModel.uniform(0.2, 4.0))
    cls = plan.choice((ReliableBroadcast, CausalBroadcast))
    if plan.random() < 0.7:
        cls = flooding(cls)
    gc_interval = plan.choice((4, 16, 64))
    # a third of the runs sweep unsoundly (the chaos sentinel): logs get
    # pruned of messages a crashed process lacks and the stability
    # frontier regresses at its recovery — the answers must still agree
    unsound = plan.random() < 0.33
    service = (plant(cls, "gc-frontier") if unsound else cls)(net)
    service.GC_INTERVAL = gc_interval
    service.monitor = RuntimeMonitor(n, sim=sim)
    for pid in range(n):
        service.endpoint(pid, lambda origin, payload: None)
    for i in range(plan.randrange(30, 90)):
        sim.schedule(
            plan.uniform(0.0, 30.0), service.broadcast, plan.randrange(n), i
        )
    # loss makes holes (spill above the frontier); a crash freezes a row.
    # Unsound runs go lossless, so that the wrongly pruned message is the
    # recovered process's only hole and the two answers cannot agree by
    # accident
    t_loss = plan.uniform(0.0, 15.0)
    if not unsound:
        sim.schedule(t_loss, net.set_loss_rate, plan.uniform(0.1, 0.5))
    sim.schedule(t_loss + plan.uniform(2.0, 10.0), net.set_loss_rate, 0.0)
    victim = plan.randrange(n)
    t_crash = plan.uniform(1.0, 15.0)
    sim.schedule(t_crash, net.crash, victim)
    if plan.random() < 0.6:
        t_back = t_crash + plan.uniform(2.0, 12.0)
        sim.schedule(t_back, net.recover, victim)
        sim.schedule(t_back + 0.1, service.resync, victim)
    # five instants mid-run, then quiescence
    stops = sorted(plan.uniform(0.5, 40.0) for _ in range(5)) + [None]
    return plan, n, sim, net, service, stops, unsound


SEEDS = range(25)


def _check(seed):
    """Run one seeded schedule, asserting at every stop; returns whether
    it reached (a spill, a pruned log)."""
    plan, n, sim, net, service, stops, unsound = _random_run(seed)
    cutoffs = []
    saw_spill = False
    for stop in stops:
        sim.run(until=stop)
        issued = _issued(service, n)
        cutoffs.append(issued)
        for pid in range(n):
            endpoint = service.endpoints[pid]
            assert endpoint.peers.cutoff() == issued
            saw_spill = saw_spill or bool(endpoint.spill)
            for cutoff in cutoffs:
                assert endpoint._behind(cutoff) == _log_scan_behind(
                    service, net, pid, cutoff, n
                ), (seed, stop, pid, cutoff)
    if not unsound:
        assert service.monitor.ok, service.monitor.summary()
    return saw_spill, service.gc_pruned > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_view_answers_what_the_tables_answered(seed):
    _check(seed)


def test_the_seeds_reach_spills_and_pruned_logs():
    reached = [_check(seed) for seed in SEEDS]
    assert sum(spill for spill, _ in reached) >= 5
    assert sum(prune for _, prune in reached) >= 5
    assert any(spill and prune for spill, prune in reached)


def test_the_simulator_hosts_every_endpoint_and_aliases_their_rows():
    sim = Simulator(seed=1)
    net = Network(sim, 4)
    service = CausalBroadcast(net)
    assert sorted(service.endpoints) == [0, 1, 2, 3]
    for endpoint in service.endpoints.values():
        assert not endpoint.peers.remote
        for pid, peer in service.endpoints.items():
            assert endpoint.peers.rows[pid] is peer.frontier
            assert endpoint.peers.spills[pid] is peer.spill
