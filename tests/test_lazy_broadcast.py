"""The push/lazy-push broadcast family (PR 8).

Covers the transport end to end: the deterministic per-seed relay
subset, full delivery + dedup + causal order over the hybrid overlay,
advertisement batching (batch-size flush, deadline flush, piggybacking
on pull traffic), the supervised pull path (grace, timeout + backoff,
holder failover, explicit pull-miss on pruned bodies, stranding flagged
to the runtime monitor), duplicate tolerance of the pull protocol,
registry integration (the lazy family rides beside the eager classes,
never under the bit-identity baseline), and the eager-vs-lazy
equivalence property over randomized fault schedules.
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.chaos import make_spec, random_fault_events, run_chaos_trial
from repro.chaos.sentinels import plant
from repro.runtime import (
    DelayModel,
    LazyCausalBroadcast,
    LazyReliableBroadcast,
    Network,
    RuntimeMonitor,
    Simulator,
)
from repro.runtime.broadcast import _LazyTransport
from repro.scenarios import (
    SCALE_SCENARIOS,
    Scenario,
    ScenarioSpec,
    get_scenario,
    scenario_names,
)
from repro.scenarios.matrix import (
    ALGORITHMS,
    SCALE_TIER_ALGORITHMS,
    algorithm_names,
    default_algorithms,
    run_matrix,
)

relay_subset = _LazyTransport.relay_subset

#: the eager-vs-lazy cells of the retired ``bench_runtime.py --fanout
#: --smoke --baseline`` gate (values carried over, not re-recorded)
FANOUT_GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "goldens" / "runtime.json").read_text()
)["fanout"]


def _seen_sets(service):
    """Per-replica set of seen message ids (frontier + spill)."""
    return [frozenset(service.seen_ids(pid)) for pid in range(service.n)]


def _rig(cls=LazyReliableBroadcast, n=6, seed=0, delay=1.0, **kw):
    """A bare service harness: endpoints record (origin, payload) per
    replica, a runtime monitor is attached."""
    sim = Simulator(seed=seed)
    net = Network(sim, n, delay=DelayModel.constant(delay))
    svc = cls(net, **kw)
    svc.monitor = RuntimeMonitor(n, sim=sim)
    delivered = [[] for _ in range(n)]
    endpoints = [
        svc.endpoint(
            pid,
            lambda origin, payload, me=pid: delivered[me].append(
                (origin, payload)
            ),
        )
        for pid in range(n)
    ]
    return sim, net, svc, endpoints, delivered


# ----------------------------------------------------------------------
# The relay subset
# ----------------------------------------------------------------------
class TestRelaySubset:
    def test_deterministic(self):
        assert relay_subset(3, 32, 7) == relay_subset(3, 32, 7)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 12, 32, 64])
    @pytest.mark.parametrize("seed", [0, 1, 5, 99])
    def test_well_formed(self, n, seed):
        for pid in range(n):
            subset = relay_subset(pid, n, seed)
            assert len(subset) == len(set(subset))
            assert pid not in subset
            assert all(0 <= q < n for q in subset)
            # the fixed ring offset keeps the push overlay connected
            assert (pid + 1) % n in subset
            # out-degree ~ log2(n), never the full flood
            assert len(subset) <= max(1, (n - 1).bit_length())

    def test_log_fanout_at_scale(self):
        assert len(relay_subset(0, 32, 0)) == 5
        assert len(relay_subset(0, 64, 0)) == 6

    def test_seed_rotates_the_overlay(self):
        assert relay_subset(0, 32, 0) != relay_subset(0, 32, 5)

    def test_degenerate_sizes(self):
        assert relay_subset(0, 1, 3) == ()
        assert relay_subset(0, 2, 3) == (1,)
        assert relay_subset(1, 2, 3) == (0,)


# ----------------------------------------------------------------------
# Full delivery over the hybrid overlay
# ----------------------------------------------------------------------
class TestLazyDelivery:
    @pytest.mark.parametrize("cls", [LazyReliableBroadcast, LazyCausalBroadcast])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_everyone_delivers_everything_exactly_once(self, cls, n):
        sim, net, svc, eps, delivered = _rig(cls, n=n, seed=2)
        expected = set()
        for pid in range(n):
            for i in range(5):
                eps[pid].broadcast(("m", pid, i))
                expected.add((pid, ("m", pid, i)))
        sim.run()
        for pid in range(n):
            assert set(delivered[pid]) == expected
            assert len(delivered[pid]) == len(expected)  # dedup
            assert svc.missing_count(pid) == 0
        assert svc.monitor.ok
        assert _seen_sets(svc) == [frozenset(
            {(p, s) for p in range(n) for s in range(5)}
        )] * n

    def test_fewer_messages_than_the_eager_flood(self):
        n = 16
        sim, net, svc, eps, _ = _rig(n=n, seed=0)
        for pid in range(n):
            for i in range(8):
                eps[pid].broadcast((pid, i))
        sim.run()
        broadcasts = svc.broadcasts_issued()
        eager_msgs = broadcasts * (n - 1) * (n - 1)  # flood: n-1 relays each
        assert net.stats.sent < eager_msgs / 2
        assert net.stats.suppressed_relays > 0

    def test_causal_order_preserved_per_origin(self):
        n = 8
        sim, net, svc, eps, delivered = _rig(LazyCausalBroadcast, n=n, seed=4)
        for i in range(6):
            for pid in range(n):
                eps[pid].broadcast((pid, i))
        sim.run()
        for pid in range(n):
            for origin in range(n):
                seqs = [i for o, (_, i) in delivered[pid] if o == origin]
                assert seqs == sorted(seqs)  # FIFO per origin (⊆ causal)
        assert svc.monitor.ok


# ----------------------------------------------------------------------
# Advertisement batching
# ----------------------------------------------------------------------
class TestAdvBatching:
    def test_full_batch_flushes_immediately(self):
        n = 6
        sim, net, svc, eps, _ = _rig(n=n, seed=0)
        lazy = len(eps[0].lazy_peers)
        assert lazy > 0
        for i in range(svc.ADV_BATCH):
            eps[0].broadcast(("m", i))
        # the batch filled synchronously: one adv per lazy peer, no timer
        assert svc.adv_sent == lazy
        assert eps[0].adv_log == []

    def test_short_batch_flushes_on_deadline(self):
        sim, net, svc, eps, delivered = _rig(n=6, seed=0)
        eps[0].broadcast("solo")
        assert svc.adv_sent == 0  # one pending id: waiting for the timer
        sim.run(until=svc.ADV_FLUSH_DELAY + 0.01)
        assert svc.adv_sent == len(eps[0].lazy_peers)
        sim.run()
        assert all(("solo" in [p for _, p in row]) for row in delivered)

    def test_piggyback_rides_on_protocol_messages(self):
        sim, net, svc, eps, _ = _rig(n=6, seed=0)
        eps[0].broadcast("x")
        (lazy_peer,) = [q for q in eps[0].lazy_peers][:1]
        message = {"kind": "pull-reply", "body": None}
        eps[0]._attach_adv(lazy_peer, message)
        assert message["adv"] == ((0, 0),)
        # the cursor advanced: the deadline flush skips this peer
        eps[0]._flush_adv()
        assert all(
            cur == 1 for cur in eps[0].adv_cursor.values()
        )

    def test_push_peers_never_get_advertisements(self):
        sim, net, svc, eps, _ = _rig(n=6, seed=0)
        eps[0].broadcast("x")
        push_peer = eps[0].push_peers[0]
        message = {"kind": "pull", "mid": (0, 0)}
        eps[0]._attach_adv(push_peer, message)
        assert "adv" not in message


# ----------------------------------------------------------------------
# The pull path: grace, timeout, failover, pruned bodies, stranding
# ----------------------------------------------------------------------
def _pull_rig(n=4, seed=0, cls=LazyReliableBroadcast):
    """flood=False keeps receivers from relaying pushed bodies onward,
    so the lazy peers of the origin can *only* learn the body by
    pulling — the pull path in isolation."""
    sim, net, svc, eps, delivered = _rig(cls, n=n, seed=seed, flood=False)
    push = set(eps[0].push_peers)
    lazy = [q for q in range(1, n) if q not in push]
    assert lazy, "seed/n must leave the origin at least one lazy peer"
    return sim, net, svc, eps, delivered, lazy


class TestPullPath:
    def test_advertised_body_is_pulled(self):
        sim, net, svc, eps, delivered, lazy = _pull_rig()
        eps[0].broadcast("payload")
        sim.run()
        for pid in lazy:
            assert (0, "payload") in delivered[pid]
            assert svc.missing_count(pid) == 0
        assert svc.pulls_sent >= len(lazy)
        assert svc.pull_replies >= len(lazy)
        assert net.stats.pulled == svc.pulls_sent
        assert svc.monitor.ok

    def test_pull_waits_out_the_grace_period(self):
        sim, net, svc, eps, delivered, lazy = _pull_rig()
        eps[0].broadcast("patience")
        # adv lands at ADV_FLUSH_DELAY + link delay; no pull before the
        # grace period on top of that
        sim.run(until=svc.ADV_FLUSH_DELAY + 1.0 + svc.PULL_GRACE - 0.1)
        assert svc.pulls_sent == 0
        sim.run()
        assert svc.pulls_sent >= len(lazy)

    def test_crashed_holder_fails_over(self):
        sim, net, svc, eps, delivered, lazy = _pull_rig()
        eps[0].broadcast("survivor")
        sim.run(until=4.0)  # adv delivered, pull not yet fired
        assert all(svc.missing_count(pid) == 1 for pid in lazy)
        net.crash(0)  # the only known holder goes down
        sim.run()
        for pid in lazy:
            # failover found a push peer that holds the body
            assert (0, "survivor") in delivered[pid]
            assert svc.missing_count(pid) == 0
        assert svc.monitor.ok

    def test_pruned_body_answers_pull_miss_then_fails_over(self):
        sim, net, svc, eps, delivered, lazy = _pull_rig()
        eps[0].broadcast("pruned")
        sim.run(until=4.0)
        # simulate the stability GC having pruned the body index: every
        # holder now answers pull-miss instead of timing the puller out
        holders = [ep for ep in eps if (0, 0) in ep.bodies]
        body = [ep.bodies.pop((0, 0)) for ep in holders][0]
        sim.run(until=svc.ADV_FLUSH_DELAY + 1.0 + svc.PULL_GRACE + 3.0)
        assert svc.pull_misses >= 1
        assert all((0, "pruned") not in delivered[pid] for pid in lazy)
        # the index recovers (a holder re-learns the body): the already
        # scheduled re-pull completes without further advertisements
        for ep in holders:
            ep.bodies[(0, 0)] = body
        sim.run()
        for pid in lazy:
            assert (0, "pruned") in delivered[pid]
            assert svc.missing_count(pid) == 0

    def test_exhausted_pulls_flag_the_monitor(self):
        # holders drop every pull request
        sim, net, svc, eps, delivered, lazy = _pull_rig(
            cls=plant(LazyReliableBroadcast, "pull-starve")
        )
        eps[0].broadcast("stranded")
        sim.run()
        assert svc.pulls_stranded >= len(lazy)
        assert not svc.monitor.ok
        kinds = {v.kind for v in svc.monitor.violations}
        assert kinds == {"pull-stranded"}
        for pid in lazy:
            assert (0, "stranded") not in delivered[pid]
            assert svc.missing_count(pid) == 0  # gave up, entry dropped

    def test_duplicate_pull_replies_deliver_once(self):
        sim, net, svc, eps, delivered, lazy = _pull_rig(seed=1)
        net.set_duplicate_rate(1.0)  # every message copied, replies too
        for i in range(3):
            eps[0].broadcast(("d", i))
        sim.run()
        for pid in range(4):
            assert len(delivered[pid]) == 3  # dedup absorbed the copies
        assert net.stats.duplicated > 0
        assert svc.monitor.ok

    def test_crashed_puller_abandons_its_pulls(self):
        sim, net, svc, eps, delivered, lazy = _pull_rig()
        eps[0].broadcast("late")
        sim.run(until=4.0)
        victim = lazy[0]
        net.crash(victim)
        sim.run()
        assert svc.missing_count(victim) == 0  # no zombie timers
        assert svc.monitor.ok


# ----------------------------------------------------------------------
# Registry integration
# ----------------------------------------------------------------------
class TestRegistryIntegration:
    def test_lazy_family_registered_but_not_default(self):
        assert "lww-lazy" in ALGORITHMS
        assert "ccv-lazy" in ALGORITHMS
        # the default sweep is the bit-identity baseline: lazy cells ride
        # beside it, never under it
        assert "lww-lazy" not in algorithm_names()
        assert "ccv-lazy" not in algorithm_names()

    def test_scale_tier_grouping(self):
        assert set(SCALE_TIER_ALGORITHMS) == set(SCALE_SCENARIOS)
        for name in ("scale-n8-hotkey", "scale-n12-hotkey"):
            assert default_algorithms(name) == ("lww", "gossip")
        for name in ("scale-n32-hotkey", "scale-n64-hotkey"):
            assert default_algorithms(name) == ("lww-lazy", "ccv-lazy")
        # a default scenario runs the default sweep's algorithms
        assert default_algorithms("churn") == tuple(algorithm_names())

    def test_fanout_tier_scenarios_registered(self):
        assert get_scenario("scale-n32-hotkey").n == 32
        assert get_scenario("scale-n64-hotkey").n == 64
        assert "scale-n32-hotkey" not in scenario_names()
        assert "scale-n32-hotkey" in scenario_names(include_scale=True)

    def test_lazy_cell_through_the_matrix(self):
        report = run_matrix(
            scenarios=["partition-during-writes"],
            algorithms=["ccv-lazy"],
            seeds=1,
            jobs=1,
        )
        (cell,) = report.cells
        assert cell.ok is True
        assert cell.network["sent"] > 0
        assert cell.network["suppressed_relays"] > 0

    def test_eager_cells_do_not_touch_lazy_counters(self):
        report = run_matrix(
            scenarios=["partition-during-writes"],
            algorithms=["ccv-fig5"],
            seeds=1,
            jobs=1,
        )
        (cell,) = report.cells
        assert cell.ok is True
        assert cell.network["suppressed_relays"] == 0
        assert cell.network["pulled"] == 0


# ----------------------------------------------------------------------
# The equivalence property: eager and lazy see the same world
# ----------------------------------------------------------------------
class TestEagerLazyEquivalence:
    """Satellite 3: over randomized fault schedules (loss, partitions,
    crash storms, flapping, duplication, reorder — with repair sweeps),
    the lazy transport delivers exactly the eager flood's per-replica
    message sets, both families converge, the runtime monitors stay
    clean, and the streaming CCv monitor finds no bad pattern."""

    SCHEDULES = 32

    @pytest.mark.parametrize("schedule_seed", range(SCHEDULES))
    def test_same_delivery_sets_and_clean_monitors(self, schedule_seed):
        from repro.criteria.streaming_monitor import replay_history

        rng = random.Random(schedule_seed)
        faults = random_fault_events(rng, 6)
        spec = make_spec(f"prop-{schedule_seed}", 6, 5, faults, repairs=True)
        run_seed = 1000 + schedule_seed
        outcomes = {}
        seen = {}
        for algo in ("ccv-fig5", "ccv-lazy"):
            outcome = run_chaos_trial(
                spec, algo, run_seed, "none", check_criterion=False
            )
            # convergence + runtime monitors, via the chaos predicate
            assert not outcome.failed, (algo, outcome.failures)
            outcomes[algo] = outcome
            seen[algo] = _seen_sets(outcome.result.algorithm.broadcast)
        assert seen["ccv-fig5"] == seen["ccv-lazy"]
        # the streaming bad-pattern monitor finds no CCv violation in
        # the lazy run's history
        scenario = Scenario(spec)
        verdicts = replay_history(
            outcomes["ccv-lazy"].result.history,
            scenario.adt(),
            criteria=("CCV",),
        )
        assert verdicts["CCV"].ok is not False

    @pytest.mark.parametrize(
        "golden", FANOUT_GOLDENS, ids=lambda g: g["spec"]["name"]
    )
    def test_dense_fanout_matches_goldens(self, golden):
        """One dense hot-key workload under the eager flood and the
        lazy-push transport: complete and equal delivered-id sets,
        convergence, clean monitors, message counts and delivered
        digests as recorded, and at least 4x fewer messages per
        broadcast at n >= 32 — the tier the lazy family exists for."""
        spec = ScenarioSpec.from_dict(golden["spec"])
        seen, sent = {}, {}
        for algo in ("ccv-fig5", "ccv-lazy"):
            entry = ALGORITHMS[algo]
            result = Scenario(spec).run(
                entry.cls, seed=golden["seed"],
                **entry.kwargs(spec.streams, spec.k),
            )
            service = result.algorithm.broadcast
            seen[algo] = _seen_sets(service)
            sent[algo] = result.network_stats.sent
            assert result.algorithm.converged(), algo
            assert result.monitor.ok, (algo, result.monitor.violations)
            assert not any(
                service.pending_messages(pid) for pid in range(spec.n)
            ), algo
            assert all(
                len(mids) == service.broadcasts_issued()
                for mids in seen[algo]
            ), algo
            assert {
                "broadcasts": service.broadcasts_issued(),
                "messages_sent": result.network_stats.sent,
                "delivered_digest": hashlib.sha256(
                    repr([sorted(mids) for mids in seen[algo]]).encode()
                ).hexdigest(),
            } == golden[algo], algo
            if algo == "ccv-lazy":  # no advertised body still to pull
                assert not any(
                    service.missing_count(pid) for pid in range(spec.n)
                )
        assert seen["ccv-fig5"] == seen["ccv-lazy"]
        if spec.n >= 32:
            assert sent["ccv-fig5"] >= 4 * sent["ccv-lazy"]
