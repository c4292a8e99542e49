"""The chaos plane (PR 6): extended fault vocabulary, graceful
degradation, runtime invariant monitors and failing-schedule
minimisation.

Covers the four layers end to end: network-level chaos faults
(duplication, reorder bursts, blocked links, flapping, crash storms),
spec-parse-time fault validation and JSON round trips, supervised
resync (timeout + backoff + helper failover) with the stranded-replica
regression both ways, duplicate tolerance including duplicates of
GC-pruned messages, the monitors' violation detectors, ddmin, and the
seeded chaos driver with sentinel-bug injection.
"""

import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import flooded_chaos_trial, stability_frontier

from repro.chaos import (
    cleanup_events,
    ddmin,
    event_end,
    make_spec,
    random_fault_events,
    replay_file,
    run_chaos,
    run_chaos_trial,
    trial_fails,
)
from repro.chaos.sentinels import plant
from repro.runtime import (
    CausalBroadcast,
    DelayModel,
    FifoBroadcast,
    Network,
    ReliableBroadcast,
    RuntimeMonitor,
    Simulator,
    TotalOrderBroadcast,
)
from repro.scenarios import (
    ALGORITHMS,
    CHAOS_SCENARIOS,
    FaultEvent,
    FaultSchedule,
    Scenario,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
)
from repro.scenarios.matrix import run_matrix

F = FaultEvent


# ----------------------------------------------------------------------
# Satellite 1: spec-parse-time fault validation
# ----------------------------------------------------------------------
class TestFaultValidation:
    def test_unknown_action_names_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown fault action.*crash-storm"):
            FaultEvent(1.0, "meteor").validate()

    @pytest.mark.parametrize("time", [-1.0, float("nan"), float("inf")])
    def test_bad_times_rejected(self, time):
        with pytest.raises(ValueError, match="time"):
            F.crash(time, 0).validate()

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5, float("nan")])
    def test_loss_rate_must_be_below_one(self, rate):
        with pytest.raises(ValueError, match=r"loss rate must be in \[0, 1\)"):
            F.loss(1.0, rate).validate()

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_duplicate_rate_must_be_in_closed_unit_interval(self, rate):
        with pytest.raises(
            ValueError, match=r"duplicate rate must be in \[0, 1\]"
        ):
            F.duplicate(1.0, rate).validate()

    def test_duplicate_rate_one_is_valid(self):
        # a duplication storm that copies *every* message still makes
        # progress (unlike loss = 1.0, which would stall the run forever)
        F.duplicate(1.0, 1.0).validate()

    def test_delay_scale_must_be_positive_finite(self):
        with pytest.raises(ValueError, match="factor"):
            F.delay_spike(1.0, 0.0).validate()
        with pytest.raises(ValueError, match="factor"):
            F.delay_spike(1.0, float("inf")).validate()

    def test_crash_needs_a_pid(self):
        with pytest.raises(ValueError, match="process id"):
            FaultEvent(1.0, "crash").validate()

    def test_reorder_needs_positive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            F.reorder(1.0, 0.0).validate()

    def test_flap_needs_two_distinct_pids(self):
        with pytest.raises(ValueError, match="distinct"):
            F.flap(1.0, 2, 2).validate()

    def test_flap_needs_at_least_one_cycle(self):
        with pytest.raises(ValueError, match="count"):
            F.flap(1.0, 0, 1, cycles=0).validate()

    def test_crash_storm_needs_distinct_pids(self):
        with pytest.raises(ValueError, match="non-empty"):
            F.crash_storm(1.0, ()).validate()
        with pytest.raises(ValueError, match="distinct"):
            F.crash_storm(1.0, (1, 1)).validate()

    def test_partition_oneway_needs_two_groups(self):
        with pytest.raises(ValueError, match="two groups"):
            FaultEvent(
                1.0, "partition-oneway", groups=((0, 1),)
            ).validate()

    def test_schedule_constructor_validates(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSchedule([FaultEvent(1.0, "meteor")])

    def test_from_dict_validates_events(self):
        with pytest.raises(ValueError, match=r"rate must be in \[0, 1\)"):
            ScenarioSpec.from_dict(
                {
                    "name": "bad",
                    "faults": [{"time": 1.0, "action": "loss", "rate": 2.0}],
                }
            )


class TestChaosFaultJson:
    def test_new_fault_events_round_trip(self):
        spec = ScenarioSpec(
            name="chaos-json",
            n=4,
            faults=(
                F.duplicate(0.5, 0.3),
                F.reorder(1.0, 2.0),
                F.flap(2.0, 0, 3, cycles=2, period=1.5),
                F.partition_oneway(3.0, (0, 1), (2, 3)),
                F.crash_storm(4.0, (1, 2), downtime=2.5),
            ),
        )
        again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_chaos_tier_scenarios_round_trip(self):
        for name, spec in CHAOS_SCENARIOS.items():
            assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec, name

    def test_chaos_tier_resolvable_but_not_default(self):
        from repro.scenarios import SCENARIOS, scenario_names

        assert get_scenario("dup-storm-flap").n == 4
        assert "dup-storm-flap" not in SCENARIOS
        assert "dup-storm-flap" not in scenario_names()
        assert "dup-storm-flap" in scenario_names(include_chaos=True)


# ----------------------------------------------------------------------
# Network-level chaos faults
# ----------------------------------------------------------------------
def _pair(seed=0, delay=1.0, n=2):
    sim = Simulator(seed=seed)
    net = Network(sim, n, delay=DelayModel.constant(delay))
    inbox = []
    for pid in range(n):
        net.attach(
            pid, lambda src, p, me=pid: inbox.append((sim.now, me, src, p))
        )
    return sim, net, inbox


class TestNetworkChaos:
    def test_duplicate_rate_delivers_second_copies(self):
        sim, net, inbox = _pair(seed=1)
        net.set_duplicate_rate(0.9)
        for i in range(20):
            net.send(0, 1, ("m", i))
        sim.run()
        assert net.stats.duplicated > 0
        assert len(inbox) == 20 + net.stats.duplicated

    def test_duplicate_rate_validated(self):
        _, net, _ = _pair()
        with pytest.raises(ValueError):
            net.set_duplicate_rate(1.1)
        with pytest.raises(ValueError):
            net.set_duplicate_rate(-0.1)

    def test_duplicate_rate_one_duplicates_every_message(self):
        sim, net, inbox = _pair(seed=2)
        net.set_duplicate_rate(1.0)
        for i in range(10):
            net.send(0, 1, ("m", i))
        sim.run()
        assert net.stats.duplicated == 10
        assert len(inbox) == 20

    def test_zero_duplicate_rate_draws_nothing(self):
        """The dial at zero must not consume rng draws — non-chaos runs
        stay bit-identical."""
        def deliveries(configure):
            sim, net, inbox = _pair(seed=3)
            configure(net)
            for i in range(10):
                net.send(0, 1, i)
            sim.run()
            return [(t, p) for t, _, _, p in inbox]

        assert deliveries(lambda net: None) == deliveries(
            lambda net: net.set_duplicate_rate(0.0)
        )

    def test_reorder_burst_inverts_link_order(self):
        sim, net, inbox = _pair(seed=0)
        net.start_reorder(2.0)
        for tag in ("a", "b", "c"):
            net.send(0, 1, tag)
        sim.run()
        assert [p for _, _, _, p in inbox] == ["c", "b", "a"]
        assert net.stats.reordered == 3
        # released after the burst end, at deterministic spacings
        assert all(t > 2.0 for t, _, _, _ in inbox)

    def test_reorder_needs_positive_duration(self):
        _, net, _ = _pair()
        with pytest.raises(ValueError):
            net.start_reorder(0.0)

    def test_blocked_links_are_directed_and_hold(self):
        sim, net, inbox = _pair(seed=0)
        net.block_links([(0, 1)])
        net.send(0, 1, "blocked")
        net.send(1, 0, "flows")
        sim.run()
        assert [p for _, _, _, p in inbox] == ["flows"]
        assert net.stats.held == 1
        net.unblock_links([(0, 1)])
        sim.run()
        assert [p for _, _, _, p in inbox] == ["flows", "blocked"]

    def test_heal_clears_blocked_links(self):
        sim, net, inbox = _pair(seed=0)
        net.block_links([(0, 1), (1, 0)])
        net.send(0, 1, "x")
        net.heal()
        sim.run()
        assert [p for _, _, _, p in inbox] == ["x"]

    def test_flap_ends_up(self):
        sim = Simulator(seed=0)
        net = Network(sim, 2, delay=DelayModel.constant(0.1))
        inbox = []
        net.attach(1, lambda src, p: inbox.append(p))
        schedule = FaultSchedule([F.flap(0.0, 0, 1, cycles=2, period=1.0)])
        schedule.install(net)
        # down [0, 0.5) and [1.0, 1.5); sends land in both states
        for at, tag in [(0.2, "d1"), (0.7, "u1"), (1.2, "d2"), (1.7, "u2")]:
            sim.schedule(at, net.send, 0, 1, tag)
        sim.run()
        assert sorted(inbox) == ["d1", "d2", "u1", "u2"]
        assert not net._blocked, "a flap must leave the link up"

    def test_crash_storm_recovers_everyone(self):
        sim = Simulator(seed=0)
        net = Network(sim, 4, delay=DelayModel.constant(0.5))
        schedule = FaultSchedule([F.crash_storm(1.0, (1, 2), downtime=2.0)])
        schedule.install(net)
        crashed_during = []
        sim.schedule(2.0, lambda: crashed_during.extend(sorted(net.crashed)))
        sim.run()
        assert crashed_during == [1, 2]
        assert not net.crashed


# ----------------------------------------------------------------------
# Satellite 2: heal() held-traffic semantics under chaos dials
# ----------------------------------------------------------------------
class TestHealHeldSemantics:
    def test_heal_flush_bypasses_loss_and_reorder_in_send_order(self):
        """Held messages flushed by heal() never go through the loss
        gate and never enter an active reorder capture: partitions
        delay, they do not lose — and they do not shuffle."""
        sim, net, inbox = _pair(seed=5, delay=1.0)
        net.partition({0}, {1})
        for i in range(10):
            net.send(0, 1, ("held", i))
        assert net.stats.held == 10
        net.set_loss_rate(0.9)
        net.start_reorder(50.0)  # active across the heal
        net.heal()
        sim.run(until=40.0)
        payloads = [p for _, _, _, p in inbox]
        assert payloads == [("held", i) for i in range(10)]
        assert net.stats.lost == 0

    def test_heal_flush_property_random_schedules(self):
        """Property: whatever was held at heal time is delivered after
        the heal, exactly once, in per-link send order, regardless of
        the loss dial.  Constant delay so delivery order reflects
        transmission order (random delays may scramble messages en
        route, which is allowed — the flush guarantee is about
        transmission)."""
        for seed in range(8):
            rng = random.Random(seed)
            sim = Simulator(seed=seed)
            net = Network(sim, 4, delay=DelayModel.constant(0.5 + 0.1 * seed))
            inbox = []
            for pid in range(4):
                net.attach(
                    pid, lambda src, p, me=pid: inbox.append((src, me, p))
                )
            net.partition({0, 1}, {2, 3})
            sent = []
            for i in range(30):
                src = rng.randrange(4)
                dst = rng.choice([d for d in range(4) if d != src])
                net.send(src, dst, i)
                if net._separated(src, dst):
                    sent.append((src, dst, i))
            net.set_loss_rate(rng.uniform(0.5, 0.95))
            net.heal()
            sim.run()
            held_delivered = [
                (src, dst, p) for src, dst, p in inbox if (src, dst, p) in sent
            ]
            assert sorted(held_delivered) == sorted(sent)
            # per-link send order is preserved
            for src, dst, _ in sent:
                link = [p for s, d, p in held_delivered if (s, d) == (src, dst)]
                assert link == sorted(link)


# ----------------------------------------------------------------------
# Duplicate tolerance in the broadcast lattice
# ----------------------------------------------------------------------
def _service(service_cls, n, seed=0, delay=(0.5, 1.5), **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, n, delay=DelayModel.uniform(*delay))
    service = service_cls(net, **kwargs)
    logs = [[] for _ in range(n)]
    for pid in range(n):
        service.endpoint(
            pid, lambda origin, p, me=pid: logs[me].append((origin, p))
        )
    return sim, net, service, logs


class TestDuplicateTolerance:
    @pytest.mark.parametrize(
        "service_cls", [ReliableBroadcast, FifoBroadcast, CausalBroadcast]
    )
    def test_network_duplicates_delivered_once(self, service_cls):
        sim, net, service, logs = _service(service_cls, 3, seed=2)
        net.set_duplicate_rate(0.8)
        for i in range(6):
            service.broadcast(i % 3, ("m", i))
        sim.run()
        assert net.stats.duplicated > 0
        for log in logs:
            assert len(log) == 6 and len(set(log)) == 6

    def test_total_order_duplicates_not_double_sequenced(self):
        sim, net, service, logs = _service(TotalOrderBroadcast, 3, seed=4)
        net.set_duplicate_rate(0.8)
        for i in range(6):
            service.broadcast(i % 3, ("m", i))
        sim.run()
        assert net.stats.duplicated > 0
        for log in logs:
            assert len(log) == 6, "a duplicate was sequenced or re-delivered"

    def test_duplicate_of_gc_pruned_message_is_ignored(self):
        """Satellite 3: a late duplicate of a message the stability GC
        already pruned must not regress the frontier, re-enter the log,
        or re-apply — with a monitor attached to prove it."""
        sim, net, service, logs = _service(
            ReliableBroadcast, 3, seed=6, delay=(0.5, 1.0)
        )
        service.GC_INTERVAL = 4
        monitor = RuntimeMonitor(3, sim=sim)
        service.monitor = monitor
        for i in range(8):
            service.broadcast(0, ("m", i))
        sim.run()
        stable_before = stability_frontier(service, 1)
        assert stable_before[0] > 0, "GC never advanced the frontier"
        assert all(
            m["id"][1] >= stable_before[0] for m in service.retained_log(1)
        )
        delivered_before = list(logs[1])
        seen_before = service.seen_ids(1)
        # replay an ancient, pruned message straight into pid 1
        net.handlers[1](0, {"id": (0, 0), "origin": 0, "payload": ("m", 0)})
        sim.run()
        assert logs[1] == delivered_before
        assert service.seen_ids(1) == seen_before
        assert stability_frontier(service, 1) == stable_before
        assert monitor.ok, monitor.summary()


# ----------------------------------------------------------------------
# Tentpole layer 2: supervised resync (satellite 4 both ways)
# ----------------------------------------------------------------------
class OneShotFifoBroadcast(FifoBroadcast):
    def start_resync(self, target):
        self.resync(target)  # the catch-up supervision replaced


def _strand_setup(supervised, block_all=False):
    """pid 3 misses traffic while crashed; at recovery its default
    helper (pid 0) is unreachable over a blocked directed link.  No
    traffic follows the recovery, so no heartbeat is armed: the resync
    is the only catch-up there is."""
    sim = Simulator(seed=11)
    net = Network(sim, 4, delay=DelayModel.constant(0.5))
    cls = FifoBroadcast if supervised else OneShotFifoBroadcast
    service = cls(net)
    monitor = RuntimeMonitor(4, sim=sim)
    service.monitor = monitor
    logs = [[] for _ in range(4)]
    for pid in range(4):
        service.endpoint(
            pid, lambda origin, p, me=pid: logs[me].append((origin, p))
        )
    net.crash(3)
    for i in range(3):
        service.broadcast(0, ("a", i))
        service.broadcast(1, ("b", i))
    sim.run()
    assert logs[3] == []
    pairs = [(p, 3) for p in range(3)] if block_all else [(0, 3)]
    net.block_links(pairs)
    net.recover(3)
    service.start_resync(3)  # what ReplicatedObject.on_recover calls
    sim.run()
    return service, logs, monitor


class TestSupervisedResync:
    def test_oneshot_resync_strands_the_replica(self):
        """The pre-PR 6 behaviour, pinned: one-shot resync against an
        unreachable helper leaves the recovered replica behind."""
        service, logs, _ = _strand_setup(supervised=False)
        assert logs[3] == [], "one-shot resync should have been stranded"
        assert service.resync_retries == 0

    def test_later_traffic_heals_a_stranded_replica_by_digest_repair(self):
        """The stranding lasts only while the cluster is quiet: the next
        broadcast arms the heartbeat, and the digests of the peers the
        replica can hear carry it every message it missed."""
        service, logs, monitor = _strand_setup(supervised=False)
        assert logs[3] == []
        service.broadcast(1, ("b", 3))
        service.network.sim.run()
        assert sorted(logs[3]) == sorted(logs[2]), "repair incomplete"
        assert len(logs[3]) == 7
        assert service.repairs_sent > 0 and service.resync_retries == 0
        assert monitor.ok, monitor.summary()

    def test_supervised_resync_fails_over_and_converges(self):
        service, logs, monitor = _strand_setup(supervised=True)
        assert sorted(logs[3]) == sorted(logs[2]), "catch-up incomplete"
        assert service.resync_retries >= 1
        assert service.resync_converged >= 1
        assert service.resync_gave_up == 0
        assert monitor.ok, monitor.summary()

    def test_supervised_resync_gives_up_and_reports_stranded(self):
        """With every helper unreachable forever, the supervision chain
        must terminate and the monitor must record the stranding."""
        service, logs, monitor = _strand_setup(supervised=True, block_all=True)
        assert logs[3] == []
        assert service.resync_gave_up == 1
        kinds = {v.kind for v in monitor.violations}
        assert kinds == {"resync-stranded"}

    def test_recrash_orphans_the_supervision_chain(self):
        sim = Simulator(seed=1)
        net = Network(sim, 3, delay=DelayModel.constant(0.5))
        service = FifoBroadcast(net)
        logs = [[] for _ in range(3)]
        for pid in range(3):
            service.endpoint(
                pid, lambda origin, p, me=pid: logs[me].append(p)
            )
        net.crash(2)
        service.broadcast(0, "x")
        sim.run()
        net.recover(2)
        service.start_resync(2)
        net.crash(2)  # re-crash before the verification check fires
        sim.run()
        assert service.resync_gave_up == 0
        assert service.resync_retries == 0, "orphaned chain must not retry"


# ----------------------------------------------------------------------
# Tentpole layer 3: the monitors themselves
# ----------------------------------------------------------------------
class SetOracle(RuntimeMonitor):
    """The monitor as PR 6 wrote it: one set entry per delivery ever
    made.  Kept here as the reference the frontier is checked against."""

    def __init__(self, n, max_violations=64):
        super().__init__(n, max_violations=max_violations)
        self.applied = set()

    def _first_delivery(self, pid, mid):
        if (pid, mid) in self.applied:
            self._flag("double-apply", pid, f"message {mid!r} delivered twice")
            return False
        self.applied.add((pid, mid))
        return True


@st.composite
def hook_sequences(draw):
    """``(n, warm, calls)``: every (receiver, origin) pair first takes
    ``warm`` messages in order, then random hooks land anywhere from far
    below that frontier to a few ids above it — duplicates, gaps, late
    fills — ``on_deliver`` and ``on_causal_deliver`` mixed, stamps
    arbitrary."""
    n = draw(st.integers(2, 5))
    warm = draw(st.integers(0, 12))
    pids = st.integers(0, n - 1)
    call = st.tuples(
        st.booleans(),
        pids,
        pids,
        st.integers(0, warm + 8),
        st.lists(st.integers(0, warm + 2), min_size=n, max_size=n),
    )
    return n, warm, draw(st.lists(call, max_size=120))


class TestRuntimeMonitor:
    @settings(max_examples=150, deadline=None)
    @given(hook_sequences())
    def test_frontier_flags_exactly_what_the_set_did(self, drawn):
        n, warm, calls = drawn
        for cap in (64, 3):
            monitor = RuntimeMonitor(n, max_violations=cap)
            oracle = SetOracle(n, max_violations=cap)
            for sink in (monitor, oracle):
                for seq in range(warm):
                    for pid in range(n):
                        for origin in range(n):
                            sink.on_deliver(pid, (origin, seq))
                for causal, pid, origin, seq, stamp in calls:
                    if causal:
                        sink.on_causal_deliver(pid, (origin, seq), origin, stamp)
                    else:
                        sink.on_deliver(pid, (origin, seq))
            assert monitor.violations == oracle.violations
            assert monitor.dropped == oracle.dropped
            # lossless: the frontier + spill hold exactly the oracle's set
            assert monitor.stats()["out_of_order"] == sum(
                1
                for pid, (origin, seq) in oracle.applied
                if any(
                    (pid, (origin, below)) not in oracle.applied
                    for below in range(seq)
                )
            )

    def test_in_order_deliveries_leave_no_state_behind(self):
        """Every receiver delivers one global causal order: 200k hooks,
        nothing out of order, and no memory held per delivery (the set
        kept ~200 B for each: tens of MB here)."""
        n = 3
        monitor = RuntimeMonitor(n)
        stamp = [0] * n
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(200_000 // n):
                origin = i % n
                stamp[origin] += 1
                for pid in range(n):
                    monitor.on_causal_deliver(
                        pid, (origin, i // n), origin, stamp
                    )
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert monitor.ok, monitor.summary()
        assert monitor.stats()["out_of_order"] == 0
        assert grown < 64 * 1024

    def test_out_of_order_burst_is_held_until_the_gap_fills(self):
        monitor = RuntimeMonitor(2)
        for seq in (4, 2, 5, 1):
            monitor.on_deliver(0, (1, seq))
        monitor.on_deliver(1, (1, 0))  # another receiver: no help
        assert monitor.stats()["out_of_order"] == 4
        monitor.on_deliver(0, (1, 0))
        assert monitor.stats()["out_of_order"] == 2  # 4 and 5 wait for 3
        monitor.on_deliver(0, (1, 3))
        assert monitor.stats() == {
            "ok": True, "total": 0, "dropped": 0, "out_of_order": 0,
        }
        monitor.on_deliver(0, (1, 2))  # long below the frontier by now
        assert [v.kind for v in monitor.violations] == ["double-apply"]

    def test_lossy_causal_run_ends_with_nothing_out_of_order(self):
        n = 4
        spec = ScenarioSpec(
            "lossdup",
            n=n,
            streams=2,
            k=2,
            faults=(
                F.loss(0.0, 0.05),
                F.duplicate(0.0, 0.05),
                F.loss(60.0, 0.0),
                F.duplicate(60.0, 0.0),
                *(F.repair(80.0 + 10.0 * i) for i in range(n - 1)),
            ),
            workload=WorkloadSpec(ops_per_process=40, write_ratio=0.5),
        )
        entry = ALGORITHMS["ccv-fig5"]
        result = Scenario(spec).run(
            entry.cls, seed=0, **entry.kwargs(spec.streams, spec.k)
        )
        assert result.network_stats.lost > 0 < result.network_stats.duplicated
        assert result.monitor.ok, result.monitor.summary()
        assert result.monitor.stats()["out_of_order"] == 0

    @pytest.mark.parametrize(
        "pid, mid",
        [(0, (7, 0)), (7, (0, 0)), (0, (-1, 0)), (0, (1, -1)), (-1, (1, 0)),
         (0, (1,)), (0, None), (0, (1, "0"))],
    )
    def test_an_id_it_cannot_index_is_flagged_not_raised(self, pid, mid):
        monitor = RuntimeMonitor(3)
        monitor.on_deliver(pid, mid)
        monitor.on_causal_deliver(pid, mid, 1, [0, 1, 0])
        assert [v.kind for v in monitor.violations] == ["unknown-id"] * 2
        assert monitor.stats()["out_of_order"] == 0

    def test_double_apply_flagged(self):
        monitor = RuntimeMonitor(2)
        monitor.on_deliver(0, (1, 5))
        monitor.on_deliver(0, (1, 5))
        assert [v.kind for v in monitor.violations] == ["double-apply"]
        assert not monitor.ok

    def test_fifo_gap_flagged(self):
        monitor = RuntimeMonitor(2)
        monitor.on_fifo_deliver(0, 1, 0)
        monitor.on_fifo_deliver(0, 1, 2)  # gap: 1 skipped
        assert [v.kind for v in monitor.violations] == ["fifo-order"]

    def test_causal_stamp_must_be_exactly_next(self):
        monitor = RuntimeMonitor(2)
        monitor.on_causal_deliver(0, (1, 0), 1, [0, 2])  # skips stamp 1
        assert [v.kind for v in monitor.violations] == ["causal-order"]

    def test_causal_stamp_must_be_covered(self):
        monitor = RuntimeMonitor(3)
        # origin 1's first message claims origin 2 delivered one already
        monitor.on_causal_deliver(0, (1, 0), 1, [0, 1, 1])
        assert [v.kind for v in monitor.violations] == ["causal-order"]

    def test_clean_causal_sequence_passes(self):
        monitor = RuntimeMonitor(2)
        monitor.on_causal_deliver(0, (1, 0), 1, [0, 1])
        monitor.on_causal_deliver(0, (0, 0), 0, [1, 1])
        monitor.on_causal_deliver(0, (1, 1), 1, [1, 2])
        assert monitor.ok

    def test_gc_frontier_unsoundness_flagged(self):
        monitor = RuntimeMonitor(2)
        monitor.on_gc([1, 0], [[0, 0], [1, 0]], crashed={0})
        kinds = [v.kind for v in monitor.violations]
        assert kinds == ["gc-frontier"]
        assert "crashed" in monitor.violations[0].detail

    def test_gc_frontier_regression_flagged(self):
        monitor = RuntimeMonitor(2)
        monitor.on_gc([2, 0], [[2, 0], [2, 0]], crashed=set())
        monitor.on_gc([1, 0], [[2, 0], [2, 0]], crashed=set())
        assert [v.kind for v in monitor.violations] == ["gc-frontier"]

    def test_violation_cap(self):
        monitor = RuntimeMonitor(2, max_violations=3)
        for i in range(10):
            monitor.on_deliver(0, (1, 1))
        assert len(monitor.violations) == 3 and monitor.dropped == 6

    def test_summary_aggregates_kinds(self):
        monitor = RuntimeMonitor(2)
        assert monitor.summary() == "monitors: ok"
        monitor.on_deliver(0, (1, 1))
        monitor.on_deliver(0, (1, 1))
        monitor.on_fifo_deliver(0, 1, 3)
        assert "double-apply×1" in monitor.summary()
        assert "fifo-order×1" in monitor.summary()

    def test_monitors_clean_on_builtin_scenarios(self):
        for scenario_name in ("churn", "flaky-link"):
            spec = get_scenario(scenario_name).fast(3)
            entry = ALGORITHMS["ccv-fig5"]
            result = Scenario(spec).run(
                entry.cls, seed=0, **entry.kwargs(spec.streams, spec.k)
            )
            assert result.monitor is not None
            assert result.monitor.ok, result.monitor.summary()

    def test_monitors_do_not_change_the_history(self):
        """Bit-identity: the recorded history with monitors attached is
        byte-for-byte the history without them."""
        spec = get_scenario("churn")
        entry = ALGORITHMS["ccv-fig5"]

        def rows(monitors):
            result = Scenario(spec).run(
                entry.cls, seed=1, monitors=monitors,
                **entry.kwargs(spec.streams, spec.k),
            )
            return [
                (pid, rec.invocation.method, rec.invocation.args,
                 rec.output, rec.start, rec.end)
                for pid, row in enumerate(result.recorder.rows)
                for rec in row
            ]

        assert rows(True) == rows(False)

    def test_matrix_cell_fails_on_monitor_violation(self):
        """A monitor violation forces the cell verdict to failure even
        when the history checker is happy."""
        from repro.scenarios.matrix import _run_cell

        original = RuntimeMonitor.on_deliver
        calls = []
        try:
            def tainted(self, pid, mid):
                original(self, pid, mid)
                calls.append(mid)
                if len(calls) == 3:
                    self._flag("double-apply", pid, "synthetic violation")
            RuntimeMonitor.on_deliver = tainted
            cell = _run_cell(("flaky-link", "lww", 0, 3))
        finally:
            RuntimeMonitor.on_deliver = original
        assert cell.ok is False
        assert cell.monitor_violations >= 1
        assert "double-apply" in cell.note


# ----------------------------------------------------------------------
# Tentpole layer 4: ddmin + the chaos driver
# ----------------------------------------------------------------------
class TestDdmin:
    def test_minimises_to_the_interacting_pair(self):
        items = list(range(10))

        def fails(subset):
            return 3 in subset and 6 in subset

        assert ddmin(items, fails) == [3, 6]

    def test_single_culprit(self):
        assert ddmin(list(range(8)), lambda s: 5 in s) == [5]

    def test_whole_input_needed_stays_whole(self):
        items = [0, 1, 2]
        assert ddmin(items, lambda s: len(s) == 3) == items

    def test_rejects_non_failing_input(self):
        with pytest.raises(ValueError, match="does not fail"):
            ddmin([1, 2, 3], lambda s: False)

    def test_result_is_one_minimal(self):
        items = list(range(12))

        def fails(subset):
            return sum(subset) >= 40

        result = ddmin(items, fails)
        assert fails(result)
        for i in range(len(result)):
            assert not fails(result[:i] + result[i + 1:])


class TestChaosGenerate:
    def test_schedules_deterministic_per_seed(self):
        a = random_fault_events(random.Random(42), 4)
        b = random_fault_events(random.Random(42), 4)
        assert a == b
        assert a != random_fault_events(random.Random(43), 4)

    def test_generated_events_always_validate(self):
        for seed in range(50):
            for event in random_fault_events(random.Random(seed), 4):
                event.validate()

    def test_cleanup_outlasts_scheduled_tails(self):
        """The heal/recover suffix must land after a flap's last cycle
        and a storm's self-recovery, or it would be undone."""
        events = [
            F.flap(1.0, 0, 1, cycles=3, period=2.0),
            F.crash_storm(2.0, (1, 2), downtime=5.0),
        ]
        suffix = cleanup_events(events, 4)
        assert all(s.time > max(event_end(e) for e in events) for s in suffix)

    def test_cleanup_recovers_unmatched_crashes(self):
        suffix = cleanup_events([F.crash(1.0, 2)], 4)
        assert any(
            e.action == "recover" and e.pid == 2 for e in suffix
        )

    def test_cleanup_repairs_only_after_loss(self):
        lossy = cleanup_events([F.loss(1.0, 0.3)], 4)
        assert sum(e.action == "repair" for e in lossy) == 3
        assert not any(
            e.action == "repair"
            for e in cleanup_events([F.crash(1.0, 1)], 4)
        )

    def test_make_spec_is_a_valid_runnable_spec(self):
        faults = random_fault_events(random.Random(7), 4)
        spec = make_spec("probe", 4, 3, faults)
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        entry = ALGORITHMS["lww"]
        result = Scenario(spec).run(
            entry.cls, seed=0, **entry.kwargs(spec.streams, spec.k)
        )
        assert result.monitor is not None and result.monitor.ok


class TestChaosDriver:
    def test_clean_code_survives_the_hunt(self):
        report = run_chaos(seed=1, trials=4, check_criterion=False)
        assert report.ok and report.runs == 8  # 4 trials x 2 algorithms

    def test_deterministic_per_seed(self):
        def snap(report):
            return [
                (f.trial, f.algorithm, f.kinds, f.minimized)
                for f in report.failures
            ]

        a = run_chaos(seed=0, trials=6, inject="gc-frontier",
                      check_criterion=False)
        b = run_chaos(seed=0, trials=6, inject="gc-frontier",
                      check_criterion=False)
        assert snap(a) == snap(b)

    def test_gc_frontier_sentinel_found_and_minimised(self, tmp_path):
        """The acceptance pipeline: the sentinel GC off-by-one is found,
        ddmin shrinks the schedule to <= 5 events, the repro is saved as
        replayable JSON, and replaying it reproduces the violation."""
        report = run_chaos(
            seed=0, trials=40, inject="gc-frontier",
            check_criterion=False, save_dir=str(tmp_path),
        )
        assert report.failures, "sentinel bug was never detected"
        failure = report.failures[0]
        assert "gc-frontier" in failure.kinds
        assert len(failure.minimized) <= 5
        assert failure.path is not None
        outcome, doc = replay_file(failure.path)
        assert doc["expect_failure"] is True
        assert set(doc["failure_kinds"]).intersection(outcome.kinds)

    def test_sentinel_requires_injection(self):
        """The same schedule is clean without the sentinel — the
        failure really is the planted bug, not the schedule."""
        report = run_chaos(
            seed=0, trials=40, inject="gc-frontier", check_criterion=False,
        )
        failure = report.failures[0]
        clean = run_chaos_trial(
            failure.spec, failure.algorithm, failure.run_seed, inject="none",
            check_criterion=False,
        )
        assert not clean.failed

    def test_unknown_injection_rejected(self):
        with pytest.raises(ValueError, match="unknown injection"):
            run_chaos(seed=0, trials=1, inject="typo")

    def test_every_entry_point_rejects_an_unknown_injection(self):
        """Not only the driver loop: a single trial, the ddmin predicate
        and (in test_chaos_corpus.py) a corpus replay refuse a name the
        table does not define instead of running the clean code."""
        spec = make_spec("typo", 4, 3, [F.crash(1.0, 3)])
        with pytest.raises(ValueError, match="known: none, gc-frontier"):
            run_chaos_trial(spec, "lww", run_seed=0, inject="gc_frontier")
        with pytest.raises(ValueError, match="unknown injection"):
            trial_fails([], "lww", 0, inject="gc_frontier", n=4, ops=3)

    def test_plant_subclasses_only_the_services_it_applies_to(self):
        assert plant(FifoBroadcast, "none") is FifoBroadcast
        assert plant(None, "gc-frontier") is None  # state-based gossip
        assert plant(TotalOrderBroadcast, "gc-frontier") is TotalOrderBroadcast
        # a sentinel is a service mixin: the endpoint class stays
        gc = plant(FifoBroadcast, "gc-frontier")
        assert issubclass(gc, FifoBroadcast)
        assert gc.endpoint_cls is FifoBroadcast.endpoint_cls
        with pytest.raises(ValueError, match="unknown injection"):
            plant(FifoBroadcast, "typo")


class TestFullDuplicationStorm:
    """Satellite 1: duplicate rate 1.0 is now a legal chaos dial — every
    message is copied once, and the dedup layer keeps every algorithm
    correct (unlike loss = 1.0, duplication never blocks progress)."""

    @pytest.mark.parametrize(
        "algo,over_flood",
        [("lww", False), ("ccv-fig5", False), ("lww", True), ("ccv-fig5", True)],
        ids=["lww", "ccv-fig5", "lww-flood", "ccv-fig5-flood"],
    )
    def test_copy_everything_schedule_is_tolerated(self, algo, over_flood):
        spec = ScenarioSpec(
            name="dup-storm-total",
            n=4,
            faults=(F.duplicate(0.5, 1.0), F.duplicate(9.0, 0.0)),
            workload=WorkloadSpec(ops_per_process=5, write_ratio=0.6),
        )
        if over_flood:
            outcome = flooded_chaos_trial(spec, algo, 7, check_criterion=False)
        else:
            outcome = run_chaos_trial(spec, algo, run_seed=7, check_criterion=False)
        assert not outcome.failed, outcome.failures
        assert outcome.result.network_stats.duplicated > 0


class TestOneCheckedRun:
    """Explore and chaos judge a run by one rule, ``matrix.check_run``:
    ``divergence`` counts only where the advertised criterion promises
    convergence (CONV, CCv, SC — Fig. 1), never for CC or PC."""

    #: no faults at all: concurrent writes alone leave the replicas of
    #: Fig. 4 and of PRAM in different states
    CONCURRENT = make_spec("concurrent-writes", 4, 6, [])

    @pytest.mark.parametrize("algo", ["cc-fig4", "pram"])
    def test_cc_and_pram_may_diverge(self, algo):
        outcome = run_chaos_trial(
            self.CONCURRENT, algo, run_seed=0, check_criterion=False
        )
        assert not outcome.result.algorithm.converged()
        assert "divergence" not in outcome.kinds
        assert outcome.ok is None  # nothing was checked: not a verdict

    def test_sc_explore_cell_carries_one_divergence_record(self):
        """The sequencer baseline advertises SC, which implies EC: its
        replicas disagreeing after the crashes is one record, beside the
        search's refutation."""
        from repro.scenarios.matrix import _run_cell

        cell = _run_cell(("rolling-crashes", "sc-sequencer", 0, 0))
        kinds = [kind for kind, _ in cell.failures]
        assert kinds.count("divergence") == 1
        assert cell.ok is False and not cell.expected

    def test_checked_trial_is_monitored_and_decided_past_the_budget(
        self, monkeypatch
    ):
        """A checked trial feeds the streaming monitor live, and when the
        search runs out of budget the monitor's verdict decides."""
        from repro.scenarios import matrix

        monkeypatch.setattr(matrix, "CHECK_BUDGET", 1)
        outcome = run_chaos_trial(self.CONCURRENT, "ccv-fig5", run_seed=0)
        assert outcome.streaming["criteria"]["CCV"]["ok"] is True
        assert outcome.streaming["stats"]["ops_seen"] == len(
            outcome.result.history
        )
        assert outcome.note.startswith("search budget exceeded")
        assert outcome.note.endswith("decided by streaming monitor")
        assert outcome.ok is True and not outcome.failed

    def test_unchecked_trial_runs_no_monitor(self):
        """Without the check, convergence alone does not decide CCv."""
        outcome = run_chaos_trial(
            self.CONCURRENT, "ccv-fig5", run_seed=0, check_criterion=False
        )
        assert outcome.streaming is None and outcome.ok is None
        assert outcome.result.algorithm.converged() and not outcome.failed
