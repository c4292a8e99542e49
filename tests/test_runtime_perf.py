"""PR 5 equivalence and regression suite for the rebuilt runtime plane.

Three families of guarantees:

- the indexed causal delivery (:class:`CausalBroadcast`) is delivery-for-
  delivery identical to the reference drain
  (``oracles.ReferenceCausalBroadcast``) across randomized fault schedules —
  partitions, crashes, loss, resync;
- recorded scenario histories are bit-identical per seed across the
  scheduler/broadcast rewrite (golden fingerprints generated with the
  pre-rewrite runtime);
- the new machinery behaves: O(1) ``Simulator.pending``, causal-stability
  GC bounds the logs without breaking ``resync``, the matrix pool is
  reusable with deterministic cell ordering, and the LWW incremental
  replay equals the full fold.
"""

import json
import pathlib
import random

import pytest
from oracles import ReferenceCausalBroadcast, flooded, flooding

from repro.adts.window_stream import WindowStreamArray
from repro.algorithms import CCvWindowArray, GenericCCv, LwwReplication
from repro.runtime import (
    CausalBroadcast,
    DelayModel,
    Network,
    ReliableBroadcast,
    Simulator,
)
from repro.scenarios import (
    SCALE_SCENARIOS,
    Scenario,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
    run_matrix,
    scenario_names,
)
from repro.scenarios.matrix import ALGORITHMS


# ----------------------------------------------------------------------
# Indexed causal delivery == reference drain
# ----------------------------------------------------------------------
def _run_causal(service_cls, seed: int):
    """One randomized causal-broadcast run with faults, returning the
    per-process delivery logs.  The schedule is drawn from a *separate*
    rng seeded only by ``seed``, so both implementations face the byte-
    identical scenario."""
    plan = random.Random(seed * 7919 + 13)
    n = plan.choice((2, 3, 4, 6, 8))
    sim = Simulator(seed=seed)
    net = Network(
        sim,
        n,
        delay=DelayModel.uniform(0.5, 5.0),
        loss_rate=0.0,
    )
    service = flooding(service_cls)(net)
    service.GC_INTERVAL = plan.choice((8, 64, 1024))
    logs = [[] for _ in range(n)]
    for pid in range(n):
        service.endpoint(
            pid, lambda origin, payload, q=pid: logs[q].append((origin, payload))
        )

    for i in range(40):
        t = plan.uniform(0.0, 30.0)
        pid = plan.randrange(n)
        sim.schedule(t, service.broadcast, pid, ("m", i))

    if n >= 3 and plan.random() < 0.7:
        cut = plan.randrange(1, n)
        members = list(range(n))
        plan.shuffle(members)
        groups = (tuple(members[:cut]), tuple(members[cut:]))
        t_split = plan.uniform(2.0, 12.0)
        sim.schedule(t_split, net.partition, *groups)
        sim.schedule(t_split + plan.uniform(3.0, 10.0), net.heal)
    if plan.random() < 0.7:
        victim = plan.randrange(n)
        t_crash = plan.uniform(2.0, 10.0)
        sim.schedule(t_crash, net.crash, victim)
        t_back = t_crash + plan.uniform(4.0, 12.0)
        sim.schedule(t_back, net.recover, victim)
        sim.schedule(t_back + 0.1, service.resync, victim)
    if plan.random() < 0.5:
        t_loss = plan.uniform(1.0, 8.0)
        sim.schedule(t_loss, net.set_loss_rate, plan.uniform(0.1, 0.4))
        sim.schedule(t_loss + plan.uniform(2.0, 6.0), net.set_loss_rate, 0.0)
        # ring repair sweeps so op-based delivery converges despite loss
        for k in range(n):
            for i, pid in enumerate(range(n)):
                sim.schedule(
                    40.0 + 3.0 * k,
                    service.resync,
                    pid,
                    (pid + 1) % n,
                )

    sim.run()
    pending = [service.pending_messages(pid) for pid in range(n)]
    return n, logs, pending, service


class TestIndexedCausalEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_delivery_order_identical_to_reference(self, seed):
        n1, logs_new, pending_new, _ = _run_causal(CausalBroadcast, seed)
        n2, logs_ref, pending_ref, _ = _run_causal(
            ReferenceCausalBroadcast, seed
        )
        assert n1 == n2
        assert logs_new == logs_ref  # order, not just multiset
        assert pending_new == pending_ref

    def test_causal_order_holds_in_indexed_path(self):
        """The indexed path still enforces the causal-order property."""
        for seed in range(8):
            sim = Simulator(seed=seed)
            net = Network(sim, 3, delay=DelayModel.uniform(0.5, 5.0))
            service = CausalBroadcast(net)
            logs = [[] for _ in range(3)]
            endpoints = [
                service.endpoint(
                    pid, lambda o, p, q=pid: logs[q].append(p)
                )
                for pid in range(3)
            ]
            endpoints[0].broadcast("question")

            def on_p1(origin, payload):
                logs[1].append(payload)
                if payload == "question":
                    endpoints[1].broadcast("answer")

            service.delivery_handlers[1] = on_p1
            sim.run()
            for log in logs:
                if "answer" in log:
                    assert log.index("question") < log.index("answer")


# ----------------------------------------------------------------------
# Histories bit-identical across the rewrite (pre-rewrite goldens)
# ----------------------------------------------------------------------
#: sha256 fingerprints of recorded histories (invocations, outputs and
#: invocation/response times), generated at the pre-PR 5 runtime (commit
#: 424c557) by running ``run_scenario_cell`` over these cells and hashing
#: with :meth:`RunResult.fingerprint` — the scheduler/broadcast rewrite
#: must not move a single recorded bit.  (Deliberately no gossip cell on
#: an open-loop scenario: PR 5 extends the gossip round budget past the
#: open-loop arrival horizon, which legitimately changes those runs.)
GOLDEN_FINGERPRINTS = {
    ("partition-during-writes", "ccv-fig5", 0):
        "7b5c85bf764784ea7c9cd639aeee0885b2a99ca57449ed0864286e5483b9e193",
    # churn and rolling-crashes route through crash recovery: supervised
    # resync (PR 6) schedules a verification check RESYNC_TIMEOUT after
    # each recovery, which extends simulated quiescence and therefore the
    # timestamps of the end-of-run probe reads.  Delivered values and
    # delivery order are unchanged (checked by the stranded-resync tests);
    # the goldens below were re-pinned for the new probe times.
    ("churn", "cc-fig4", 1):
        "a967072f70d66d062f93261bc098ce2716ed870ddcd90a0520612c843fc2b321",
    ("long-fat-network", "ccv-generic", 0):
        "1063f1df38f51675baf0e63ce390352a666cbc54f0567be54ae96d2857cd4ac9",
    ("flaky-link", "gossip", 0):
        "c54472f6ff00d4a15555af3fa4d4804a6d8d66ae8b1e835645a9f379fe0f0c1c",
    ("rolling-crashes", "pram", 0):
        "77c661fa8433b00ad78b9502c1450cada12a9f1b83890250e435a4116ec4ed53",
    ("open-loop-overload", "lww", 0):
        "d575ce418dd7591be3221c674bcd5a9bf34d90490f8e1ce8df4371df95c7657e",
    ("hot-key-contention", "ccv-fig5", 1):
        "ebf4a6e8f87c813fbbba81d74d9087d6f5f6a49512b84ca769a36f31a54852bd",
    ("delay-spike", "sc-sequencer", 0):
        "cabe78e62fb9bb6a96fd6ab1cec7dd11566f7ecfe8be78a7dce14313d063436c",
    # the registry key the cells above do not reach, recorded at commit
    # 0dc7789 (the n-wide algorithm classes) before the per-process
    # replica rewrite, so all eight keys are pinned through it
    ("churn", "cc-generic", 0):
        "28fd1c9664cf413f6db20b3d270d4ef1c5ee2a4c4403e9ded2b6547be6f31462",
}

#: the rows of the retired ``bench_runtime.py --smoke --baseline`` drift
#: gate: 9 ad-hoc specs (n=4/8/12 open loop, two partitions, per-link
#: delays, FIFO/pram, reliable/lww, the stability-GC cell) x 2 seeds,
#: and the fast explore verdict vector — values carried over from its
#: committed baseline, not re-recorded
RUNTIME_GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "goldens" / "runtime.json").read_text()
)
#: the golden file's specs, which the scenario registry does not hold
GOLDEN_SPECS = {}
for _row in RUNTIME_GOLDENS["histories"]:
    _spec = ScenarioSpec.from_dict(_row["spec"])
    GOLDEN_SPECS[_spec.name] = _spec
    for _seed, _fingerprint in enumerate(_row["fingerprints"]):
        GOLDEN_FINGERPRINTS[(_spec.name, _row["algorithm"], _seed)] = _fingerprint


#: the same cells under the reliable broadcast's default, direct sends
#: with heartbeat-digest repair, for every row over a reliable broadcast
DIRECT_FINGERPRINTS = {
    (scenario, algorithm, seed): fingerprint
    for scenario, algorithm, seed, fingerprint in json.loads(
        (pathlib.Path(__file__).parent / "goldens" / "runtime_direct.json").read_text()
    )["fingerprints"]
}


def as_recorded(algorithm):
    """The class the flood goldens were recorded under: every reliable
    broadcast flooded then, so the row runs over ``oracles.flooded``; a
    row over no reliable broadcast runs its registry class."""
    return flooded(ALGORITHMS[algorithm].cls)


class TestHistoryGoldens:
    @pytest.mark.parametrize(
        "scenario,algorithm,seed", sorted(GOLDEN_FINGERPRINTS)
    )
    def test_fingerprint_unchanged(self, scenario, algorithm, seed):
        spec = GOLDEN_SPECS.get(scenario) or get_scenario(scenario)
        result = ALGORITHMS[algorithm].run(
            spec, seed, cls=as_recorded(algorithm)
        )
        assert (
            result.fingerprint()
            == GOLDEN_FINGERPRINTS[(scenario, algorithm, seed)]
        )

    @pytest.mark.parametrize(
        "scenario,algorithm,seed", sorted(DIRECT_FINGERPRINTS)
    )
    def test_direct_fingerprint_unchanged(self, scenario, algorithm, seed):
        spec = GOLDEN_SPECS.get(scenario) or get_scenario(scenario)
        result = ALGORITHMS[algorithm].run(spec, seed)
        assert (
            result.fingerprint()
            == DIRECT_FINGERPRINTS[(scenario, algorithm, seed)]
        )

    def test_every_flooded_cell_has_a_direct_row(self):
        assert sorted(DIRECT_FINGERPRINTS) == sorted(
            key
            for key in GOLDEN_FINGERPRINTS
            if as_recorded(key[1]) is not ALGORITHMS[key[1]].cls
        )

    def test_explore_verdicts_unchanged(self):
        explore = RUNTIME_GOLDENS["explore"]
        report = run_matrix(
            scenarios=explore["scenarios"], seeds=1, jobs=1, fast=True
        )
        assert [
            [c.scenario, c.algorithm, c.seed, c.ok, c.expected]
            for c in report.cells
        ] == explore["verdicts"]

    def test_same_seed_same_history(self):
        spec = get_scenario("partition-during-writes")
        runs = [
            Scenario(spec).run(
                CCvWindowArray, seed=5, streams=spec.streams, k=spec.k
            )
            for _ in range(2)
        ]
        assert runs[0].fingerprint() == runs[1].fingerprint()


# ----------------------------------------------------------------------
# Simulator: tuple heap, O(1) pending
# ----------------------------------------------------------------------
class TestSimulatorPending:
    def test_pending_matches_shadow_model(self):
        sim = Simulator(seed=3)
        rng = random.Random(17)
        due = []  # the shadow: when each scheduled event runs
        for _ in range(200):
            if rng.random() < 0.7 or not due:
                delay = rng.uniform(0.0, 10.0)
                sim.schedule(delay, lambda: None)
                due.append(sim.now + delay)
            else:
                until = sim.now + rng.uniform(0.0, 5.0)
                sim.run(until=until)
                due = [t for t in due if t > until]
            assert sim.pending == len(due)
        sim.run()
        assert sim.pending == 0

    def test_pending_drains_with_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        assert sim.pending == 1

    def test_scheduled_args_passed(self):
        sim = Simulator()
        trace = []
        sim.schedule(1.0, lambda a, b: trace.append((a, b)), 1, "z")
        sim.run()
        assert trace == [(1, "z")]

    def test_budget_exceeded_preserves_event(self):
        sim = Simulator()
        trace = []
        for i in range(5):
            sim.schedule(float(i + 1), trace.append, i)
        with pytest.raises(RuntimeError):
            sim.run(max_events=3)
        assert trace == [0, 1, 2]
        # the un-run event survived the budget stop
        sim.run(max_events=100)
        assert trace == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# Causal-stability GC
# ----------------------------------------------------------------------
class TestStabilityGC:
    def _flood(self, service, sim, n, count, start=0.0):
        for i in range(count):
            sim.schedule(
                start + 0.01 * i, service.broadcast, i % n, ("m", i)
            )

    def test_logs_bounded_on_long_runs(self):
        sim = Simulator(seed=1)
        n = 4
        net = Network(sim, n, delay=DelayModel.uniform(0.5, 1.5))
        service = ReliableBroadcast(net)
        service.GC_INTERVAL = 64
        for pid in range(n):
            service.endpoint(pid, lambda o, p: None)
        self._flood(service, sim, n, 3000)
        sim.run()
        service.sweep()  # final sweep: traffic has fully quiesced
        assert service.gc_runs > 1
        assert service.gc_pruned > 0
        # without GC every replica would retain all 3000 messages
        assert max(service.log_sizes()) < 500

    def test_frozen_frontier_retains_messages_for_crashed(self):
        sim = Simulator(seed=2)
        n = 3
        net = Network(sim, n, delay=DelayModel.constant(0.5))
        service = ReliableBroadcast(net)
        service.GC_INTERVAL = 32
        delivered = [[] for _ in range(n)]
        for pid in range(n):
            service.endpoint(
                pid, lambda o, p, q=pid: delivered[q].append(p)
            )
        sim.schedule(1.0, net.crash, 2)
        self._flood(service, sim, n, 500, start=2.0)
        sim.run()
        # everything p2 missed must still be in the live logs (its
        # frontier froze, pinning the stability frontier)
        seen_by_2 = service.seen_ids(2)
        missed = [
            m for m in service.retained_log(0) if m["id"] not in seen_by_2
        ]
        assert len(missed) > 200
        net.recover(2)
        resent = service.resync(2)
        assert resent == len(missed)
        sim.run()
        assert sorted(delivered[2]) == sorted(delivered[0])

    def test_resync_correct_after_gc_pruning(self):
        """A recovered replica replays exactly its missed deliveries even
        though stable prefixes were pruned from the helper's log."""
        sim = Simulator(seed=3)
        n = 3
        net = Network(sim, n, delay=DelayModel.uniform(0.2, 0.8))
        service = CausalBroadcast(net)
        service.GC_INTERVAL = 16
        delivered = [[] for _ in range(n)]
        for pid in range(n):
            service.endpoint(
                pid, lambda o, p, q=pid: delivered[q].append(p)
            )
        # phase 1: everybody sees plenty of traffic (GC prunes it)
        self._flood(service, sim, n, 200, start=0.0)
        sim.run()
        assert service.gc_pruned > 0
        # phase 2: p1 crashes and misses a batch
        net.crash(1)
        self._flood(service, sim, n, 100, start=1.0)
        sim.run()
        net.recover(1)
        service.resync(1)
        sim.run()
        assert sorted(delivered[1]) == sorted(delivered[0])

    def test_duplicates_below_frontier_rejected(self):
        sim = Simulator(seed=4)
        net = Network(sim, 2, delay=DelayModel.constant(0.5))
        service = ReliableBroadcast(net)
        count = [0]
        service.endpoint(0, lambda o, p: None)
        service.endpoint(1, lambda o, p: count.__setitem__(0, count[0] + 1))
        for i in range(10):
            service.broadcast(0, i)
        sim.run()
        assert count[0] == 10
        # replay a stale copy straight through the receive path: the
        # frontier (not the spill set) must reject it
        stale = {"id": (0, 0), "origin": 0, "payload": 0}
        assert service.seen_ids(1) == {(0, seq) for seq in range(10)}
        net.handlers[1](0, stale)
        assert count[0] == 10


# ----------------------------------------------------------------------
# LWW incremental replay == full fold
# ----------------------------------------------------------------------
class TestLwwIncrementalReplay:
    @pytest.mark.parametrize("algorithm_cls", [LwwReplication, GenericCCv])
    def test_states_equal_full_fold(self, algorithm_cls):
        spec = ScenarioSpec(
            name="lww-fold", n=4, streams=3,
            workload=WorkloadSpec(
                kind="open", ops_per_process=40, rate=3.0,
                write_ratio=0.6, hot_key_weight=0.5,
            ),
        )
        result = Scenario(spec).run(
            algorithm_cls, seed=3, adt=WindowStreamArray(3, 2)
        )
        algo = result.algorithm
        for pid in range(spec.n):
            state = algo.adt.initial_state()
            for _key, invocation in algo.replicas[pid].log:
                state = algo.adt.transition(state, invocation)
            assert algo.state_of(pid) == state


# ----------------------------------------------------------------------
# Deterministic cell ordering, scale scenarios
# ----------------------------------------------------------------------
class TestMatrixOrderAndScale:
    def test_cell_order_is_generation_order(self):
        report = run_matrix(
            scenarios=["quiet-then-burst", "delay-spike"],
            algorithms=["lww", "pram"],
            seeds=2,
            jobs=2,
            fast=True,
        )
        assert [(c.scenario, c.algorithm, c.seed) for c in report.cells] == [
            (s, a, seed)
            for s in ("quiet-then-burst", "delay-spike")
            for a in ("lww", "pram")
            for seed in range(2)
        ]

    def test_scale_scenarios_registered_but_not_default(self):
        default = scenario_names()
        assert "scale-n8-hotkey" not in default
        assert "scale-n12-hotkey" not in default
        with_scale = scenario_names(include_scale=True)
        for name in SCALE_SCENARIOS:
            assert name in with_scale
            spec = get_scenario(name)
            assert spec.workload.ops_per_process * spec.n >= 10_000
            assert spec.workload.kind == "open"
            assert spec.workload.hot_key_weight >= 0.5
        assert get_scenario("scale-n8-hotkey").n == 8
        assert get_scenario("scale-n12-hotkey").n == 12

    def test_scale_smoke_conclusive(self):
        report = run_matrix(
            scenarios=["scale-n8-hotkey", "scale-n12-hotkey"],
            algorithms=["lww", "gossip"],
            seeds=1,
            jobs=1,
            fast=True,
        )
        assert all(c.ok is True for c in report.cells)

    def test_unknown_scenario_error_lists_scale_names(self):
        with pytest.raises(KeyError, match="scale-n8-hotkey"):
            get_scenario("no-such-scenario")
