"""The scenario engine: specs, fault schedules, workloads, matrix runner.

Pins the subsystem's contracts: JSON round trips, fault-schedule
determinism (same seed, same history), crash/recover with anti-entropy
state rejoin, open-loop arrivals exposing blocked operations, and the
matrix runner's verdict aggregation (serial and parallel paths).
"""

import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest
from oracles import flooded

from repro.adts import WindowStreamArray
from repro.algorithms import (
    CCvWindowArray,
    CCWindowArray,
    GenericCCv,
    ScSequencer,
)
from repro.core.operations import Invocation
from repro.criteria import check
from repro.runtime import DelayModel, Network, ReliableBroadcast, Simulator
from repro.scenarios import (
    ALGORITHMS,
    DelaySpec,
    FaultEvent,
    FaultSchedule,
    PhaseClock,
    SCENARIOS,
    Scenario,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
    make_script,
    run_matrix,
    scenario_names,
    window_script,
)

F = FaultEvent


class TestSpecRoundTrip:
    def test_every_builtin_scenario_round_trips_through_json(self):
        for name in scenario_names():
            spec = get_scenario(name)
            again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert again == spec, name

    def test_minimal_dict_fills_defaults(self):
        spec = ScenarioSpec.from_dict(
            {"name": "x", "delay": {"kind": "constant", "params": [2.0]}}
        )
        assert spec.n == 3 and spec.workload.kind == "closed"
        assert spec.delay.build().sample(None, 0, 1) == 2.0

    def test_name_only_dict_is_enough(self):
        spec = ScenarioSpec.from_dict({"name": "bare"})
        assert spec.delay == DelaySpec()

    def test_fast_shrinks_ops_only(self):
        spec = get_scenario("rolling-crashes")
        fast = spec.fast(3)
        assert fast.workload.ops_per_process == 3
        assert fast.faults == spec.faults

    def test_unknown_delay_kind_rejected(self):
        with pytest.raises(ValueError):
            DelaySpec(kind="quantum").build()

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="semi-open")

    def test_unknown_fault_action_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule([FaultEvent(1.0, "meteor")])


class TestSpecParseValidation:
    """Malformed specs fail at parse time, naming the broken field —
    not as a ``TypeError`` from a factory or an index error mid-run."""

    def test_delay_params_arity_named_in_message(self):
        with pytest.raises(ValueError, match=r"'uniform' takes 2.*low, high"):
            DelaySpec("uniform", (1.0,))
        with pytest.raises(ValueError, match=r"'constant' takes 1"):
            DelaySpec("constant", (1.0, 2.0))
        # optional trailing parameters stay optional
        assert DelaySpec("exponential", (0.5,)).build() is not None
        assert DelaySpec("per-link", (0.5, 1.5)).build() is not None

    def test_delay_param_values_validated(self):
        with pytest.raises(ValueError, match=r"'delay' must be a finite"):
            DelaySpec("constant", (-1.0,))
        with pytest.raises(ValueError, match=r"'mean' must be a finite"):
            DelaySpec("exponential", (float("nan"), 0.01))
        with pytest.raises(ValueError, match="low <= high"):
            DelaySpec("uniform", (2.0, 1.0))

    def test_per_link_jitter_above_one_rejected(self):
        # the factor 1 + uniform(-jitter, jitter) can go negative above 1,
        # which used to pass here and crash mid-run with "cannot schedule
        # in the past"
        with pytest.raises(ValueError, match=r"'jitter' must be <= 1"):
            DelaySpec("per-link", (0.5, 3.0, 1.5))
        entry = ALGORITHMS["ccv-fig5"]
        spec = ScenarioSpec(
            "j", n=4, streams=2, k=2, delay=DelaySpec("per-link", (0.5, 3.0, 1.0))
        )
        result = Scenario(spec).run(entry.cls, seed=0, **entry.kwargs(2, 2))
        assert result.ops > 0

    def test_unknown_delay_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown delay model"):
            DelaySpec(kind="quantum", params=(1.0,))

    def test_scenario_dimensions_validated(self):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            ScenarioSpec("x", n=0)
        with pytest.raises(ValueError, match="streams must be an integer"):
            ScenarioSpec("x", streams=0)
        with pytest.raises(ValueError, match="k must be an integer"):
            ScenarioSpec("x", k=0)

    def test_scenario_loss_rate_range(self):
        with pytest.raises(ValueError, match=r"loss_rate must be in \[0, 1\)"):
            ScenarioSpec("x", loss_rate=1.0)
        with pytest.raises(ValueError, match="loss_rate"):
            ScenarioSpec("x", loss_rate=-0.1)
        assert ScenarioSpec("x", loss_rate=0.99).loss_rate == 0.99

    def test_from_dict_validates_too(self):
        # the JSON parse path constructs the same dataclasses, so the
        # same checks fire on documents read from disk
        with pytest.raises(ValueError, match="delay model"):
            ScenarioSpec.from_dict(
                {"name": "x", "delay": {"kind": "uniform", "params": [1.0]}}
            )
        with pytest.raises(ValueError, match="loss_rate"):
            ScenarioSpec.from_dict({"name": "x", "loss_rate": 2.0})

    def test_fault_event_dict_round_trip_preserves_validation(self):
        event = FaultEvent.flap(2.0, 0, 1, cycles=2, period=0.5)
        from dataclasses import asdict

        again = FaultEvent.from_dict(asdict(event))
        assert again == event
        bad = asdict(event)
        bad["count"] = 0
        with pytest.raises(ValueError, match="count >= 1"):
            FaultEvent.from_dict(bad)

    def test_validated_specs_round_trip_unchanged(self):
        spec = ScenarioSpec(
            "edge",
            n=2,
            streams=1,
            k=1,
            delay=DelaySpec("per-link", (0.1, 0.9, 0.05)),
            loss_rate=0.25,
            faults=(FaultEvent.loss(1.0, 0.5), FaultEvent.repair(2.0)),
        )
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


class TestWorkloads:
    def test_script_deterministic_per_seed(self):
        spec = WorkloadSpec(ops_per_process=20)
        a = make_script(random.Random(3), spec, 2, pid=0)
        b = make_script(random.Random(3), spec, 2, pid=0)
        assert a == b

    def test_write_ratio_extremes(self):
        reads = make_script(
            random.Random(1), WorkloadSpec(ops_per_process=20, write_ratio=0.0), 2, 0
        )
        writes = make_script(
            random.Random(1), WorkloadSpec(ops_per_process=20, write_ratio=1.0), 2, 0
        )
        assert all(op.method == "r" for op in reads)
        assert all(op.method == "w" for op in writes)

    def test_hot_key_skew_concentrates_on_stream_zero(self):
        spec = WorkloadSpec(ops_per_process=200, hot_key_weight=0.9)
        script = make_script(random.Random(5), spec, 8, 0)
        hot = sum(1 for op in script if op.args[0] == 0)
        assert hot > 100  # ~0.9 + 1/8 of the rest, vs 25 expected uniform

    def test_window_script_deterministic_given_rng(self):
        assert window_script(random.Random(3), 6, 2) == window_script(
            random.Random(3), 6, 2
        )

    def test_window_script_writes_half_the_time(self):
        script = window_script(random.Random(1), 400, 2)
        writes = sum(op.method == "w" for op in script)
        assert 150 < writes < 250

    def test_window_script_stream_indices_in_range(self):
        for op in window_script(random.Random(2), 20, 3):
            assert 0 <= op.args[0] < 3

    def test_phase_clock_cycles(self):
        clock = PhaseClock(((5.0, 0.25), (2.0, 4.0)))
        assert clock.intensity(1.0) == 0.25
        assert clock.intensity(6.0) == 4.0
        assert clock.intensity(8.0) == 0.25  # wrapped around
        assert PhaseClock(()).intensity(3.0) == 1.0


class TestScenarioRuns:
    def test_same_seed_same_history(self):
        """FaultSchedule determinism: a faulted scenario replayed with the
        same seed yields the identical history and message counts."""
        scenario = Scenario(get_scenario("churn"))
        a = scenario.run(CCvWindowArray, seed=11, streams=2, k=2)
        b = scenario.run(CCvWindowArray, seed=11, streams=2, k=2)
        assert repr(a.history) == repr(b.history)
        assert a.network_stats.sent == b.network_stats.sent
        assert a.duration == b.duration

    def test_different_seed_different_history(self):
        scenario = Scenario(get_scenario("churn"))
        a = scenario.run(CCvWindowArray, seed=11, streams=2, k=2)
        b = scenario.run(CCvWindowArray, seed=12, streams=2, k=2)
        assert repr(a.history) != repr(b.history)

    def test_crash_pauses_client_and_recover_resumes(self):
        spec = ScenarioSpec(
            name="one-crash",
            n=3,
            delay=DelaySpec("constant", (1.0,)),
            faults=(F.crash(2.0, 1), F.recover(10.0, 1)),
            workload=WorkloadSpec(ops_per_process=6, think=(0.5, 1.5)),
        )
        result = Scenario(spec).run(CCvWindowArray, seed=0, streams=2, k=2)
        # the crashed process finished its script after recovery
        assert result.issued == result.completed == 18
        rows = result.recorder.rows
        crash_gap = [r for r in rows[1] if 2.0 <= r.start < 10.0]
        assert crash_gap == []  # nothing issued while down

    def test_recovered_replica_rejoins_via_resync(self):
        """State rejoin: p1 is down while others write; after recovery
        plus broadcast anti-entropy all replicas expose the same window
        and the history stays CCv."""
        spec = ScenarioSpec(
            name="rejoin",
            n=3,
            delay=DelaySpec("constant", (0.5,)),
            faults=(F.crash(1.0, 1), F.recover(8.0, 1)),
            workload=WorkloadSpec(ops_per_process=4, write_ratio=1.0),
        )
        result = Scenario(spec).run(CCvWindowArray, seed=2, streams=2, k=2)
        obj = result.algorithm
        windows = {
            tuple(obj.window(pid, x) for x in range(2)) for pid in range(3)
        }
        assert len(windows) == 1, windows
        assert check(result.history, WindowStreamArray(2, 2), "CCV").ok

    def test_repair_sweeps_fix_lossy_run(self):
        """flaky-link's loss burst loses op-based broadcast messages; the
        scheduled anti-entropy repairs restore convergence."""
        result = Scenario(get_scenario("flaky-link")).run(
            CCvWindowArray, seed=0, streams=2, k=2
        )
        assert result.network_stats.lost > 0  # the burst actually bit
        obj = result.algorithm
        windows = {
            tuple(obj.window(pid, x) for x in range(2)) for pid in range(4)
        }
        assert len(windows) == 1, windows

    def test_straggling_completion_across_crash_keeps_one_chain(self):
        """A crash/recover window shorter than the round trip: the
        in-flight operation's completion arrives after the client has
        already resumed.  It must be ignored (epoch check) — the
        closed-loop client never runs two issue chains, so recorded
        operations of each process stay non-overlapping."""
        spec = ScenarioSpec(
            name="short-crash",
            n=2,
            delay=DelaySpec("constant", (1.0,)),
            # p1's op issued at t=0 has a ~2-unit round trip; the crash
            # window [0.5, 1.0] sits entirely inside it
            faults=(F.crash(0.5, 1), F.recover(1.0, 1)),
            workload=WorkloadSpec(ops_per_process=4, think=(0.1, 0.2)),
            quiescence_reads=False,
        )
        result = Scenario(spec).run(
            ScSequencer, seed=0, adt=WindowStreamArray(2, 2)
        )
        for row in result.recorder.rows:
            for prev, cur in zip(row, row[1:]):
                assert cur.start >= prev.end, (prev, cur)

    def test_open_loop_counts_blocked_operations(self):
        """Open-loop arrivals do not wait: the sequencer accumulates a
        visible issued/completed gap while a partition blocks it."""
        spec = ScenarioSpec(
            name="open-blocked",
            n=3,
            delay=DelaySpec("constant", (1.0,)),
            faults=(F.partition(1.0, (0,), (1, 2)),),  # never heals
            workload=WorkloadSpec(kind="open", ops_per_process=5, rate=2.0),
            quiescence_reads=False,
        )
        result = Scenario(spec).run(
            ScSequencer, seed=1, adt=WindowStreamArray(2, 2)
        )
        assert result.blocked > 0
        wait_free = Scenario(spec).run(CCWindowArray, seed=1, streams=2, k=2)
        assert wait_free.blocked == 0

    def test_quiescence_reads_follow_spec(self):
        spec = ScenarioSpec(
            name="qreads",
            n=2,
            workload=WorkloadSpec(ops_per_process=2, write_ratio=1.0),
            quiescence_reads=True,
            streams=2,
        )
        result = Scenario(spec).run(CCvWindowArray, seed=0, streams=2, k=2)
        assert len(result.stable) == 2 * 2  # one read per stream per process
        assert result.ops == 2 * 2 + 4

    def test_history_is_built_on_first_use_and_kept(self):
        """A run that is only fingerprinted, swept or monitored through
        ``subscriber=`` never builds the N events it would not read."""
        spec = ScenarioSpec(
            name="lazy",
            n=4,
            workload=WorkloadSpec(ops_per_process=500, think=(0.01, 0.05)),
            streams=2,
        )
        seen = []
        result = Scenario(spec).run(
            CCvWindowArray, seed=1, streams=2, k=2, subscriber=seen.append
        )
        assert result.ops == len(seen) >= 2000
        result.fingerprint()
        assert "history" not in vars(result) and "stable" not in vars(result)
        history = result.history
        assert result.history is history and "history" in vars(result)
        assert len(history) == result.ops
        assert result.stable is result.stable
        assert result.stable == result.recorder.stable_eids()


class TestScriptedRuns:
    """``Scenario.run(scripts=...)``: hand-written scripts in place of the
    spec's generated ones, under the spec's delays and faults."""

    def test_script_count_must_match_processes(self):
        spec = ScenarioSpec(name="short", n=3, streams=1)
        with pytest.raises(ValueError, match="one script per process"):
            Scenario(spec).run(CCWindowArray, seed=0, scripts=[[]], streams=1, k=2)

    def test_all_script_operations_recorded(self):
        spec = ScenarioSpec(name="scripted", n=2, streams=1, quiescence_reads=False)
        scripts = [[Invocation("w", (0, 1)), Invocation("r", (0,))]] * 2
        result = Scenario(spec).run(
            CCWindowArray, seed=1, scripts=scripts, streams=1, k=2
        )
        assert result.ops == 4
        assert len(result.history) == 4

    def test_explicit_quiescence_reads_are_stable_and_consistent(self):
        spec = ScenarioSpec(name="scripted", n=3, streams=1, quiescence_reads=False)
        scripts = [[Invocation("w", (0, pid + 1))] for pid in range(3)]
        result = Scenario(spec).run(
            CCvWindowArray, seed=2, scripts=scripts, streams=1, k=2,
            quiescence_reads=[Invocation("r", (0,))],
        )
        assert len(result.stable) == 3
        outputs = {result.history.event(e).output for e in result.stable}
        assert len(outputs) == 1  # CCv converged before the stable reads

    def test_crashed_processes_skip_quiescence_reads(self):
        spec = ScenarioSpec(
            name="crash-stop", n=3, streams=1, faults=(F.crash(0.01, 2),),
        )
        scripts = [[Invocation("w", (0, pid + 1))] for pid in range(3)]
        result = Scenario(spec).run(
            CCvWindowArray, seed=3, scripts=scripts, streams=1, k=2
        )
        assert len(result.stable) == 2

    def test_same_seed_same_history(self):
        spec = ScenarioSpec(name="scripted", n=2, streams=2)
        scripts = [window_script(random.Random(9), 5, 2) for _ in range(2)]
        a = Scenario(spec).run(CCWindowArray, seed=5, scripts=scripts, streams=2, k=2)
        b = Scenario(spec).run(CCWindowArray, seed=5, scripts=scripts, streams=2, k=2)
        assert repr(a.history) == repr(b.history)
        assert a.network_stats.sent == b.network_stats.sent

    def test_messages_per_op_accounting(self):
        spec = ScenarioSpec(name="scripted", n=2, streams=1, quiescence_reads=False)
        scripts = [[Invocation("w", (0, 1))], [Invocation("r", (0,))]]
        result = Scenario(spec).run(
            CCWindowArray, seed=6, scripts=scripts, streams=1, k=2
        )
        assert result.messages_per_op == pytest.approx(0.5)  # 1 msg / 2 ops


def sim_faults_specs():
    """The four n=8 fault profiles of the benchmark's ``sim_faults``
    workload (``benchmarks/suite/sim.py``), 500 operations per process."""
    n = 8

    def repairs(start):
        return tuple(F.repair(start + 10.0 * i) for i in range(n - 1))

    faults = {
        "lossdup": (
            F.loss(0.0, 0.05),
            F.duplicate(0.0, 0.05),
            F.loss(200.0, 0.0),
            F.duplicate(200.0, 0.0),
        )
        + repairs(300.0),
        "reorder": (F.reorder(50.0, 60.0),),
        "partition": (
            F.partition(40.0, range(n // 2), range(n // 2, n)),
            F.heal(120.0),
        ),
        "crash": (F.crash(60.0, n - 1), F.recover(140.0, n - 1)) + repairs(320.0),
    }
    delays = {"reorder": DelaySpec("per-link", (0.5, 3.0, 0.2))}
    workload = WorkloadSpec(ops_per_process=500, write_ratio=0.5, think=(0.1, 1.0))
    return {
        name: ScenarioSpec(
            name,
            n=n,
            streams=4,
            k=2,
            delay=delays.get(name, DelaySpec()),
            faults=events,
            workload=workload,
        )
        for name, events in faults.items()
    }


def assert_every_copy_accounted_for(result):
    """At quiescence (every partition healed), every copy sent
    (duplicates included, losses excluded) was delivered, dropped at a
    crashed destination, or elided because its destination already
    held it."""
    assert not result.sim.pending
    s = result.network_stats
    assert s.sent + s.duplicated - s.lost == (
        s.delivered + s.dropped_to_crashed + s.elided
    )


#: every registry row as registered, then each row over a reliable
#: broadcast once more under the flood
ROWS = [(key, False) for key in sorted(ALGORITHMS)] + [
    (key, True)
    for key, entry in sorted(ALGORITHMS.items())
    if flooded(entry.cls) is not entry.cls
]
ROW_IDS = [f"{key}-flood" if over_flood else key for key, over_flood in ROWS]


class TestNetworkConservation:
    @pytest.mark.parametrize("profile", ["lossdup", "reorder", "partition", "crash"])
    def test_sim_faults_profiles_account_for_every_copy(self, profile):
        spec = sim_faults_specs()[profile]
        result = Scenario(spec).run(flooded(CCvWindowArray), seed=1, streams=4, k=2)
        assert result.monitor.ok and result.blocked == 0
        assert_every_copy_accounted_for(result)
        # the eager flood: most copies reach a process that already has
        # the message by the time they are sent
        s = result.network_stats
        assert s.elided > 0.3 * s.sent

    @pytest.mark.parametrize("profile", ["lossdup", "reorder", "partition", "crash"])
    def test_direct_sends_and_their_repairs_account_for_every_copy(self, profile):
        spec = sim_faults_specs()[profile]
        result = Scenario(spec).run(CCvWindowArray, seed=1, streams=4, k=2)
        assert result.monitor.ok and result.blocked == 0
        assert_every_copy_accounted_for(result)
        # a repair is an ordinary copy, counted like any other.  Loss
        # draws repairs, asked for by nacks; so does a crash, since the
        # recovered replica's next copy from an origin shows what it
        # dropped while down; a reorder burst longer than a heartbeat
        # draws digest repairs; a partition only holds copies, so each
        # broadcast is sent once per peer there
        service = result.algorithm.broadcast
        assert (service.repairs_sent > 0) == (profile != "partition")
        assert (service.nacks_sent > 0) == (profile in ("lossdup", "crash"))
        if profile == "partition":
            broadcasts = sum(
                endpoint.frontier[pid] for pid, endpoint in service.endpoints.items()
            )
            assert result.network_stats.sent == broadcasts * (spec.n - 1)

    @pytest.mark.parametrize("key,over_flood", ROWS, ids=ROW_IDS)
    def test_only_a_broadcast_that_offers_a_predicate_elides(self, key, over_flood):
        spec = ScenarioSpec(
            "lossdup-small",
            n=4,
            streams=2,
            k=2,
            faults=(
                F.loss(0.0, 0.05),
                F.duplicate(0.0, 0.05),
                F.loss(10.0, 0.0),
                F.duplicate(10.0, 0.0),
            )
            + tuple(F.repair(15.0 + 3.0 * i) for i in range(3)),
            workload=WorkloadSpec(ops_per_process=30, write_ratio=0.5),
        )
        entry = ALGORITHMS[key]
        cls = flooded(entry.cls) if over_flood else entry.cls
        result = entry.run(spec, 1, cls=cls)
        assert_every_copy_accounted_for(result)
        # the reliable family (flood and direct) offers its endpoints'
        # is_seen; total order and gossip offer nothing
        offers = isinstance(result.algorithm.broadcast, ReliableBroadcast)
        assert (result.network_stats.elided > 0) == offers

    def test_the_matrix_cell_reports_elided_copies(self):
        report = run_matrix(
            scenarios=["dup-storm-flap", "partition-during-writes"],
            algorithms=["ccv-fig5", "sc-sequencer"],
            seeds=1,
            jobs=1,
            fast=True,
        )
        elided = {
            (c.scenario, c.algorithm): c.network["elided"] for c in report.cells
        }
        # a duplicated copy finds its id held; without duplicates direct
        # sends reach each peer once; total order offers no predicate
        assert elided[("dup-storm-flap", "ccv-fig5")] > 0
        assert elided[("partition-during-writes", "ccv-fig5")] == 0
        assert elided[("dup-storm-flap", "sc-sequencer")] == 0
        assert elided[("partition-during-writes", "sc-sequencer")] == 0


class TestMatrixRunner:
    def test_serial_and_parallel_agree(self):
        kwargs = dict(
            scenarios=["partition-during-writes"],
            algorithms=["cc-fig4", "sc-sequencer"],
            seeds=2,
            fast=True,
        )
        serial = run_matrix(jobs=1, **kwargs)
        parallel = run_matrix(jobs=2, **kwargs)
        assert serial.ok and parallel.ok
        key = lambda c: (c.scenario, c.algorithm, c.seed)
        for a, b in zip(
            sorted(serial.cells, key=key), sorted(parallel.cells, key=key)
        ):
            assert (a.ok, a.blocked, a.ops, a.mean_latency) == (
                b.ok,
                b.blocked,
                b.ops,
                b.mean_latency,
            )

    def test_sc_flagged_non_wait_free_under_partition(self):
        report = run_matrix(
            scenarios=["partition-minority"],
            algorithms=["sc-sequencer", "ccv-fig5"],
            seeds=1,
            jobs=1,
            fast=True,
        )
        flagged = {(c.scenario, c.algorithm) for c in report.non_wait_free_flagged()}
        assert ("partition-minority", "sc-sequencer") in flagged
        ccv = [c for c in report.cells if c.algorithm == "ccv-fig5"]
        assert all(c.mean_latency == 0.0 and c.ok for c in ccv)

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            run_matrix(scenarios=["no-such-scenario"], seeds=1, jobs=1)
        with pytest.raises(KeyError):
            run_matrix(algorithms=["no-such-algorithm"], seeds=1, jobs=1)

    def test_report_json_round_trips(self):
        report = run_matrix(
            scenarios=["hot-key-contention"],
            algorithms=["cc-fig4"],
            seeds=1,
            jobs=1,
            fast=True,
        )
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is True
        assert data["cells"][0]["algorithm"] == "cc-fig4"

    def test_each_scenario_runs_its_own_default_algorithms(self):
        report = run_matrix(
            ["churn", "scale-n8-hotkey"], seeds=1, fast=True, jobs=1,
            only="lww",
        )
        assert [(c.scenario, c.algorithm) for c in report.cells] == [
            ("churn", "lww"),
            ("scale-n8-hotkey", "lww"),
        ]
        # the n=32 tier runs lww and ccv-fig5
        report = run_matrix(["scale-n32-hotkey"], seeds=1, fast=True, jobs=1)
        assert [c.algorithm for c in report.cells] == ["lww", "ccv-fig5"]

    def test_a_search_out_of_memory_budget_leaves_the_cell_to_the_monitor(
        self,
    ):
        # shrunk to 224 events over 32 processes, under the search's op
        # cutoff: the CCv search starts, and its branch cache (one copy
        # of every event's row per entry) would reach gigabytes long
        # before the node budget trips
        report = run_matrix(
            ["scale-n32-hotkey"], ["ccv-fig5"], seeds=1, fast=True, jobs=1
        )
        (cell,) = report.cells
        assert cell.ops == 224
        assert "search budget exceeded: branch cache" in cell.note
        assert cell.ok is True and "decided by streaming monitor" in cell.note

    def test_every_algorithm_entry_is_well_formed(self):
        for key, entry in ALGORITHMS.items():
            assert entry.key == key
            assert entry.criterion in ("CC", "CCV", "PC", "SC", "CONV")


class TestScenarioHistorySource:
    def test_generator_is_deterministic_and_classifiable(self):
        from repro.litmus.generators import scenario_window_history

        h1, adt = scenario_window_history("churn", "ccv-fig5", seed=3)
        h2, _ = scenario_window_history("churn", "ccv-fig5", seed=3)
        assert repr(h1) == repr(h2)
        assert check(h1, adt, "CCV").ok

    def test_gossip_source_actually_gossips(self):
        """The generator must start the gossip engine (like the matrix
        runner does): remote writes become visible in local reads."""
        from repro.litmus.generators import scenario_window_history

        history, adt = scenario_window_history(
            "quiet-then-burst", "gossip", seed=2
        )
        seen_values = {
            value
            for event in history
            if event.invocation.method == "r"
            for value in event.output
        }
        # values are pid*1_000 + i for short scripts: reads expose
        # writes from more than one process namespace
        assert len({v // 1_000 for v in seen_values if v}) > 1

    def test_hierarchy_population_accepts_scenario_histories(self):
        from repro.analysis import classify_population

        report = classify_population(
            seed=1, random_histories=0, include_litmus=False,
            scenario_histories=4,
        )
        assert report.histories == 4
        assert report.inclusion_violations == []


class TestExploreCli:
    def test_explore_smoke(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "explore",
                "--scenario",
                "partition-during-writes",
                "--algorithm",
                "cc-fig4",
                "--fast",
                "--seeds",
                "1",
                "--jobs",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "partition-during-writes" in out and "ok 1/1" in out

    def test_a_dead_worker_fails_the_sweep(self):
        # the pool forks after the patch, so every worker runs _die
        script = textwrap.dedent(
            """
            import os, sys
            from repro.cli import main
            from repro.scenarios import matrix

            def _die(job):
                os._exit(3)

            matrix._run_cell = _die
            sys.exit(main([
                "explore", "--scenario", "churn", "--algorithm", "lww",
                "--fast", "--seeds", "2", "--jobs", "2",
            ]))
            """
        )
        src = pathlib.Path(__file__).parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 1
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and "a worker died" in lines[0], done.stderr

    def test_explore_list(self, capsys):
        from repro.cli import main

        rc = main(["explore", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in scenario_names():
            assert name in out
