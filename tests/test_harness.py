"""Tests for the shared run harness (`repro.analysis.harness`)."""

import random

import pytest

from repro.adts import WindowStreamArray
from repro.algorithms import CCWindowArray, CCvWindowArray
from repro.analysis.harness import run_workload, window_script
from repro.core.operations import Invocation
from repro.runtime import DelayModel


class TestRunWorkload:
    def test_script_count_must_match_processes(self):
        with pytest.raises(ValueError):
            run_workload(CCWindowArray, 3, [[]], seed=0, streams=1, k=2)

    def test_all_script_operations_recorded(self):
        scripts = [[Invocation("w", (0, 1)), Invocation("r", (0,))]] * 2
        result = run_workload(CCWindowArray, 2, scripts, seed=1, streams=1, k=2)
        assert result.ops == 4
        assert len(result.history) == 4

    def test_quiescence_reads_are_stable_and_consistent(self):
        scripts = [[Invocation("w", (0, pid + 1))] for pid in range(3)]
        result = run_workload(
            CCvWindowArray, 3, scripts, seed=2, streams=1, k=2,
            quiescence_reads=[Invocation("r", (0,))],
        )
        assert len(result.stable) == 3
        outputs = {result.history.event(e).output for e in result.stable}
        assert len(outputs) == 1  # CCv converged before the stable reads

    def test_crashed_processes_skip_quiescence_reads(self):
        scripts = [[Invocation("w", (0, pid + 1))] for pid in range(3)]
        result = run_workload(
            CCvWindowArray, 3, scripts, seed=3, streams=1, k=2,
            quiescence_reads=[Invocation("r", (0,))],
            crash_plan={2: 0.01},
        )
        assert len(result.stable) == 2

    def test_determinism(self):
        scripts = [window_script(random.Random(9), 5, 2) for _ in range(2)]
        a = run_workload(CCWindowArray, 2, scripts, seed=5, streams=2, k=2)
        b = run_workload(CCWindowArray, 2, scripts, seed=5, streams=2, k=2)
        assert repr(a.history) == repr(b.history)
        assert a.network_stats.sent == b.network_stats.sent

    def test_messages_per_op_accounting(self):
        scripts = [[Invocation("w", (0, 1))], [Invocation("r", (0,))]]
        result = run_workload(
            CCWindowArray, 2, scripts, seed=6, streams=1, k=2, flood=False
        )
        assert result.messages_per_op == pytest.approx(0.5)  # 1 msg / 2 ops


class TestWindowScript:
    def test_deterministic_given_rng(self):
        assert window_script(random.Random(3), 6, 2) == window_script(
            random.Random(3), 6, 2
        )

    def test_respects_write_ratio_extremes(self):
        reads_only = window_script(random.Random(1), 10, 2, write_ratio=0.0)
        writes_only = window_script(random.Random(1), 10, 2, write_ratio=1.0)
        assert all(op.method == "r" for op in reads_only)
        assert all(op.method == "w" for op in writes_only)

    def test_stream_indices_in_range(self):
        for op in window_script(random.Random(2), 20, 3):
            assert 0 <= op.args[0] < 3


class TestDelayModels:
    def test_per_link_stable_base(self):
        model = DelayModel.per_link(1.0, 10.0, jitter=0.0)
        rng = random.Random(0)
        first = model.sample(rng, 0, 1)
        assert all(model.sample(rng, 0, 1) == first for _ in range(5))
        # a different link gets its own (generally different) base
        other = model.sample(rng, 1, 0)
        assert other != first or True  # may collide; only stability matters

    def test_per_link_refuses_jitter_above_one(self):
        with pytest.raises(ValueError, match="'jitter' must be in"):
            DelayModel.per_link(0.5, 3.0, jitter=1.5)
        model = DelayModel.per_link(0.5, 3.0, jitter=1.0)
        rng = random.Random(0)
        assert all(model.sample(rng, 0, 1) >= 0 for _ in range(200))

    def test_exhaustive_consensus_boundary(self):
        from repro.analysis.consensus import solves_consensus_exhaustively

        for n in range(1, 5):
            for k in range(1, 4):
                assert solves_consensus_exhaustively(n, k) == (n <= k), (n, k)
