"""Linearizability checker ([13]) and its contrast with the weak criteria."""

import pytest

from repro.adts import MemoryADT, WindowStreamArray
from repro.algorithms import CCWindowArray, ScSequencer
from repro.core import History
from repro.core.operations import Invocation
from repro.criteria import check, check_linearizable
from repro.scenarios import DelaySpec, Scenario, ScenarioSpec, WorkloadSpec


def intervals_from_recorder(recorder):
    """Invocation/response intervals in :meth:`HistoryRecorder.to_history`
    event numbering."""
    intervals = {}
    for row in recorder.rows:
        for record in row:
            intervals[len(intervals)] = (record.start, record.end)
    return intervals


class TestChecker:
    def test_sc_but_not_linearizable(self):
        """The classic stale-read: SC accepts reading an old value after
        the write responded in real time; linearizability does not."""
        mem = MemoryADT("a")
        h = History.from_processes(
            [
                [mem.write("a", 1)],
                [mem.read("a", 0)],
            ]
        )
        assert check(h, mem, "SC").ok
        # the write finished strictly before the read started
        intervals = {0: (0.0, 1.0), 1: (2.0, 3.0)}
        assert not check_linearizable(h, mem, intervals=intervals).ok

    def test_overlapping_operations_may_order_either_way(self):
        mem = MemoryADT("a")
        h = History.from_processes(
            [
                [mem.write("a", 1)],
                [mem.read("a", 0)],
            ]
        )
        intervals = {0: (0.0, 5.0), 1: (2.0, 3.0)}  # overlap: read may precede
        assert check_linearizable(h, mem, intervals=intervals).ok

    def test_missing_interval_rejected(self):
        mem = MemoryADT("a")
        h = History.from_processes([[mem.write("a", 1)], [mem.read("a", 1)]])
        with pytest.raises(ValueError):
            check_linearizable(h, mem, intervals={0: (0, 1)})

    def test_degenerates_to_sc_without_intervals(self):
        mem = MemoryADT("a")
        h = History.from_processes([[mem.write("a", 1)], [mem.read("a", 0)]])
        result = check_linearizable(h, mem)
        assert result.ok and "degenerates" in result.reason


class TestAlgorithms:
    def test_sequencer_runs_are_linearizable(self):
        adt = WindowStreamArray(1, 2)
        scripts = [
            [Invocation("w", (0, pid + 1)), Invocation("r", (0,))]
            for pid in range(3)
        ]
        spec = ScenarioSpec(
            name="sequencer", n=3, streams=1, k=2, quiescence_reads=False
        )
        res = Scenario(spec).run(ScSequencer, seed=1, scripts=scripts, adt=adt)
        intervals = intervals_from_recorder(res.recorder)
        assert check_linearizable(res.history, adt, intervals=intervals).ok

    def test_wait_free_cc_not_linearizable_on_stale_read(self):
        """Find a schedule where the CC algorithm's local read is stale in
        real time — CC holds, linearizability does not (the price of
        wait-freedom)."""
        adt = WindowStreamArray(1, 2)
        spec = ScenarioSpec(
            name="stale-read", n=2, streams=1, k=2,
            delay=DelaySpec("uniform", (5.0, 20.0)),
            workload=WorkloadSpec(think=(3.0, 8.0)),
            quiescence_reads=False,
        )
        witnessed = False
        for seed in range(20):
            scripts = [
                [Invocation("w", (0, 1))],
                [Invocation("r", (0,)), Invocation("r", (0,))],
            ]
            res = Scenario(spec).run(
                CCWindowArray, seed=seed, scripts=scripts, streams=1, k=2
            )
            intervals = intervals_from_recorder(res.recorder)
            lin = check_linearizable(res.history, adt, intervals=intervals)
            assert check(res.history, adt, "CC").ok
            if not lin.ok:
                witnessed = True
                break
        assert witnessed, "no stale-read schedule found in 20 seeds"
