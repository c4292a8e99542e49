"""Linearizability checker ([13]) and its contrast with the weak criteria."""

import json

import pytest

from repro.adts import MemoryADT, WindowStreamArray
from repro.algorithms import CCWindowArray, ScSequencer
from repro.core import History
from repro.core.operations import Invocation
from repro.cli import main
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



def _classify_lin(tmp_path, capsys, write, read):
    """``repro classify`` on ``w(a,1)`` and a later ``r(a)/0``, each op
    carrying the given extra fields; the LIN row of the table."""
    doc = {
        "adt": {"type": "memory", "registers": "a"},
        "processes": [
            [{"method": "w", "args": ["a", 1], **write}],
            [{"method": "r", "args": ["a"], "output": 0, **read}],
        ],
        "criteria": ["SC", "LIN"],
    }
    path = tmp_path / "history.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert next(line for line in lines if line.startswith("SC")).split()[1] == "yes"
    return next(line for line in lines if line.startswith("LIN"))


class TestClassifyFile:
    def test_lin_is_checked_against_the_files_intervals(self, tmp_path, capsys):
        """The write responds at 1, the read is invoked at 2: SC holds,
        linearizability does not."""
        row = _classify_lin(
            tmp_path, capsys, {"start": 0, "end": 1}, {"start": 2, "end": 3}
        )
        assert row.split()[1] == "no", row

    def test_lin_is_unknown_without_intervals(self, tmp_path, capsys):
        """Never the SC answer under LIN's name: ``?``, naming what the
        file lacks."""
        row = _classify_lin(tmp_path, capsys, {}, {"start": 2})
        assert row.split()[1] == "?", row
        for field in (
            'processes[0][0] "start"', 'processes[0][0] "end"',
            'processes[1][0] "end"',
        ):
            assert field in row


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
