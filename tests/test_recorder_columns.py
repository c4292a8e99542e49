"""The recorder's columns are the records.

:class:`HistoryRecorder` keeps each process's operations as columns (an
interned method code, two int64 argument slots, the output, start and
end) and builds an :class:`OpRecord` only when one is read or a
subscriber is attached.  The recorder before that — one ``OpRecord`` per
call, appended to a list per process — lives on only here, as
:class:`ListRecorder`.  The property drives both with the same random
operation streams and requires every reader to see the same thing:
``rows`` element by element (negative indices and slices included, by
``==`` and by ``repr``), ``count``, ``to_history``, ``stable_eids``,
``latencies`` and the records the subscribers receive.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import History
from repro.core.operations import BOTTOM, HIDDEN, Invocation, Operation
from repro.runtime.recorder import HistoryRecorder, OpRecord


class ListRecorder:
    """The recorder before the columns: one OpRecord per call."""

    def __init__(self, n):
        self.n = n
        self.rows = [[] for _ in range(n)]
        self.records = []
        self._quiescent = False

    def mark_quiescent(self):
        self._quiescent = True

    def record(self, pid, invocation, output, start, end):
        rec = OpRecord(pid, invocation, output, start, end, stable=self._quiescent)
        self.rows[pid].append(rec)
        self.records.append(rec)

    def to_history(self):
        kept = [row for row in self.rows if row]
        rows = [[Operation(r.invocation, r.output) for r in row] for row in kept]
        return History.from_processes(rows, times=[[r.start for r in row] for row in kept])

    def stable_eids(self):
        eids = [rec.stable for row in self.rows for rec in row]
        return {eid for eid, stable in enumerate(eids) if stable}

    def latencies(self):
        return [rec.end - rec.start for row in self.rows for rec in row]

    def count(self):
        return sum(len(row) for row in self.rows)


INT64_EDGES = [
    0, 1, -1, 255, 256, 2**31, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64, 10**30,
]

arg = st.one_of(
    st.sampled_from(INT64_EDGES),
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.tuples(st.integers(), st.integers()),
)

output = st.one_of(
    st.just(BOTTOM),
    st.just(HIDDEN),
    st.none(),
    st.integers(),
    st.tuples(st.integers(), st.integers()),
)


@st.composite
def op_streams(draw):
    n = draw(st.integers(1, 4))
    record = st.tuples(
        st.integers(0, n - 1),
        st.sampled_from(["w", "r", "inc", "enq"]),
        st.lists(arg, max_size=3).map(tuple),
        output,
        st.floats(0.0, 1e6),
        st.floats(0.0, 10.0),
    )
    ops = draw(st.lists(st.one_of(record, st.just("quiesce")), max_size=40))
    return n, ops


def replay(recorder, ops):
    for op in ops:
        if op == "quiesce":
            recorder.mark_quiescent()
        else:
            pid, method, args, out, start, latency = op
            recorder.record(pid, Invocation(method, args), out, start, start + latency)


SLICES = [
    slice(None), slice(1, None), slice(None, -1), slice(-2, None),
    slice(None, None, -1), slice(1, -1, 2), slice(5, 2),
]


@settings(max_examples=300, deadline=None)
@given(op_streams())
def test_columns_read_back_as_the_records_they_replace(stream):
    n, ops = stream
    columns, reference = HistoryRecorder(n), ListRecorder(n)
    delivered = []
    columns.subscribe(delivered.append)
    replay(columns, ops)
    replay(reference, ops)

    assert delivered == reference.records
    assert repr(delivered) == repr(reference.records)
    assert list(columns.rows) == reference.rows
    for row, ref in zip(columns.rows, reference.rows):
        assert row == ref and bool(row) == bool(ref) and len(row) == len(ref)
        assert repr(list(row)) == repr(ref)
        for i in range(-len(ref), len(ref)):
            assert row[i] == ref[i] and repr(row[i]) == repr(ref[i])
        for cut in SLICES:
            assert row[cut] == ref[cut] and repr(row[cut]) == repr(ref[cut])
        for outside in (len(ref), -len(ref) - 1):
            with pytest.raises(IndexError):
                row[outside]
    assert columns.count() == reference.count()
    assert columns.stable_eids() == reference.stable_eids()
    assert columns.latencies() == reference.latencies()
    mine, theirs = columns.to_history(), reference.to_history()
    assert mine.events == theirs.events
    assert mine.times == theirs.times
    assert repr(mine) == repr(theirs)


def test_method_codes_widen_past_one_and_two_bytes():
    recorder = HistoryRecorder(2)
    methods = [f"m{i}" for i in range((1 << 16) + 2)]
    for i, method in enumerate(methods):
        recorder.record(i % 2, Invocation(method, (i,)), BOTTOM, 0.0, 1.0)
    seen = [rec.invocation for row in recorder.rows for rec in row]
    expected = [
        Invocation(method, (i,)) for p in (0, 1)
        for i, method in enumerate(methods) if i % 2 == p
    ]
    assert seen == expected


def test_a_record_retains_under_64_bytes():
    """A live node's put: a fresh Invocation("w", (x, v)) per call, v
    boxed.  The columns keep ~45 bytes of it; one OpRecord and
    Invocation per operation kept ~277."""
    recorder = HistoryRecorder(3)
    ops = 100_000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(ops):
            invocation = Invocation("w", (i % 4, 1_000_000 + i))
            recorder.record(i % 3, invocation, BOTTOM, i * 0.001, i * 0.001 + 0.0005)
        del invocation
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert recorder.count() == ops
    assert retained / ops < 64, retained / ops
