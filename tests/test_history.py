"""Unit tests for distributed histories (Def. 4)."""

import gc
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adts import WindowStream, WindowStreamArray
from repro.core import History, op
from repro.core.history import Event
from repro.core.operations import BOTTOM, Invocation, Operation, operations
from repro.criteria.causal_search import CausalSearch


def _w2_rows():
    w2 = WindowStream(2)
    return [
        [w2.write(1), w2.read(0, 1)],
        [w2.write(2), w2.read(1, 2)],
    ], w2


class TestFromProcesses:
    def test_program_order_within_rows_only(self):
        rows, _ = _w2_rows()
        h = History.from_processes(rows)
        assert len(h) == 4
        assert h.po_lt(0, 1) and h.po_lt(2, 3)
        assert not h.po_lt(0, 2) and not h.po_lt(1, 3)
        assert not h.po_lt(2, 0) and not h.po_lt(1, 2) and not h.po_lt(2, 1)

    def test_past_masks_are_strict(self):
        rows, _ = _w2_rows()
        h = History.from_processes(rows)
        assert h.past_mask(0) == 0
        assert h.past_mask(1) == 0b0001
        assert h.past_mask(3) == 0b0100

    def test_processes_are_the_rows(self):
        rows, _ = _w2_rows()
        h = History.from_processes(rows)
        assert set(h.processes()) == {(0, 1), (2, 3)}

    def test_event_metadata(self):
        rows, _ = _w2_rows()
        h = History.from_processes(rows)
        assert h.event(2).process == 1
        assert h.event(1).output == (0, 1)
        assert h.event(0).output is BOTTOM

    def test_empty_rows_contribute_no_chain(self):
        rows, _ = _w2_rows()
        h = History.from_processes([rows[0], [], rows[1]])
        assert set(h.processes()) == {(0, 1), (2, 3)}

    def test_rows_longer_than_the_recursion_limit(self):
        # live captures put thousands of ops on one row; processes()
        # must not recurse per event (classify once blew the
        # interpreter stack on a 3k-op capture)
        w2 = WindowStream(2)
        row = [w2.write(i) for i in range(2000)]
        h = History.from_processes([row])
        assert h.processes() == (tuple(range(2000)),)


class TestFromDag:
    def test_fork_join_history(self):
        # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (diamond)
        ops = [op("w", 1), op("w", 2), op("w", 3), op("r", returns=(2, 3))]
        h = History.from_dag(ops, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert h.po_lt(0, 3)  # transitive closure computed
        assert not h.po_lt(1, 2) and not h.po_lt(2, 1)  # concurrent
        # maximal chains of a diamond: 0-1-3 and 0-2-3
        assert set(h.processes()) == {(0, 1, 3), (0, 2, 3)}

    def test_cycle_rejected(self):
        ops = [op("w", 1), op("w", 2)]
        with pytest.raises(ValueError):
            History.from_dag(ops, [(0, 1), (1, 0)])

    def test_deep_chain_enumerates_iteratively(self):
        # chain enumeration must not recurse per event (the Hasse-diagram
        # precomputation dominates wall time, so the chain here is modest
        # and the recursion limit is squeezed instead)
        import sys

        n = 300
        ops = [op("w", i) for i in range(n)]
        h = History.from_dag(ops, [(i, i + 1) for i in range(n - 1)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            assert h.processes() == (tuple(range(n)),)
        finally:
            sys.setrecursionlimit(limit)

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            History.from_dag([op("w", 1)], [(0, 5)])

    def test_redundant_edges_harmless(self):
        ops = [op("w", 1), op("w", 2), op("w", 3)]
        h1 = History.from_dag(ops, [(0, 1), (1, 2)])
        h2 = History.from_dag(ops, [(0, 1), (1, 2), (0, 2)])
        assert [h1.past_mask(e) for e in range(3)] == [
            h2.past_mask(e) for e in range(3)
        ]


class TestOrderAccessors:
    def test_succ_mask_inverse_of_past(self):
        rows, _ = _w2_rows()
        h = History.from_processes(rows)
        for a in range(len(h)):
            for b in range(len(h)):
                assert bool(h.past_mask(b) & (1 << a)) == bool(
                    h.succ_mask(a) & (1 << b)
                )

    def test_ipred_is_transitive_reduction(self):
        ops = [op("w", 1), op("w", 2), op("w", 3)]
        h = History.from_dag(ops, [(0, 1), (1, 2), (0, 2)])
        assert h.ipred_mask(2) == 0b010  # only 1 is immediate

    def test_update_mask(self):
        """The update events, as the causal search selects them."""
        rows, w2 = _w2_rows()
        h = History.from_processes(rows)
        assert CausalSearch(h, w2, "CC").updates == [0, 2]

    def test_repr_contains_rows(self):
        rows, _ = _w2_rows()
        text = repr(History.from_processes(rows))
        assert "p0" in text and "p1" in text

    def test_litmus_size_rows_print_in_full(self):
        w2 = WindowStream(2)
        row = [w2.write(i) for i in range(16)]
        text = repr(History.from_processes([row]))
        assert "…" not in text
        assert text == "<History |E|=16 p0: " + " ".join(
            f"w({i})/⊥" for i in range(16)
        ) + ">"

    def test_long_rows_print_both_ends_and_a_count(self):
        # `repro classify` prints the history and stores it in --json:
        # a live capture must not become megabytes on one line
        w2 = WindowStream(2)
        rows = [[w2.write(i) for i in range(2_000)], [w2.write(7)]]
        for history in (History.from_processes(rows), eager_history(rows)):
            assert repr(history) == (
                "<History |E|=2001 p0: w(0)/⊥ w(1)/⊥ w(2)/⊥ w(3)/⊥ "
                "… +1992 … w(1996)/⊥ w(1997)/⊥ w(1998)/⊥ w(1999)/⊥; "
                "p1: w(7)/⊥>"
            )


class TestTimesShape:
    def test_fewer_time_rows_than_rows_is_a_value_error(self):
        rows, _ = _w2_rows()
        with pytest.raises(ValueError, match="timestamp rows"):
            History.from_processes(rows, times=[[0.0, 1.0]])

    def test_row_length_mismatch_is_a_value_error(self):
        rows, _ = _w2_rows()
        with pytest.raises(ValueError, match="row 1"):
            History.from_processes(rows, times=[[0.0, 1.0], [2.0]])


# ----------------------------------------------------------------------
# Declared rows are stored as rows; the answers are those of the masks
# ----------------------------------------------------------------------
def eager_history(rows, times=None):
    """The oracle: what ``from_processes`` stored before rows were kept
    as rows — one eager prefix mask per event, through ``History(events,
    masks)``, the explicit-mask form every accessor still supports."""
    events, masks = [], []
    for p, row in enumerate(rows):
        prefix = 0
        for operation in operations(row):
            eid = len(events)
            events.append(Event(eid, p, operation.invocation, operation.output))
            masks.append(prefix)
            prefix |= 1 << eid
    flat = [t for row in times for t in row] if times is not None else None
    return History(events, masks, times=flat)


_OPS = st.one_of(
    st.integers(0, 9).map(lambda v: Operation(Invocation("w", (v,)), BOTTOM)),
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(
        lambda out: Operation(Invocation("r", ()), out)
    ),
)


@st.composite
def _rows_and_times(draw):
    rows = draw(st.lists(st.lists(_OPS, max_size=8), max_size=6))
    if not draw(st.booleans()):
        return rows, None
    stamp = st.floats(0, 100, allow_nan=False)
    return rows, [
        draw(st.lists(stamp, min_size=len(row), max_size=len(row))) for row in rows
    ]


class TestRowsAnswerLikeMasks:
    @settings(max_examples=200, deadline=None)
    @given(_rows_and_times())
    def test_every_accessor_agrees_with_the_eager_masks(self, case):
        rows, times = case
        lazy = History.from_processes(rows, times=times)
        oracle = eager_history(rows, times)
        n = len(oracle)
        for history in (lazy, pickle.loads(pickle.dumps(lazy))):
            assert len(history) == n
            assert history.events == oracle.events
            assert history.times == oracle.times
            assert history.processes() == oracle.processes()
            for e in range(n):
                assert history.past_mask(e) == oracle.past_mask(e)
                assert history.ipred_mask(e) == oracle.ipred_mask(e)
                assert history.succ_mask(e) == oracle.succ_mask(e)
                for a in range(n):
                    assert history.po_lt(a, e) == oracle.po_lt(a, e)
            with pytest.raises(IndexError):
                history.past_mask(n)
            assert [tuple(c) for c in history.sequential_processes()] == list(
                oracle.sequential_processes()
            )
            assert repr(history) == repr(oracle)

    def test_a_diamond_is_not_sequential_processes(self):
        ops = [op("w", 1), op("w", 2), op("w", 3), op("r", returns=(2, 3))]
        diamond = History.from_dag(ops, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert diamond.sequential_processes() is None
        chain = History.from_dag(ops, [(0, 1), (1, 2), (2, 3)])
        assert chain.sequential_processes() == ((0, 1, 2, 3),)


class TestReplaySeesTheSameHistory:
    """``replay_history`` trusts declared rows and verifies explicit
    masks; the two forms of one history must get the same verdicts."""

    ADT = WindowStreamArray(3, 2)

    @staticmethod
    def _spliced(name):
        """The named gadget of the mutation corpus in a 400-op clean
        stream: the explicit-mask form enumerates its chains from the
        Hasse diagram, cubic in the chain length, so not the 10k one."""
        from test_streaming_monitor import SPLICES, clean_ccv_ops

        seed, _, gadget = SPLICES[name]
        ops = clean_ccv_ops(seed, 400)
        return ops[:200] + gadget + ops[200:]

    @staticmethod
    def _both_forms(ops, procs, timed):
        rows = [[] for _ in range(procs)]
        times = [[] for _ in range(procs)]
        for i, (p, invocation, output) in enumerate(ops):
            rows[p].append(Operation(invocation, output))
            times[p].append(float(i))
        stamps = times if timed else None
        return History.from_processes(rows, times=stamps), eager_history(rows, stamps)

    @staticmethod
    def _summary(verdicts):
        return {
            c: (
                v.ok,
                v.reason,
                v.violation and (
                    v.violation.pattern, v.violation.index, v.violation.witness
                ),
                v.stats,
            )
            for c, v in verdicts.items()
        }

    @pytest.mark.parametrize("timed", [True, False])
    def test_mutation_corpus_verdicts_match(self, timed, monkeypatch):
        from test_streaming_monitor import (
            FAILURE_SHAPE_OPS, N, SPLICES, replay_history,
        )

        verified = []
        real = History.sequential_processes

        def spy(history):
            chains = real(history)
            verified.append(type(chains[0]))
            return chains

        monkeypatch.setattr(History, "sequential_processes", spy)
        streams = [self._spliced(name) for name in SPLICES] + [FAILURE_SHAPE_OPS]
        for ops in streams:
            lazy, oracle = self._both_forms(ops, N, timed)
            got = self._summary(replay_history(lazy, self.ADT))
            want = self._summary(replay_history(oracle, self.ADT))
            assert got == want
            assert any(ok is False for ok, *_ in got.values())
            order = "recorded-time" if timed else "program-order"
            assert all(row[3]["feed_order"] == order for row in got.values())
        # rows come back as ranges, verified masks as the chains
        assert verified == [range, tuple] * len(streams)

    def test_spliced_index_is_the_stream_index(self):
        from test_streaming_monitor import replay_history, spliced_ops

        ops, at = spliced_ops("window-order")
        lazy, _ = self._both_forms(ops, 4, timed=True)
        verdict = replay_history(lazy, self.ADT, criteria=("CCV",))["CCV"]
        assert (verdict.violation.pattern, verdict.violation.index) == (
            "WindowOrderCO", at + 2,
        )

    def test_a_diamond_is_still_inconclusive(self):
        from test_streaming_monitor import replay_history

        ops = [op("w", 0, 1), op("w", 0, 2), op("w", 0, 3), op("r", 0, returns=(2, 3))]
        diamond = History.from_dag(ops, [(0, 1), (0, 2), (1, 3), (2, 3)])
        for verdict in replay_history(diamond, self.ADT).values():
            assert verdict.ok is None
            assert verdict.reason == "program order is not a union of process chains"
            assert verdict.stats == {"ops_seen": 4, "feed_order": "program-order"}


class TestLinearFootprint:
    """Counts of traced bytes, no wall clock."""

    def test_from_processes_retains_a_few_hundred_bytes_per_operation(self):
        w2 = WindowStream(2)
        rows = [operations([w2.write(i) for i in range(8_000)]) for _ in range(8)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            history = History.from_processes(rows)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(history) == 64_000
        # an Event and its id; eager masks were ~4 KB per operation here
        assert retained / len(history) < 300
