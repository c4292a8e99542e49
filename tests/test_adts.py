"""Semantics tests for every concrete ADT (Defs. 3 and 10 + Sec. 4.1)."""

import pytest

from repro.adts import (
    Counter,
    EditSequence,
    FifoQueue,
    GrowSet,
    MemoryADT,
    Register,
    SplitQueue,
    Stack,
    WindowStream,
    WindowStreamArray,
)
from repro.core import BOTTOM, accepts, inv, op


class TestWindowStream:
    def test_definition_3_transitions(self):
        w3 = WindowStream(3)
        state = w3.initial_state()
        assert state == (0, 0, 0)
        state = w3.transition(state, inv("w", 1))
        state = w3.transition(state, inv("w", 2))
        assert state == (0, 1, 2)
        state = w3.transition(state, inv("w", 3))
        state = w3.transition(state, inv("w", 4))
        assert state == (2, 3, 4)  # oldest values fall out

    def test_read_is_identity_on_state(self):
        w2 = WindowStream(2)
        assert w2.transition((1, 2), inv("r")) == (1, 2)
        assert w2.output((1, 2), inv("r")) == (1, 2)

    def test_write_output_is_bottom(self):
        assert WindowStream(2).output((0, 0), inv("w", 9)) is BOTTOM

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            WindowStream(0)

    def test_read_constructor_arity(self):
        with pytest.raises(ValueError):
            WindowStream(2).read(1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            WindowStream(2).transition((0, 0), inv("cas", 1))

    def test_w1_is_register(self):
        w1, reg = WindowStream(1), Register()
        ops = [inv("w", 5), inv("r"), inv("w", 7), inv("r")]
        _, w_out = w1.run(ops)
        _, r_out = reg.run(ops)
        assert [o[0] if isinstance(o, tuple) else o for o in w_out] == [
            o if not isinstance(o, tuple) else o[0] for o in r_out
        ] or [w_out[1], w_out[3]] == [(5,), (7,)]


class TestWindowStreamArray:
    def test_streams_independent(self):
        arr = WindowStreamArray(2, 2)
        state = arr.initial_state()
        state = arr.transition(state, inv("w", 0, 5))
        assert arr.output(state, inv("r", 0)) == (0, 5)
        assert arr.output(state, inv("r", 1)) == (0, 0)

    def test_stream_bounds_checked(self):
        arr = WindowStreamArray(2, 2)
        with pytest.raises(ValueError):
            arr.transition(arr.initial_state(), inv("w", 7, 1))

    def test_classification(self):
        arr = WindowStreamArray(2, 2)
        assert arr.is_update(inv("w", 0, 1)) and not arr.is_update(inv("r", 0))
        assert arr.is_query(inv("r", 0)) and not arr.is_query(inv("w", 0, 1))


class TestMemory:
    def test_definition_10(self):
        mem = MemoryADT("abc")
        state = mem.initial_state()
        state = mem.transition(state, inv("w", "b", 9))
        assert mem.output(state, inv("r", "b")) == 9
        assert mem.output(state, inv("r", "a")) == 0  # default

    def test_write_targets(self):
        mem = MemoryADT("ab")
        assert mem.write_target(inv("w", "a", 3)) == ("a", 3)
        assert mem.write_target(inv("r", "a")) is None
        assert mem.read_target(inv("r", "b")) == "b"

    def test_unknown_register(self):
        mem = MemoryADT("ab")
        with pytest.raises(ValueError):
            mem.transition(mem.initial_state(), inv("w", "z", 1))

    def test_duplicate_registers_rejected(self):
        with pytest.raises(ValueError):
            MemoryADT("aa")


class TestQueues:
    def test_fifo_order(self):
        q = FifoQueue()
        word = [q.push(1), q.push(2), q.pop(1), q.pop(2), q.pop()]
        assert accepts(q, word)

    def test_pop_empty_returns_bottom(self):
        q = FifoQueue()
        assert q.output((), inv("pop")) is BOTTOM
        assert q.transition((), inv("pop")) == ()

    def test_pop_is_update_and_query(self):
        q = FifoQueue()
        assert q.is_update(inv("pop")) and q.is_query(inv("pop"))
        assert q.is_update(inv("push", 1)) and not q.is_query(inv("push", 1))

    def test_split_queue_hd_does_not_remove(self):
        qp = SplitQueue()
        state = qp.transition((), inv("push", 1))
        assert qp.output(state, inv("hd")) == 1
        assert qp.transition(state, inv("hd")) == state

    def test_split_queue_rh_conditional(self):
        qp = SplitQueue()
        state = (1, 2)
        assert qp.transition(state, inv("rh", 2)) == state  # head != 2
        assert qp.transition(state, inv("rh", 1)) == (2,)

    def test_split_queue_classification(self):
        qp = SplitQueue()
        assert qp.is_query(inv("hd")) and not qp.is_update(inv("hd"))
        assert qp.is_update(inv("rh", 1)) and not qp.is_query(inv("rh", 1))


class TestStack:
    def test_lifo(self):
        s = Stack()
        word = [s.push(1), s.push(2), s.pop(2), op("top", returns=1), s.pop(1), s.pop()]
        assert accepts(s, word)

    def test_top_is_pure_query(self):
        s = Stack()
        assert s.is_query(inv("top")) and not s.is_update(inv("top"))
        assert s.is_update(inv("pop")) and s.is_query(inv("pop"))


class TestCounter:
    def test_inc_and_read(self):
        c = Counter()
        word = [c.inc(), c.inc(3), c.read(4), c.fetch_inc(4), c.read(5)]
        assert accepts(c, word)

    def test_zero_inc_is_not_an_update(self):
        c = Counter()
        assert not c.is_update(inv("inc", 0))
        assert c.is_update(inv("inc", 1))

    def test_default_delta(self):
        c = Counter()
        assert c.transition(0, inv("inc")) == 1


class TestGrowSet:
    def test_add_contains_snapshot(self):
        g = GrowSet()
        word = [g.add(1), g.contains(1, True), g.contains(2, False), g.snapshot(1)]
        assert accepts(g, word)

    def test_adds_commute(self):
        g = GrowSet()
        s1 = g.transition(g.transition(g.initial_state(), inv("add", 1)), inv("add", 2))
        s2 = g.transition(g.transition(g.initial_state(), inv("add", 2)), inv("add", 1))
        assert s1 == s2


class TestEditSequence:
    def test_insert_and_read(self):
        doc = EditSequence()
        word = [doc.insert(0, "h"), doc.insert(1, "i"), doc.read("hi")]
        assert accepts(doc, word)

    def test_positions_clamped_for_totality(self):
        doc = EditSequence()
        state = doc.transition((), inv("insert", 99, "x"))
        assert state == ("x",)
        assert doc.transition(state, inv("delete", 42)) == state

    def test_delete(self):
        doc = EditSequence()
        state = ("a", "b", "c")
        assert doc.transition(state, inv("delete", 1)) == ("a", "c")
