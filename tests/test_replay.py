"""Unit tests for sequential-specification replay (Def. 2)."""

from oracles import seal

from repro.adts import FifoQueue, MemoryADT, WindowStream
from repro.core import accepts, op, replay


class TestReplay:
    def test_accepts_valid_word(self):
        w2 = WindowStream(2)
        word = [w2.write(1), w2.read(0, 1), w2.write(2), w2.read(1, 2)]
        assert accepts(w2, word)

    def test_rejects_wrong_output(self):
        w2 = WindowStream(2)
        word = [w2.write(1), w2.read(1, 0)]
        assert not accepts(w2, word)

    def test_hidden_operations_only_contribute_side_effects(self):
        w2 = WindowStream(2)
        word = [op("w", 1), op("r", returns=(0, 1))]
        assert accepts(w2, word)
        # a hidden read is always admissible
        word = [op("r"), op("r", returns=(0, 0))]
        assert accepts(w2, word)

    def test_replay_reports_state_before_offence(self):
        q = FifoQueue()
        ok, state = replay(q, [q.push(1), q.pop(2)])
        assert not ok
        assert state == (1,)  # state before the offending pop

    def test_prefix_closure(self):
        """L(T) is closed by prefix (used in Prop. 2's proof)."""
        q = FifoQueue()
        word = [q.push(1), q.push(2), q.pop(1), q.pop(2), q.pop()]
        assert accepts(q, word)
        for cut in range(len(word)):
            assert accepts(q, word[:cut])


class TestSealAndOutputs:
    def test_outputs_of_memory(self):
        mem = MemoryADT("ab")
        word = [mem.write("a", 5), mem.read("a"), mem.read("b")]
        _, outs = mem.run(o.invocation for o in word)
        assert outs[1] == 5 and outs[2] == 0

    def test_seal_produces_admissible_word(self):
        q = FifoQueue()
        word = [q.push(3), q.pop(999), q.pop(999)]  # wrong outputs
        sealed = seal(q, word)
        assert accepts(q, sealed)
        assert sealed[1].output == 3

    def test_seal_keeps_hidden_hidden(self):
        w1 = WindowStream(1)
        word = [op("w", 4), op("r", returns=None)]
        sealed = seal(w1, word)
        assert sealed[0].hidden
        assert sealed[1].output == (4,)

    def test_state_after_ignores_outputs(self):
        q = FifoQueue()
        word = [q.push(1), q.pop(42)]  # the pop's recorded output is wrong
        assert q.run(o.invocation for o in word)[0] == ()
        assert replay(q, seal(q, word)) == (True, ())
