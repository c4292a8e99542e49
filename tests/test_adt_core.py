"""Unit tests for the ADT transducer base class (Def. 1)."""

from oracles import classify_by_search

from repro.adts import Counter, FifoQueue, Register, WindowStream
from repro.core import inv


class TestRun:
    def test_run_produces_outputs(self):
        w2 = WindowStream(2)
        state, outputs = w2.run([inv("w", 1), inv("r"), inv("w", 2), inv("r")])
        assert state == (1, 2)
        assert outputs[1] == (0, 1)
        assert outputs[3] == (1, 2)

    def test_apply_returns_both_parts(self):
        counter = Counter()
        state, out = counter.apply(3, inv("fetch_inc"))
        assert state == 4 and out == 3

    def test_purity_classification(self):
        q = FifoQueue()
        assert q.is_update(inv("push", 1)) and not q.is_query(inv("push", 1))
        assert q.is_update(inv("pop")) and q.is_query(inv("pop"))
        w = WindowStream(2)
        assert w.is_query(inv("r")) and not w.is_update(inv("r"))
        assert w.is_update(inv("w", 5)) and not w.is_query(inv("w", 5))


class TestClassifyBySearch:
    def test_window_stream_classification_confirmed(self):
        w2 = WindowStream(2)
        probes = [[inv("w", 1)], [inv("w", 1), inv("w", 2)]]
        update, query = classify_by_search(w2, inv("w", 3), probes)
        assert update is True
        update, query = classify_by_search(w2, inv("r"), probes)
        assert query is True

    def test_pop_is_both(self):
        q = FifoQueue()
        probes = [[inv("push", 1)], [inv("push", 1), inv("push", 2)]]
        update, query = classify_by_search(q, inv("pop"), probes)
        assert update is True and query is True

    def test_declared_matches_search_on_register(self):
        reg = Register()
        probes = [[inv("w", 7)]]
        update, query = classify_by_search(reg, inv("w", 9), probes)
        assert bool(update) == reg.is_update(inv("w", 9))
        update, query = classify_by_search(reg, inv("r"), probes)
        assert bool(query) == reg.is_query(inv("r"))
