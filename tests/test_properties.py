"""Property-based tests (hypothesis) on the core machinery.

Each property is an invariant the paper's formalism promises; hypothesis
hunts for counterexamples across the input space.
"""

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import seal

from repro.adts import FifoQueue, GrowSet, MemoryADT, WindowStream
from repro.core import History, accepts, inv
from repro.core.operations import Operation
from repro.criteria import check
from repro.criteria.engine import LinItem, LinearizationProblem
from repro.litmus.generators import random_window_history
from repro.runtime import CausalBroadcast, DelayModel, Network, Simulator

values = st.integers(1, 5)


class TestWindowStreamModel:
    """W_k (Def. 3) against a plain deque model."""

    @given(st.integers(1, 4), st.lists(values, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_deque_semantics(self, k, writes):
        w = WindowStream(k)
        state = w.initial_state()
        model = deque([0] * k, maxlen=k)
        for value in writes:
            state = w.transition(state, inv("w", value))
            model.append(value)
            assert state == tuple(model)
            assert w.output(state, inv("r")) == tuple(model)

    @given(st.integers(1, 3), st.lists(values, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_sealed_words_always_admissible(self, k, writes):
        w = WindowStream(k)
        word = []
        for value in writes:
            word.append(w.write(value))
            word.append(Operation(inv("r"), "garbage"))
        sealed = seal(w, word)
        assert accepts(w, sealed)


class TestQueueModel:
    @given(st.lists(st.one_of(values, st.none()), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_list_model(self, script):
        q = FifoQueue()
        state = q.initial_state()
        model = []
        for step in script:
            if step is None:
                out = q.output(state, inv("pop"))
                state = q.transition(state, inv("pop"))
                expected = model.pop(0) if model else None
                if expected is not None:
                    assert out == expected
                assert state == tuple(model)
            else:
                state = q.transition(state, inv("push", step))
                model.append(step)
                assert state == tuple(model)


class TestEngineProperties:
    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_solutions_respect_constraints_and_spec(self, seed):
        rng = random.Random(seed)
        w = WindowStream(2)
        n = rng.randrange(2, 6)
        items = []
        for i in range(n):
            if rng.random() < 0.6:
                items.append(LinItem(i, inv("w", rng.randrange(1, 4))))
            else:
                items.append(
                    LinItem(i, inv("r"), (0, rng.randrange(1, 4)), check=True)
                )
        # random precedence DAG (i -> j only for i < j)
        pred = [0] * n
        for j in range(n):
            for i in range(j):
                if rng.random() < 0.3:
                    pred[j] |= 1 << i
        problem = LinearizationProblem(w, items, pred)
        solution = problem.solve()
        if solution is None:
            return
        position = {key: pos for pos, key in enumerate(solution)}
        # dropped hidden no-ops are legitimately absent
        for j in range(n):
            for i in range(j):
                if pred[j] & (1 << i) and i in position and j in position:
                    assert position[i] < position[j]
        word = [
            Operation(items[key].invocation,
                      items[key].output if items[key].check else None)
            for key in solution
        ]
        # re-check the visible outputs by replay
        w_state = w.initial_state()
        for item_key in solution:
            item = items[item_key]
            if item.check:
                assert w.output(w_state, item.invocation) == item.output
            w_state = w.transition(w_state, item.invocation)


class TestCheckerProperties:
    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_sc_histories_pass_every_criterion(self, seed):
        """Any history produced by sealing a real interleaving is SC, and
        therefore passes every weaker criterion (Fig. 1, top)."""
        rng = random.Random(seed)
        w = WindowStream(2)
        rows = [[], []]
        state = w.initial_state()
        for _ in range(rng.randrange(2, 6)):
            p = rng.randrange(2)
            if rng.random() < 0.5:
                value = rng.randrange(1, 4)
                rows[p].append(w.write(value))
                state = w.transition(state, inv("w", value))
            else:
                rows[p].append(Operation(inv("r"), state))
        h = History.from_processes([r for r in rows if r])
        assert check(h, w, "SC").ok
        for criterion in ("CC", "CCV", "PC", "WCC"):
            assert check(h, w, criterion).ok, criterion

    @given(st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_commutative_updates_make_wcc_equal_ccv(self, seed):
        """On a grow-only set every update order reaches the same state,
        so weak causal consistency already implies causal convergence."""
        rng = random.Random(seed)
        gs = GrowSet()
        rows = []
        for p in range(2):
            row = []
            for i in range(rng.randrange(1, 4)):
                if rng.random() < 0.5:
                    row.append(gs.add(rng.randrange(3)))
                else:
                    row.append(
                        Operation(inv("contains", rng.randrange(3)), rng.random() < 0.5)
                    )
            rows.append(row)
        h = History.from_processes(rows)
        wcc = check(h, gs, "WCC").ok
        ccv = check(h, gs, "CCV").ok
        assert wcc == ccv


class TestCausalBroadcastProperty:
    @given(st.integers(0, 100_000))
    @settings(max_examples=20, deadline=None)
    def test_delivery_never_violates_causality(self, seed):
        """For every pair of messages m -> m' (m' broadcast after its
        sender delivered m), every process delivers m first."""
        rng = random.Random(seed)
        sim = Simulator(seed=seed)
        n = rng.randrange(2, 5)
        net = Network(sim, n, delay=DelayModel.uniform(0.5, rng.uniform(1, 20)))
        service = CausalBroadcast(net)
        logs = [[] for _ in range(n)]
        delivered_before_send = {}

        mid_counter = [0]

        def make_handler(pid):
            def handler(origin, payload):
                logs[pid].append(payload)

            return handler

        for pid in range(n):
            service.endpoint(pid, make_handler(pid))

        def broadcast_from(pid):
            mid_counter[0] += 1
            mid = mid_counter[0]
            delivered_before_send[mid] = set(logs[pid])
            service.broadcast(pid, mid)

        for _ in range(rng.randrange(2, 7)):
            sim.schedule(rng.uniform(0, 10), lambda p=rng.randrange(n): broadcast_from(p))
        sim.run()
        for log in logs:
            for pos, mid in enumerate(log):
                for dep in delivered_before_send.get(mid, ()):
                    assert dep in log[:pos], (log, mid, dep)
