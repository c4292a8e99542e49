"""Property tests of the dynamic topological order (Pearce–Kelly) that
the streaming monitor keeps per conflict graph, against the transitive
closure of random implicit DAGs and random recorded edges."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.dynamic_order import DynamicOrder
from repro.util.orders import transitive_closure


def closure(count, edges):
    """Predecessor masks of the closure of ``edges``; None if cyclic."""
    pred = [0] * count
    for a, b in edges:
        pred[b] |= 1 << a
    try:
        return transitive_closure(pred)
    except ValueError:
        return None


class Graph:
    """A random implicit DAG — a new node follows some earlier ones and
    nothing follows it yet — with a :class:`DynamicOrder` over it, whose
    callbacks read the DAG's direct edges and closure."""

    def __init__(self, rng, density, budget=None, log=False):
        self.rng = rng
        self.density = density
        self.budget = budget
        self.implicit = set()
        self.recorded = []
        self.order = DynamicOrder(self.succs, self.preds, self.before, self.spend, log)

    @property
    def count(self):
        return len(self.order.label)

    def succs(self, u):
        return [b for a, b in self.implicit if a == u]

    def preds(self, u):
        return [a for a, b in self.implicit if b == u]

    def before(self, u, v):
        return u == v or bool(closure(self.count, self.implicit)[v] >> u & 1)

    def spend(self, visits):
        return 10**9 if self.budget is None else self.budget()

    def add(self):
        new = self.count
        for u in range(new):
            if self.rng.random() < self.density:
                self.implicit.add((u, new))
        self.order.add()

    def edges(self):
        return self.implicit | set(self.recorded)

    def assert_linear_extension(self):
        label = self.order.label
        assert sorted(label) == list(range(self.count))
        for a, b in self.edges():
            assert label[a] < label[b], (a, b, list(label))

    def snapshot(self):
        order = self.order
        return (
            list(order.label),
            {a: list(bs) for a, bs in order.out.items()},
            {b: list(as_) for b, as_ in order.inn.items()},
            list(order.edges()),
        )

    def reaches(self, src, dst):
        closed = closure(self.count, self.edges())
        return bool(closed[dst] >> src & 1)


def build(graph, rng, steps):
    """Interleave new nodes and proposed edges; check every answer."""
    for _ in range(steps):
        if graph.count < 2 or rng.random() < 0.3:
            graph.add()
            graph.assert_linear_extension()
            continue
        a, b = rng.randrange(graph.count), rng.randrange(graph.count)
        before = graph.snapshot()
        cycle = a == b or closure(graph.count, graph.edges() | {(a, b)}) is None
        placed = graph.order.insert(a, b)
        if graph.budget is not None and placed is None:
            assert graph.snapshot() == before  # decided nothing
            continue
        assert placed is (not cycle), (a, b)
        if placed:
            graph.recorded.append((a, b))
        else:
            assert graph.snapshot() == before
        graph.assert_linear_extension()
        src, dst = rng.randrange(graph.count), rng.randrange(graph.count)
        for stale in (False, True):
            reached = graph.order.reaches(src, dst, stale=stale)
            if graph.budget is None or reached is not None:
                assert reached is graph.reaches(src, dst), (src, dst, stale)


class TestDynamicOrder:
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.6), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_insert_refuses_exactly_the_edges_that_close_a_cycle(
        self, seed, density, log
    ):
        rng = random.Random(seed)
        graph = Graph(rng, density, log=log)
        build(graph, rng, 40)
        order = graph.order
        if log:
            assert list(order.edges()) == graph.recorded
        else:
            assert sorted(order.edges()) == sorted(graph.recorded)
        for b, sources in order.inn.items():
            assert sources == [a for a, b2 in graph.recorded if b2 == b]

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.6), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_rebuild_agrees_with_the_edges(self, seed, density, grown):
        """Implicit edges that grow among existing nodes leave the labels
        stale; ``rebuild`` re-sorts them, or refuses if the edges now
        close a cycle."""
        rng = random.Random(seed)
        graph = Graph(rng, density)
        build(graph, rng, 30)
        assert graph.order.rebuild()
        graph.assert_linear_extension()
        if graph.count < 2:
            return
        for _ in range(grown):
            a, b = sorted(rng.sample(range(graph.count), 2))
            graph.implicit.add((a, b))
        stale = list(graph.order.label)
        acyclic = closure(graph.count, graph.edges()) is not None
        assert graph.order.rebuild() is acyclic
        if acyclic:
            graph.assert_linear_extension()
        else:
            assert list(graph.order.label) == stale

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.6))
    @settings(max_examples=150, deadline=None)
    def test_an_exhausted_visit_budget_decides_nothing(self, seed, density):
        """A search that runs out answers None and records nothing; an
        answer given within the budget is the right one."""
        rng = random.Random(seed)
        graph = Graph(rng, density, budget=lambda: rng.randrange(4))
        build(graph, rng, 40)
        graph.assert_linear_extension()
