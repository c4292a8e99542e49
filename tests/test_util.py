"""Unit + property tests for bitset and order utilities."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import count_linear_extensions, topological_orders

from repro.util.bitset import bit_list, bits
from repro.util.orders import (
    LazyOrderEnumerator,
    permute_relation,
    transitive_closure,
)


class TestBitset:
    def test_round_trip(self):
        mask = sum(1 << i for i in [0, 3, 5])
        assert list(bits(mask)) == bit_list(mask) == [0, 3, 5]
        assert list(bits(0)) == [] and bit_list(0) == []


class TestTransitiveClosure:
    def test_chain(self):
        closed = transitive_closure([0, 0b001, 0b010])
        assert closed == [0, 0b001, 0b011]

    def test_cycle_raises(self):
        with pytest.raises(ValueError):
            transitive_closure([0b10, 0b01])

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_closure_is_idempotent_and_transitive(self, n, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        # random DAG edges i -> j for i < j
        pred = [0] * n
        for j in range(n):
            for i in range(j):
                if rng.random() < 0.4:
                    pred[j] |= 1 << i
        closed = transitive_closure(pred)
        assert transitive_closure(closed) == closed
        for j in range(n):
            for i in bits(closed[j]):
                assert closed[i] & ~closed[j] == 0  # pasts nested


class TestTopologicalOrders:
    def test_all_extensions_of_antichain(self):
        orders = list(topological_orders([0, 0, 0]))
        assert len(orders) == 6  # 3!

    def test_respects_constraints(self):
        pred = transitive_closure([0, 0b001, 0b001])
        for order in topological_orders(pred):
            assert order.index(0) < order.index(1)
            assert order.index(0) < order.index(2)

    def test_limit(self):
        assert len(list(topological_orders([0, 0, 0, 0], limit=5))) == 5

    def test_count_matches_enumeration(self):
        pred = transitive_closure([0, 0b001, 0, 0b100])
        assert count_linear_extensions(pred) == len(list(topological_orders(pred)))

    def test_one_topological_order(self):
        pred = transitive_closure([0b010, 0, 0b011])
        order = next(iter(LazyOrderEnumerator(pred)))
        assert order.index(1) < order.index(0) < order.index(2)


class TestLazyOrderEnumerator:
    def test_lexicographic_order(self):
        """Extensions come out in lexicographic order: the first order
        tried is the smallest-index-first one."""
        pred = transitive_closure([0, 0, 0b001])
        orders = list(LazyOrderEnumerator(pred))
        assert orders == sorted(orders)
        assert orders == [[0, 1, 2], [0, 2, 1], [1, 0, 2]]

    def test_pruned_counts_steps_only_the_base_allows(self):
        """With ``base`` an antichain and ``refined`` the chain
        0 < 1 < 2, every step that takes an element ahead of its
        refined predecessors is counted once: 2 at the root, 1 after 0."""
        refined = transitive_closure([0, 0b001, 0b010])
        enumerator = LazyOrderEnumerator(refined, base=[0, 0, 0])
        assert list(enumerator) == [[0, 1, 2]]
        assert enumerator.pruned == 3
        assert enumerator.yielded == 1
        plain = LazyOrderEnumerator(refined)
        assert list(plain) == [[0, 1, 2]]
        assert plain.pruned == 0

    def test_reiteration_restarts(self):
        """Iterating again yields the same orders and the same counters,
        not a continuation against the consumed limit."""
        enumerator = LazyOrderEnumerator([0, 0, 0, 0], limit=5)
        first = list(enumerator)
        assert len(first) == 5 and enumerator.yielded == 5
        assert list(enumerator) == first
        assert enumerator.yielded == 5

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_priority_space_is_a_bijection(self, n, data):
        """Enumerating ``permute_relation(pred, perm)`` and mapping each
        rank back through ``perm`` gives exactly the extensions of
        ``pred``, each once."""
        raw = [
            data.draw(st.integers(0, (1 << i) - 1)) if i else 0
            for i in range(n)
        ]
        pred = transitive_closure(raw)
        perm = data.draw(st.permutations(list(range(n))))
        mapped = [
            [perm[k] for k in order]
            for order in LazyOrderEnumerator(permute_relation(pred, perm))
        ]
        assert len(mapped) == len(set(map(tuple, mapped)))
        assert sorted(mapped) == sorted(topological_orders(pred))

    def test_permute_relation_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            permute_relation([0, 0b01], [0, 0])
