"""Product ADTs and their equivalence with the memory pool (Def. 10)."""

import random

import pytest

from repro.adts import Counter, FifoQueue, MemoryADT, ProductADT, Register
from repro.adts.product import ProductADT as ProductADTClass
from repro.core import History, inv, op
from repro.criteria import check


class TestProductSemantics:
    def test_components_independent(self):
        product = ProductADT({"c": Counter(), "q": FifoQueue()})
        state = product.initial_state()
        state = product.transition(state, inv("c.inc"))
        state = product.transition(state, inv("q.push", 7))
        assert product.output(state, inv("c.read")) == 1
        assert product.output(state, inv("q.pop")) == 7

    def test_classification_delegates(self):
        product = ProductADT({"c": Counter(), "q": FifoQueue()})
        assert product.is_update(inv("q.push", 1))
        assert product.is_query(inv("c.read"))
        assert product.is_update(inv("q.pop")) and product.is_query(inv("q.pop"))

    def test_lift(self):
        """A component's word, its methods prefixed with the component's
        name, runs on the product with the same outputs."""
        q = FifoQueue()
        product = ProductADT({"c": Counter(), "q": q})
        word = [inv("push", 3), inv("push", 4), inv("pop"), inv("pop")]
        lifted = [inv(f"q.{i.method}", *i.args) for i in word]
        assert product.run(lifted)[1] == q.run(word)[1]
        assert q.run(word)[1][2:] == [3, 4]

    def test_errors(self):
        with pytest.raises(ValueError):
            ProductADT({})
        with pytest.raises(ValueError):
            ProductADT({"a.b": Counter()})
        product = ProductADT({"c": Counter()})
        with pytest.raises(ValueError):
            product.transition(product.initial_state(), inv("inc"))
        with pytest.raises(ValueError):
            product.transition(product.initial_state(), inv("x.inc"))


class TestProductOfRegistersIsMemory:
    def test_random_program_equivalence(self):
        """M_X and the product of |X| registers compute the same outputs
        on every program (Def. 10 as a product construction)."""
        registers = "ab"
        mem = MemoryADT(registers)
        product = ProductADT({x: Register() for x in registers})
        rng = random.Random(3)
        mem_state = mem.initial_state()
        prod_state = product.initial_state()
        for _ in range(60):
            reg = rng.choice(registers)
            if rng.random() < 0.5:
                value = rng.randrange(10)
                mem_state = mem.transition(mem_state, inv("w", reg, value))
                prod_state = product.transition(prod_state, inv(f"{reg}.w", value))
            else:
                assert mem.output(mem_state, inv("r", reg)) == product.output(
                    prod_state, inv(f"{reg}.r")
                )

    def test_criteria_agree_on_translated_histories(self):
        mem = MemoryADT("ab")
        product = ProductADT({"a": Register(), "b": Register()})
        mem_history = History.from_processes(
            [
                [mem.write("a", 1), mem.read("b", 2)],
                [mem.write("b", 2), mem.read("a", 1)],
            ]
        )
        prod_history = History.from_processes(
            [
                [op("a.w", 1), op("b.r", returns=2)],
                [op("b.w", 2), op("a.r", returns=1)],
            ]
        )
        for criterion in ("SC", "CC", "CCV", "PC", "WCC"):
            assert (
                check(mem_history, mem, criterion).ok
                == check(prod_history, product, criterion).ok
            ), criterion

    def test_non_composability_witness_via_product(self):
        product = ProductADT({"a": Register(), "b": Register()})
        history = History.from_processes(
            [
                [op("a.r", returns=3), op("b.w", 1), op("a.w", 2)],
                [op("b.r", returns=1), op("a.w", 3), op("a.r", returns=2)],
            ]
        )
        assert not check(history, product, "WCC").ok
