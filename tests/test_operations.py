"""Unit tests for repro.core.operations (Sigma_i, Sigma_o, hidden ops)."""

import pickle

import pytest

from repro.core.operations import (
    BOTTOM,
    HIDDEN,
    Invocation,
    Operation,
    inv,
    op,
    operations,
    output_from_json,
    output_to_json,
)


class TestInvocation:
    def test_equality_and_hash(self):
        assert inv("w", 1) == Invocation("w", (1,))
        assert hash(inv("w", 1)) == hash(Invocation("w", (1,)))
        assert inv("w", 1) != inv("w", 2)
        assert inv("r") != inv("w")

    def test_args_normalised_to_tuple(self):
        invocation = Invocation("w", [1, 2])  # type: ignore[arg-type]
        assert invocation.args == (1, 2)
        assert isinstance(invocation.args, tuple)

    def test_repr(self):
        assert repr(inv("r")) == "r"
        assert repr(inv("w", 1)) == "w(1)"
        assert repr(inv("w", "a", 2)) == "w('a',2)"


class TestOperation:
    def test_hidden_flag(self):
        assert Operation(inv("w", 1)).hidden
        assert not Operation(inv("r"), (0, 1)).hidden

    def test_hide_round_trip(self):
        """Hiding drops the output; the classify-JSON history format
        keeps a hidden operation hidden and a visible one's output."""
        visible = op("r", returns=(0, 1))
        hidden = Operation(visible.invocation)
        assert hidden.hidden and hidden.invocation == visible.invocation
        assert output_from_json(output_to_json(hidden.output)) is HIDDEN
        assert output_from_json(output_to_json(visible.output)) == (0, 1)
        assert output_from_json(output_to_json(BOTTOM)) is BOTTOM

    def test_repr_shows_output_only_when_visible(self):
        assert repr(op("w", 1)) == "w(1)"
        assert "/(0, 1)" in repr(op("r", returns=(0, 1)))

    def test_operation_equality(self):
        assert op("r", returns=1) == op("r", returns=1)
        assert op("r", returns=1) != op("r", returns=2)
        assert op("r") != op("r", returns=1)


class TestSentinels:
    def test_hidden_singleton(self):
        assert HIDDEN is type(HIDDEN)()
        assert pickle.loads(pickle.dumps(HIDDEN)) is HIDDEN

    def test_bottom_singleton(self):
        assert BOTTOM is type(BOTTOM)()
        assert pickle.loads(pickle.dumps(BOTTOM)) is BOTTOM

    def test_sentinels_distinct(self):
        assert BOTTOM is not HIDDEN
        assert BOTTOM != HIDDEN
        assert repr(HIDDEN) == "HIDDEN"


class TestOperationsNormaliser:
    def test_accepts_mixed_inputs(self):
        items = operations(
            [op("w", 1), inv("r"), (inv("r"), (0, 1))]
        )
        assert [o.invocation.method for o in items] == ["w", "r", "r"]
        assert items[1].hidden
        assert items[2].output == (0, 1)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            operations([42])
