"""Grow-only set ADT.

A commutative object (the order of ``add``s is irrelevant): the simplest
data type for which weak causal consistency and causal convergence
coincide on update order, used by the property-based tests to check that
the criteria collapse as expected on commutative updates.
"""

from __future__ import annotations

from typing import Any

from ..core.adt import AbstractDataType, State
from ..core.operations import BOTTOM, Invocation, Operation


class GrowSet(AbstractDataType):
    """A set supporting ``add(v)``, ``contains(v)`` and ``snapshot``."""

    name = "GrowSet"

    def initial_state(self) -> State:
        return frozenset()

    def transition(self, state: State, invocation: Invocation) -> State:
        if invocation.method == "add":
            (value,) = invocation.args
            return state | {value}
        if invocation.method in ("contains", "snapshot"):
            return state
        raise ValueError(f"GrowSet has no method {invocation.method!r}")

    def output(self, state: State, invocation: Invocation) -> Any:
        if invocation.method == "add":
            return BOTTOM
        if invocation.method == "contains":
            (value,) = invocation.args
            return value in state
        if invocation.method == "snapshot":
            return state
        raise ValueError(f"GrowSet has no method {invocation.method!r}")

    def is_update(self, invocation: Invocation) -> bool:
        return invocation.method == "add"

    def is_query(self, invocation: Invocation) -> bool:
        return invocation.method in ("contains", "snapshot")

    # convenience constructors -----------------------------------------
    def add(self, value: Any) -> Operation:
        return Operation(Invocation("add", (value,)), BOTTOM)

    def contains(self, value: Any, answer: bool) -> Operation:
        return Operation(Invocation("contains", (value,)), answer)

    def snapshot(self, *values: Any) -> Operation:
        return Operation(Invocation("snapshot"), frozenset(values))
