"""Integer register: a window stream of size 1 with scalar reads.

The paper defines a register as "isomorphic to a window stream of size 1"
(Sec. 4.2); this class exposes the conventional scalar interface ``w(v)``
/ ``r -> v`` used by the memory ADT and the session-guarantee checkers.
"""

from __future__ import annotations

from typing import Any

from ..core.adt import AbstractDataType, State
from ..core.operations import BOTTOM, Invocation, Operation
from .window_stream import INITIAL_VALUE


class Register(AbstractDataType):
    """A single read/write register with initial value 0."""

    name = "Register"

    def initial_state(self) -> State:
        return INITIAL_VALUE

    def transition(self, state: State, invocation: Invocation) -> State:
        if invocation.method == "w":
            (value,) = invocation.args
            return value
        if invocation.method == "r":
            return state
        raise ValueError(f"Register has no method {invocation.method!r}")

    def output(self, state: State, invocation: Invocation) -> Any:
        if invocation.method == "w":
            return BOTTOM
        if invocation.method == "r":
            return state
        raise ValueError(f"Register has no method {invocation.method!r}")

    def is_update(self, invocation: Invocation) -> bool:
        return invocation.method == "w"

    def is_query(self, invocation: Invocation) -> bool:
        return invocation.method == "r"

    def write(self, value: Any) -> Operation:
        return Operation(Invocation("w", (value,)), BOTTOM)

    def read(self, value: Any) -> Operation:
        return Operation(Invocation("r"), value)
