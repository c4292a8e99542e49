"""Stack ADT (LIFO), used in the paper's examples of Sec. 2.1.

``push(v)`` is a pure update; ``pop`` deletes the head and returns its
value (update + query, the paper's canonical mixed operation); ``top`` is
the pure query companion.  A stack has consensus number 2 (Sec. 2.1).
"""

from __future__ import annotations

from typing import Any

from ..core.adt import AbstractDataType, State
from ..core.operations import BOTTOM, Invocation, Operation


class Stack(AbstractDataType):
    """A LIFO stack; state is a tuple with the top at the end."""

    name = "Stack"

    def initial_state(self) -> State:
        return ()

    def transition(self, state: State, invocation: Invocation) -> State:
        if invocation.method == "push":
            (value,) = invocation.args
            return state + (value,)
        if invocation.method == "pop":
            return state[:-1] if state else state
        if invocation.method == "top":
            return state
        raise ValueError(f"Stack has no method {invocation.method!r}")

    def output(self, state: State, invocation: Invocation) -> Any:
        if invocation.method == "push":
            return BOTTOM
        if invocation.method == "pop":
            return state[-1] if state else BOTTOM
        if invocation.method == "top":
            return state[-1] if state else BOTTOM
        raise ValueError(f"Stack has no method {invocation.method!r}")

    def is_update(self, invocation: Invocation) -> bool:
        return invocation.method in ("push", "pop")

    def is_query(self, invocation: Invocation) -> bool:
        return invocation.method in ("pop", "top")

    # convenience constructors -----------------------------------------
    def push(self, value: Any) -> Operation:
        return Operation(Invocation("push", (value,)), BOTTOM)

    def pop(self, value: Any = BOTTOM) -> Operation:
        return Operation(Invocation("pop"), value)
