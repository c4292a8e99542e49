"""Shared editable sequence (collaborative-editing document).

The paper motivates weak causal consistency with the CCI model of
collaborative editing [23] (convergence + causality + intention
preservation).  ``EditSequence`` is the sequential specification of such a
document: ``insert(pos, ch)`` and ``delete(pos)`` are pure updates (with
positions clamped to the current length, keeping ``delta`` total as Def. 1
requires), ``read`` is a pure query returning the document.

Used by ``examples/collaborative_editing.py`` together with the generic
causal-convergence replication of :mod:`repro.algorithms.generic_ccv`.
"""

from __future__ import annotations

from typing import Any

from ..core.adt import AbstractDataType, State
from ..core.operations import BOTTOM, Invocation, Operation


class EditSequence(AbstractDataType):
    """A text document as a tuple of characters."""

    name = "EditSequence"

    def initial_state(self) -> State:
        return ()

    def transition(self, state: State, invocation: Invocation) -> State:
        if invocation.method == "insert":
            pos, ch = invocation.args
            pos = max(0, min(int(pos), len(state)))
            return state[:pos] + (ch,) + state[pos:]
        if invocation.method == "delete":
            (pos,) = invocation.args
            if 0 <= pos < len(state):
                return state[:pos] + state[pos + 1 :]
            return state
        if invocation.method == "read":
            return state
        raise ValueError(f"EditSequence has no method {invocation.method!r}")

    def output(self, state: State, invocation: Invocation) -> Any:
        if invocation.method in ("insert", "delete"):
            return BOTTOM
        if invocation.method == "read":
            return "".join(str(c) for c in state)
        raise ValueError(f"EditSequence has no method {invocation.method!r}")

    def is_update(self, invocation: Invocation) -> bool:
        return invocation.method in ("insert", "delete")

    def is_query(self, invocation: Invocation) -> bool:
        return invocation.method == "read"

    # convenience constructors -----------------------------------------
    def insert(self, pos: int, ch: Any) -> Operation:
        return Operation(Invocation("insert", (pos, ch)), BOTTOM)

    def read(self, text: str) -> Operation:
        return Operation(Invocation("read"), text)
