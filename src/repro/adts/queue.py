"""FIFO queues: the combined queue ``Q`` and the split queue ``Q'``.

Sec. 4.1 uses two queue flavours to show that weakly consistent criteria
decouple the transition and output parts of an operation:

- ``FifoQueue`` (``Q``): ``push(v)`` is a pure update; ``pop`` removes and
  returns the head — both an update and a query.  Under causal consistency
  an element may be popped twice, or never (Fig. 3f).
- ``SplitQueue`` (``Q'``): ``pop`` is split into the pure query ``hd``
  (read the head) and the pure update ``rh(v)`` (remove the head iff it
  equals ``v``), which guarantees every value is read at least once
  (Fig. 3g).

Empty-queue reads return ``BOTTOM`` (the paper's ``⊥``).
"""

from __future__ import annotations

from typing import Any

from ..core.adt import AbstractDataType, State
from ..core.operations import BOTTOM, Invocation, Operation


class FifoQueue(AbstractDataType):
    """``Q``: push/pop FIFO queue; state is the tuple of queued values."""

    name = "Queue"

    def initial_state(self) -> State:
        return ()

    def transition(self, state: State, invocation: Invocation) -> State:
        if invocation.method == "push":
            (value,) = invocation.args
            return state + (value,)
        if invocation.method == "pop":
            return state[1:] if state else state
        raise ValueError(f"Queue has no method {invocation.method!r}")

    def output(self, state: State, invocation: Invocation) -> Any:
        if invocation.method == "push":
            return BOTTOM
        if invocation.method == "pop":
            return state[0] if state else BOTTOM
        raise ValueError(f"Queue has no method {invocation.method!r}")

    def is_update(self, invocation: Invocation) -> bool:
        return invocation.method in ("push", "pop")

    def is_query(self, invocation: Invocation) -> bool:
        return invocation.method == "pop"

    # convenience constructors -----------------------------------------
    def push(self, value: Any) -> Operation:
        return Operation(Invocation("push", (value,)), BOTTOM)

    def pop(self, value: Any = BOTTOM) -> Operation:
        return Operation(Invocation("pop"), value)


class SplitQueue(AbstractDataType):
    """``Q'``: the queue with ``pop`` split into ``hd`` and ``rh(v)``.

    ``hd`` returns the head without removing it (pure query); ``rh(v)``
    removes the head if and only if it equals ``v`` (pure update).  This
    loose coupling lets causally consistent processes cooperate without
    ever losing an element unread (Sec. 4.1, Fig. 3g).
    """

    name = "SplitQueue"

    def initial_state(self) -> State:
        return ()

    def transition(self, state: State, invocation: Invocation) -> State:
        if invocation.method == "push":
            (value,) = invocation.args
            return state + (value,)
        if invocation.method == "rh":
            (value,) = invocation.args
            if state and state[0] == value:
                return state[1:]
            return state
        if invocation.method == "hd":
            return state
        raise ValueError(f"SplitQueue has no method {invocation.method!r}")

    def output(self, state: State, invocation: Invocation) -> Any:
        if invocation.method in ("push", "rh"):
            return BOTTOM
        if invocation.method == "hd":
            return state[0] if state else BOTTOM
        raise ValueError(f"SplitQueue has no method {invocation.method!r}")

    def is_update(self, invocation: Invocation) -> bool:
        return invocation.method in ("push", "rh")

    def is_query(self, invocation: Invocation) -> bool:
        return invocation.method == "hd"

    # convenience constructors -----------------------------------------
    def push(self, value: Any) -> Operation:
        return Operation(Invocation("push", (value,)), BOTTOM)

    def hd(self, value: Any = BOTTOM) -> Operation:
        return Operation(Invocation("hd"), value)

    def rh(self, value: Any) -> Operation:
        return Operation(Invocation("rh", (value,)), BOTTOM)
