"""The window stream ADT ``W_k`` (Def. 3) and arrays thereof.

A window stream of size ``k`` generalises a register: ``w(v)`` appends a
value, ``r`` returns the sequence of the last ``k`` written values (missing
values replaced by the initial value ``INITIAL_VALUE``, 0).  ``W_1`` is an integer register.  A window
stream of size ``k`` has consensus number ``k`` (Sec. 2.1), which
:mod:`repro.analysis.consensus` demonstrates experimentally.

``WindowStreamArray`` is the array of ``K`` window streams of size ``k``
implemented by the algorithms of Figs. 4 and 5.
"""

from __future__ import annotations

from typing import Any

from ..core.adt import AbstractDataType, State
from ..core.operations import BOTTOM, Invocation, Operation

#: every slot no write has reached yet: ``W_k``'s initial state is part
#: of its sequential specification, so it is no constructor's option
INITIAL_VALUE = 0


class WindowStream(AbstractDataType):
    """``W_k``: ``w(v)`` shifts the window, ``r`` returns it (Def. 3).

    State: a ``k``-tuple ``(q_1, ..., q_k)``, oldest value first.
    ``delta(q, w(v)) = (q_2, ..., q_k, v)``; ``lambda(q, r) = q``.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("window size must be >= 1")
        self.k = k
        self.name = f"W_{k}"

    def initial_state(self) -> State:
        return (INITIAL_VALUE,) * self.k

    def transition(self, state: State, invocation: Invocation) -> State:
        if invocation.method == "w":
            (value,) = invocation.args
            return state[1:] + (value,)
        if invocation.method == "r":
            return state
        raise ValueError(f"{self.name} has no method {invocation.method!r}")

    def output(self, state: State, invocation: Invocation) -> Any:
        if invocation.method == "w":
            return BOTTOM
        if invocation.method == "r":
            return state if self.k > 1 else state  # full window
        raise ValueError(f"{self.name} has no method {invocation.method!r}")

    def is_update(self, invocation: Invocation) -> bool:
        return invocation.method == "w"

    def is_query(self, invocation: Invocation) -> bool:
        return invocation.method == "r"

    # convenience constructors -----------------------------------------
    def write(self, value: Any) -> Operation:
        """The hidden operation ``w(v)`` (dummy output ignored)."""
        return Operation(Invocation("w", (value,)), BOTTOM)

    def read(self, *window: Any) -> Operation:
        """The operation ``r/(v_1, ..., v_k)``."""
        if len(window) != self.k:
            raise ValueError(f"read of {self.name} returns {self.k} values")
        return Operation(Invocation("r"), tuple(window))


class WindowStreamArray(AbstractDataType):
    """An array of ``K`` window streams of size ``k`` (Sec. 6).

    Methods: ``w(x, v)`` writes ``v`` to stream ``x``; ``r(x)`` reads the
    window of stream ``x``.  This is the object implemented by the
    algorithms of Fig. 4 (causal consistency) and Fig. 5 (causal
    convergence).
    """

    def __init__(self, streams: int, k: int) -> None:
        if streams < 1 or k < 1:
            raise ValueError("need at least one stream of size >= 1")
        self.streams = streams
        self.k = k
        self.name = f"W_{k}^{streams}"

    def initial_state(self) -> State:
        return ((INITIAL_VALUE,) * self.k,) * self.streams

    def _check_stream(self, x: int) -> None:
        if not (0 <= x < self.streams):
            raise ValueError(f"stream index {x} out of [0, {self.streams})")

    def transition(self, state: State, invocation: Invocation) -> State:
        if invocation.method == "w":
            x, value = invocation.args
            self._check_stream(x)
            row = state[x][1:] + (value,)
            return state[:x] + (row,) + state[x + 1 :]
        if invocation.method == "r":
            return state
        raise ValueError(f"{self.name} has no method {invocation.method!r}")

    def output(self, state: State, invocation: Invocation) -> Any:
        if invocation.method == "w":
            return BOTTOM
        if invocation.method == "r":
            (x,) = invocation.args
            self._check_stream(x)
            return state[x]
        raise ValueError(f"{self.name} has no method {invocation.method!r}")

    def is_update(self, invocation: Invocation) -> bool:
        return invocation.method == "w"

    def is_query(self, invocation: Invocation) -> bool:
        return invocation.method == "r"

    # convenience constructors -----------------------------------------
    def write(self, x: int, value: Any) -> Operation:
        return Operation(Invocation("w", (x, value)), BOTTOM)

    def read(self, x: int, *window: Any) -> Operation:
        if len(window) != self.k:
            raise ValueError(f"read returns {self.k} values")
        return Operation(Invocation("r", (x,)), tuple(window))
