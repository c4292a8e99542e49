"""The memory ADT ``M_X`` (Def. 10): a pool of integer registers.

Causal consistency is *not composable*, so a causal memory is a causally
consistent *pool of registers*, not a pool of causally consistent registers
(Sec. 4.2).  ``M_X`` has methods ``w(x, v)`` (write ``v`` to register
``x``, output ``⊥``) and ``r(x)`` (read register ``x``); unwritten
registers hold the initial value 0.

This module also carries the memory-specific introspection (which
invocation writes/reads which register) used by the causal-memory checker
(Def. 11) and the session-guarantee checkers of Terry et al. [24].
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.adt import AbstractDataType, State
from ..core.operations import BOTTOM, HIDDEN, Invocation, Operation
from .window_stream import INITIAL_VALUE


class MemoryADT(AbstractDataType):
    """``M_X`` over a finite set of register names.

    The state is a tuple of values indexed by the declared register order;
    the paper allows any countable ``X``, of which any finite execution
    touches a finite subset, so declaring the registers up front loses no
    generality for checking.
    """

    def __init__(
        self, registers: Sequence[Any] = "abcdefghijklmnopqrstuvwxyz"
    ) -> None:
        names = list(registers)
        if len(set(names)) != len(names):
            raise ValueError("duplicate register names")
        if not names:
            raise ValueError("memory needs at least one register")
        self.registers = tuple(names)
        self.index: Dict[Any, int] = {x: i for i, x in enumerate(names)}
        self.name = f"Memory[{len(names)}]"

    def initial_state(self) -> State:
        return (INITIAL_VALUE,) * len(self.registers)

    def _reg(self, x: Any) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise ValueError(f"unknown register {x!r}") from None

    def transition(self, state: State, invocation: Invocation) -> State:
        if invocation.method == "w":
            x, value = invocation.args
            i = self._reg(x)
            return state[:i] + (value,) + state[i + 1 :]
        if invocation.method == "r":
            return state
        raise ValueError(f"{self.name} has no method {invocation.method!r}")

    def output(self, state: State, invocation: Invocation) -> Any:
        if invocation.method == "w":
            return BOTTOM
        if invocation.method == "r":
            (x,) = invocation.args
            return state[self._reg(x)]
        raise ValueError(f"{self.name} has no method {invocation.method!r}")

    def is_update(self, invocation: Invocation) -> bool:
        return invocation.method == "w"

    def is_query(self, invocation: Invocation) -> bool:
        return invocation.method == "r"

    # ------------------------------------------------------------------
    # Memory-specific introspection (used by CM / session checkers)
    # ------------------------------------------------------------------
    def write_target(self, invocation: Invocation) -> Optional[Tuple[Any, Any]]:
        """``(register, value)`` when the invocation is a write, else None."""
        if invocation.method == "w":
            return invocation.args[0], invocation.args[1]
        return None

    def read_target(self, invocation: Invocation) -> Optional[Any]:
        """The register read by the invocation, else None."""
        if invocation.method == "r":
            return invocation.args[0]
        return None

    # convenience constructors -----------------------------------------
    def write(self, x: Any, value: Any) -> Operation:
        return Operation(Invocation("w", (x, value)), BOTTOM)

    def read(self, x: Any, value: Any = HIDDEN) -> Operation:
        return Operation(Invocation("r", (x,)), value)
