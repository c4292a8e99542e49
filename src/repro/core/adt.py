"""Abstract data types as transducers (Def. 1 of the paper).

An ADT is a 6-tuple ``T = (Sigma_i, Sigma_o, Q, q0, delta, lambda)``:

- ``Sigma_i`` / ``Sigma_o``: countable input/output alphabets;
- ``Q`` a countable set of states with initial state ``q0``;
- ``delta : Q x Sigma_i -> Q`` the (total) transition function;
- ``lambda : Q x Sigma_i -> Sigma_o`` the (total) output function.

States must be hashable and treated as immutable: every checker in
:mod:`repro.criteria` memoises on ``(set-of-consumed-events, state)`` pairs,
and the replication algorithms in :mod:`repro.algorithms` replay prefixes of
update sequences.

Updates vs queries (Sec. 2.1): an input symbol is an *update* when its
transition is not always a loop, and a *query* when its output depends on
the state.  These are semantic properties of the (possibly infinite)
transducer, so concrete ADTs declare them via :meth:`AbstractDataType.is_update`
and :meth:`AbstractDataType.is_query` (the tests cross-check the declarations
against an empirical classification in ``tests/oracles.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, Iterable, Tuple

from .operations import Invocation, Operation

State = Hashable


class AbstractDataType(ABC):
    """A sequential abstract data type ``T`` (Def. 1).

    Subclasses implement the transducer (``initial_state``, ``transition``,
    ``output``) and the update/query classification.  All other behaviour —
    sequential specification membership, replay, linearisation search — is
    derived in :mod:`repro.core.replay` and :mod:`repro.criteria`.
    """

    #: Human-readable type name, e.g. ``"W_2"`` or ``"Memory[a-z]"``.
    name: str = "ADT"

    # ------------------------------------------------------------------
    # The transducer
    # ------------------------------------------------------------------
    @abstractmethod
    def initial_state(self) -> State:
        """Return the initial abstract state ``q0``."""

    @abstractmethod
    def transition(self, state: State, invocation: Invocation) -> State:
        """The transition function ``delta`` (total: must accept any state
        and any invocation of the type's alphabet)."""

    @abstractmethod
    def output(self, state: State, invocation: Invocation) -> Any:
        """The output function ``lambda`` (total)."""

    # ------------------------------------------------------------------
    # Update / query classification (Sec. 2.1)
    # ------------------------------------------------------------------
    @abstractmethod
    def is_update(self, invocation: Invocation) -> bool:
        """True when ``delta(q, invocation) != q`` for some state ``q``."""

    @abstractmethod
    def is_query(self, invocation: Invocation) -> bool:
        """True when ``lambda`` depends on the state for this invocation."""

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def apply(self, state: State, invocation: Invocation) -> Tuple[State, Any]:
        """Apply ``invocation`` to ``state``: returns ``(delta, lambda)``."""
        return self.transition(state, invocation), self.output(state, invocation)

    def run(self, invocations: Iterable[Invocation]) -> Tuple[State, list]:
        """Run a sequence of invocations from ``q0``.

        Returns the final state and the list of outputs, i.e. the unique
        sequential execution of the program (useful in examples and tests).
        """
        state = self.initial_state()
        outputs = []
        for invocation in invocations:
            state, out = self.apply(state, invocation)
            outputs.append(out)
        return state, outputs

    def operation(self, invocation: Invocation) -> Operation:
        """Run ``invocation`` on ``q0`` and wrap it with its output."""
        return Operation(invocation, self.output(self.initial_state(), invocation))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ADT {self.name}>"
