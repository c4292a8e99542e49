"""Sequential specification membership — replaying words on a transducer.

The sequential specification ``L(T)`` (Def. 2) is the set of finite or
infinite sequences of (possibly hidden) operations that label a path of the
transducer from ``q0``.  Because ``delta`` and ``lambda`` are total, a
finite word ``u`` belongs to ``L(T)`` iff replaying it from ``q0`` matches
every *visible* output; hidden operations only apply their side effect.

This module is the single place where words are checked, so every criterion
checker agrees on what "conforms to the sequential specification" means.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .adt import AbstractDataType, State
from .operations import HIDDEN, Operation


def replay(
    adt: AbstractDataType, word: Iterable[Operation]
) -> Tuple[bool, State]:
    """Replay ``word`` from the initial state ``q0``.

    Returns ``(accepted, final_state)``.  ``accepted`` is False as soon as a
    non-hidden operation's recorded output differs from ``lambda`` at that
    point; the returned state is then the state reached *before* the
    offending operation.
    """
    state = adt.initial_state()
    for operation in word:
        invocation = operation.invocation
        if operation.output is not HIDDEN:
            produced = adt.output(state, invocation)
            if produced != operation.output:
                return False, state
        state = adt.transition(state, invocation)
    return True, state


def accepts(adt: AbstractDataType, word: Iterable[Operation]) -> bool:
    """``word in L(T)`` for a finite word (Def. 2)."""
    ok, _ = replay(adt, word)
    return ok
