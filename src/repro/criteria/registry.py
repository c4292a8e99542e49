"""Import all criterion modules so that :data:`repro.criteria.base.CRITERIA`
is fully populated, and expose a convenience ``classify`` helper."""

from __future__ import annotations

import inspect
from typing import Dict, Iterable, Optional

from ..core.adt import AbstractDataType
from ..core.history import History
from . import (  # noqa: F401  (imported for their registration side effects)
    causal,
    linearizability,
    causal_memory,
    eventual,
    pipelined,
    sequential,
    session,
)
from .base import CRITERIA, CheckResult


def classify(
    history: History,
    adt: AbstractDataType,
    criteria: Optional[Iterable[str]] = None,
    **kwargs,
) -> Dict[str, CheckResult]:
    """Run several criteria on one history.

    Defaults to the Fig. 1 criteria (SC, CC, CCv, PC, WCC); EC/UC and the
    memory-specific checkers must be requested explicitly since they need
    extra structure (quiescence, memory ADT).  Keyword arguments are
    forwarded to each checker that accepts them (e.g. ``max_nodes`` for
    the causal searches).
    """
    names = [c.upper() for c in (criteria or ("SC", "CC", "CCV", "PC", "WCC"))]
    results: Dict[str, CheckResult] = {}
    for name in names:
        checker = CRITERIA[name]
        accepted = inspect.signature(checker).parameters
        passed = {k: v for k, v in kwargs.items() if k in accepted}
        results[name] = checker(history, adt, **passed)
    return results
