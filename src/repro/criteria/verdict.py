"""One verdict rule: the exact search and the streaming monitor, combined.

The causal-order search behind :func:`check` is exact but NP-complete in
general, so it runs under a node budget and on at most
:data:`SEARCH_MAX_OPS` operations.  The bad-pattern monitor
(:mod:`repro.criteria.streaming_monitor`) is polynomial but covers
window streams, registers and memories of differentiated histories only.
A checker may say inconclusive, never a wrong yes or no, so explore,
classify, chaos and the hierarchy audit all ask :func:`decide`:

- a budget trip, or a history past the op cutoff, leaves the search
  silent (``None``), never "no";
- a conclusive monitor verdict decides what the search left open;
- a conclusive monitor verdict that contradicts a conclusive search
  verdict is a ``monitor-disagreement`` failure, and the criterion fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..core.adt import AbstractDataType
from ..core.history import History
from .base import CheckResult
from .causal_search import SearchBudgetExceeded
from .registry import classify
from .streaming_monitor import MonitorVerdict

#: node budget per criterion check of the sweeps (explore, chaos)
CHECK_BUDGET = 400_000

#: ops beyond which the search is not even attempted: its setup is
#: quadratic in events, so a 10k-op scale-tier history would burn
#: minutes before the node budget could trip.  The default sweep tops
#: out at a few dozen ops.
SEARCH_MAX_OPS = 512


@dataclass
class Verdict:
    """One criterion on one history, as :func:`decide` settled it."""

    criterion: str
    ok: Optional[bool]  # None = inconclusive
    result: Optional[CheckResult] = None  # the search's, if it finished
    note: str = ""  # why the search is silent, how the monitor settled it
    #: (kind, detail) records, the shape explore cells and chaos share
    failures: List[Tuple[str, Any]] = field(default_factory=list)

    @property
    def reason(self) -> str:
        # a CheckResult is falsy when its ``ok`` is: test for one
        parts = (self.result.reason if self.result is not None else "", self.note)
        return "; ".join(part for part in parts if part)


def decide(
    history: History,
    adt: AbstractDataType,
    criterion: str,
    *,
    search: bool = True,
    monitor: Optional[MonitorVerdict] = None,
    max_nodes: Optional[int] = None,
) -> Verdict:
    """Decide ``criterion`` on ``history`` by the module's rule.

    ``search=False`` skips the search, which below the op cutoff has no
    time bound.  ``monitor`` is the monitor's verdict on ``criterion``
    (fed live or replayed), if one ran.  ``max_nodes`` bounds the
    causal-order searches; ``None`` keeps each checker's default."""
    criterion = criterion.upper()
    verdict = Verdict(criterion, None)
    if not search:
        verdict.note = "search skipped"
    elif len(history) > SEARCH_MAX_OPS:
        verdict.note = "history beyond enumeration-search reach"
    else:
        kwargs = {} if max_nodes is None else {"max_nodes": max_nodes}
        try:
            result = classify(history, adt, (criterion,), **kwargs)[criterion]
        except SearchBudgetExceeded as exc:
            verdict.note = f"search budget exceeded: {exc}"
        else:
            verdict.result, verdict.ok = result, bool(result.ok)
            if not verdict.ok:
                verdict.failures.append(
                    ("criterion", f"{criterion} conclusively violated")
                )
    if monitor is None or monitor.ok is None:
        return verdict
    if monitor.ok is False and monitor.violation is not None:
        verdict.failures.append(monitor.violation.as_failure())
    if verdict.ok is None:
        verdict.ok = monitor.ok
        verdict.note = _joined(verdict.note, "decided by streaming monitor")
    elif verdict.ok != monitor.ok:
        detail = {"criterion": criterion, "search": verdict.ok,
                  "monitor": monitor.ok, "reason": monitor.reason}
        verdict.failures.append(("monitor-disagreement", detail))
        verdict.ok = False
        verdict.note = _joined(
            verdict.note, f"monitor/search disagreement on {criterion}"
        )
    return verdict


def _joined(note: str, more: str) -> str:
    return f"{note}; {more}" if note else more
