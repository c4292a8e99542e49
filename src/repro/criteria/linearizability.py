"""Linearizability (Herlihy & Wing [13]) — the paper's strongest contrast.

Sec. 1 positions the weak criteria against the strong ones: sequential
consistency and linearizability.  Linearizability strengthens SC with
*real time*: if operation ``a`` responds before operation ``b`` is
invoked, ``a`` must precede ``b`` in the linearisation.  It is the only
criterion here that needs more than the history — it needs the
invocation/response intervals, which our recorder captures.

The checker extends the SC linearisation search with the interval order;
it lets the latency experiments show the other half of the paper's
motivation: the wait-free algorithms are *not* linearizable (stale local
reads violate real time), while the sequencer baseline is.
"""

from __future__ import annotations

from typing import Mapping, Tuple

from ..core.adt import AbstractDataType
from ..core.history import History
from .base import CheckResult, register
from .engine import LinItem, LinearizationProblem

Interval = Tuple[float, float]


@register("LIN")
def check_linearizable(
    history: History,
    adt: AbstractDataType,
    intervals: Mapping[int, Interval],
) -> CheckResult:
    """Decide linearizability given each event's real-time
    ``(invocation, response)`` interval."""
    items = [
        LinItem(e.eid, e.invocation, e.output, check=not e.hidden) for e in history
    ]
    pred = [history.past_mask(e.eid) for e in history]
    for a in range(len(history)):
        if a not in intervals:
            raise ValueError(f"missing interval for event {a}")
    for a in range(len(history)):
        for b in range(len(history)):
            if a != b and intervals[a][1] < intervals[b][0]:
                pred[b] |= 1 << a
    problem = LinearizationProblem(adt, items, pred)
    solution = problem.solve()
    stats = {"lin_nodes": problem.nodes_visited}
    if solution is None:
        return CheckResult(
            "LIN",
            False,
            reason="no linearisation respects both outputs and real time",
            stats=stats,
        )
    return CheckResult("LIN", True, certificate=tuple(solution), stats=stats)
