"""The causal criteria: WCC (Def. 8), CC (Def. 9) and CCv (Def. 12).

The paper states all three as one definition over a causal order ``→``:
every event must explain a linearisation of its causal past.  They
differ in which outputs that linearisation keeps and in how the pasts
are ordered, and one search (:mod:`repro.criteria.causal_search`, which
holds the algorithm and its completeness argument) decides all of them,
so each checker below is a declaration.

WCC is the causal common denominator of the two branches of weak
consistency (Fig. 1): it precludes seeing an answer without its
question, but lets processes order concurrent updates differently
forever.  CC strengthens both it and pipelined consistency (Prop. 2) and
coincides with causal memory [2] on registers when all written values
are distinct (Props. 3–4, :mod:`repro.criteria.causal_memory`).  CCv
totally orders the updates, so two operations with the same causal past
read the same state: weak causal consistency plus eventual consistency
(Sec. 5).
"""

from __future__ import annotations

from typing import Tuple

from ..core.adt import AbstractDataType
from ..core.history import History
from .base import CheckResult, Checker, register
from .causal_search import search_causal_order

#: the work counters a family search reports (WCC, CC) …
_FAMILY_STATS = (
    "families", "event_checks", "lin_nodes", "memo_hits", "propagate_steps",
)
#: … and the ones CCv reports, which also enumerates total update orders
_ORDER_STATS = (
    "families", "event_checks", "total_orders", "memo_hits", "propagate_steps",
    "orders_pruned", "conflict_cuts", "orders_to_witness",
)
#: reported name -> :class:`~repro.criteria.causal_search.SearchStats`
#: field, where the two differ
_STATS_FIELD = {"families": "families_explored", "total_orders": "total_orders_tried"}


def _checker(
    name: str, definition: str, failure: str, stats: Tuple[str, ...]
) -> Checker:
    """The registered checker of one causal criterion: where the paper
    defines it, why a history fails it, the counters its search reports."""

    def check_criterion(
        history: History,
        adt: AbstractDataType,
        max_nodes: int = 200_000,
    ) -> CheckResult:
        certificate, work = search_causal_order(
            history, adt, name, max_nodes=max_nodes
        )
        counters = {
            key: getattr(work, _STATS_FIELD.get(key, key)) for key in stats
        }
        if certificate is None:
            return CheckResult(name, False, reason=failure, stats=counters)
        return CheckResult(name, True, certificate=certificate, stats=counters)

    check_criterion.__doc__ = (
        f"Decide ``H ∈ {name}(T)`` by causal-order search.\n\n"
        f"{definition}."
    )
    return register(name)(check_criterion)


check_weak_causal = _checker(
    "WCC",
    "Def. 8: ∃→, ∀e, lin((H→).π(⌊e⌋, {e})) ∩ L(T) ≠ ∅ — each event "
    "explains the side effects of its whole causal past",
    "no causal order lets every event explain its causal past",
    _FAMILY_STATS,
)
check_causal = _checker(
    "CC",
    "Def. 9: ∃→, ∀p ∈ P_H, ∀e ∈ p, lin((H→).π(⌊e⌋, p)) ∩ L(T) ≠ ∅ — "
    "each event explains its causal past together with the outputs of "
    "its own process",
    "no causal order lets every process explain its causal past "
    "together with its own outputs",
    _FAMILY_STATS,
)
check_convergence = _checker(
    "CCV",
    "Def. 12: ∃→ and a total order ≤ ⊇ →, ∀e, the linearisation of ⌊e⌋ "
    "ordered by ≤ is in L(T) — total update orders extending the program "
    "order are enumerated, then causal pasts searched as for WCC",
    "no total order on updates explains every causal past",
    _ORDER_STATS,
)
