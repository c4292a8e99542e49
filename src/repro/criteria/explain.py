"""Failure diagnostics: *why* is a history not causally consistent?

A NO answer from the causal checkers is an exhaustion result — correct
but opaque.  This module produces human-readable explanations at two
levels:

- **locally inexplicable events**: events whose output cannot be produced
  by *any* set of updates of the history in *any* order (e.g. a read of a
  value never written).  These doom every criterion down to WCC and are
  reported first.
- **assembly conflicts**: when every event is locally explicable, the
  failure is global — the per-event requirements cannot be assembled into
  one causal order.  We report, for each event, the mandatory semantic
  arrows (from :mod:`repro.criteria.dependencies` when available) and the
  program-order chains through them, the raw material of arguments like
  the paper's Fig. 3b walk-through ("the causal order of this history is
  total, so ...").

The diagnostics never influence the checkers; they re-derive everything
from the definitions, so they are safe to show to users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from ..core.adt import AbstractDataType
from ..core.history import History
from ..util.bitset import bits


@dataclass
class Explanation:
    """Diagnostic report for a (usually failing) history."""

    criterion: str
    ok: bool
    locally_inexplicable: List[int] = field(default_factory=list)
    mandatory_arrows: List[Tuple[int, int]] = field(default_factory=list)
    forced_chains: List[List[int]] = field(default_factory=list)
    summary: str = ""

    def render(self, history: History) -> str:
        lines = [self.summary]
        if self.locally_inexplicable:
            lines.append("locally inexplicable events:")
            for eid in self.locally_inexplicable:
                lines.append(
                    f"  {history.event(eid).operation!r} — no set of updates "
                    "of this history can produce this output in any order"
                )
        if self.mandatory_arrows:
            lines.append("mandatory causal arrows (unique explanations):")
            for source, target in self.mandatory_arrows:
                lines.append(
                    f"  {history.event(source).operation!r} --> "
                    f"{history.event(target).operation!r}"
                )
        if self.forced_chains:
            lines.append("forced causal chains (program order through arrows):")
            for chain in self.forced_chains:
                lines.append(
                    "  "
                    + " -> ".join(repr(history.event(e).operation) for e in chain)
                )
        return "\n".join(lines)


def locally_explicable(
    history: History, adt: AbstractDataType, eid: int
) -> bool:
    """Can *some* subset of the history's updates, in *some* order, put the
    object in a state where ``eid``'s output is correct?

    This is the per-event check of WCC with all constraints removed —
    a necessary condition for every causal criterion.  Decided exactly by
    a DFS over (used-update-set, state) pairs: at every reached state we
    test the output, so all subsets in all orders are covered, with the
    usual state-collapsing memoisation.
    """
    event = history.event(eid)
    if event.hidden:
        return True
    updates = [
        e.eid
        for e in history
        if adt.is_update(e.invocation) and e.eid != eid
    ]
    memo: Set[Tuple[int, object]] = set()

    def explore(used_mask: int, state: object) -> bool:
        if adt.output(state, event.invocation) == event.output:
            return True
        if (used_mask, state) in memo:
            return False
        memo.add((used_mask, state))
        for i, u in enumerate(updates):
            bit = 1 << i
            if used_mask & bit:
                continue
            nstate = adt.transition(state, history.event(u).invocation)
            if explore(used_mask | bit, nstate):
                return True
        return False

    return explore(0, adt.initial_state())


def explain(
    history: History, adt: AbstractDataType, criterion: str = "WCC"
) -> Explanation:
    """Build an :class:`Explanation` for the history under ``criterion``."""
    from .base import CRITERIA

    result = CRITERIA[criterion.upper()](history, adt)
    report = Explanation(criterion=criterion.upper(), ok=result.ok)
    if result.ok:
        report.summary = f"history satisfies {report.criterion}; nothing to explain"
        return report
    # 1. local explicability
    for event in history:
        if not locally_explicable(history, adt, event.eid):
            report.locally_inexplicable.append(event.eid)
    # 2. mandatory arrows + forced chains
    try:
        from .dependencies import mandatory_edges

        report.mandatory_arrows = mandatory_edges(history, adt)
    except TypeError:
        report.mandatory_arrows = []
    if report.mandatory_arrows:
        # walk maximal chains alternating arrows and program order
        adjacency = {}
        for source, target in report.mandatory_arrows:
            adjacency.setdefault(source, set()).add(target)
        for e in range(len(history)):
            for succ in bits(history.succ_mask(e)):
                adjacency.setdefault(e, set()).add(succ)

        def extend(chain: List[int], depth: int) -> List[int]:
            if depth == 0:
                return chain
            best = chain
            for nxt in sorted(adjacency.get(chain[-1], ())):
                if nxt in chain:
                    continue
                candidate = extend(chain + [nxt], depth - 1)
                if len(candidate) > len(best):
                    best = candidate
            return best

        sources = {s for s, _ in report.mandatory_arrows}
        chains = []
        for source in sorted(sources):
            chain = extend([source], depth=len(history))
            if len(chain) >= 3:
                chains.append(chain)
        # keep the longest few, deduplicated by end points
        chains.sort(key=len, reverse=True)
        report.forced_chains = chains[:3]
    if report.locally_inexplicable:
        report.summary = (
            f"{report.criterion} fails: {len(report.locally_inexplicable)} "
            "event(s) cannot be explained by any update set"
        )
    else:
        report.summary = (
            f"{report.criterion} fails globally: every event is explicable "
            "in isolation, but the requirements cannot be assembled into "
            "one causal order (see the forced chains)"
        )
    return report
