"""The hierarchy of consistency criteria (Fig. 1).

``STRONGER_THAN[c]`` lists the criteria that ``c`` strengthens: an arrow
``C1 -> C2`` in Fig. 1 means ``C2(T) ⊆ C1(T)`` for every ADT ``T``.  The
experiment E1 validates these inclusions empirically on litmus and random
histories, and exhibits strictness witnesses for every edge.

EC (and UC) are only comparable on *quiescent* histories (see
:mod:`repro.criteria.eventual`); the hierarchy helpers flag those edges so
that experiments evaluate them only where meaningful.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

#: Direct edges of Fig. 1, as {stronger: {weaker, ...}}.
DIRECT_EDGES: Dict[str, Set[str]] = {
    "SC": {"CC", "CCV"},
    "CC": {"PC", "WCC"},
    "CCV": {"WCC", "EC"},
    "PC": set(),
    "WCC": set(),
    "EC": set(),
}

#: Edges whose weaker side is an eventual-style criterion, meaningful only
#: on quiescent histories; the consistency audit skips them.
QUIESCENT_EDGES: FrozenSet[Tuple[str, str]] = frozenset({("CCV", "EC")})

ALL_CRITERIA: Tuple[str, ...] = ("SC", "CC", "CCV", "PC", "WCC", "EC")


def implied(criterion: str) -> Set[str]:
    """All criteria implied by ``criterion`` (transitive closure of Fig. 1)."""
    seen: Set[str] = set()
    frontier = [criterion.upper()]
    while frontier:
        c = frontier.pop()
        for weaker in DIRECT_EDGES.get(c, ()):
            if weaker not in seen:
                seen.add(weaker)
                frontier.append(weaker)
    return seen


def check_classification_consistency(verdicts: Dict[str, bool]) -> List[str]:
    """Given per-criterion verdicts for one history, list hierarchy
    violations (a stronger criterion holding while a weaker one fails).

    Used by the hierarchy experiment and by the property-based tests: any
    non-empty return value indicates a checker bug (the paper proves the
    inclusions universally).
    """
    problems = []
    for stronger, weakers in DIRECT_EDGES.items():
        if not verdicts.get(stronger, False):
            continue
        for weaker in weakers:
            if (stronger, weaker) in QUIESCENT_EDGES:
                continue
            if weaker in verdicts and not verdicts[weaker]:
                problems.append(
                    f"{stronger} holds but implied {weaker} fails"
                )
    return problems
