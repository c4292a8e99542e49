"""Time zones of an event (Fig. 2).

Given a history and a causal order, each event divides the history into six
zones: causal past / program past, causal future / program future, the
present (the event itself) and the concurrent present.  Fig. 2 explains the
criteria in terms of how much of each zone must be respected; this module
computes the zones and renders the figure's grid as text (experiment E2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..core.history import History
from ..util.bitset import bits
from ..util.orders import transitive_closure


@dataclass(frozen=True)
class TimeZones:
    """The six zones of Fig. 2 for one event (as frozensets of event ids)."""

    event: int
    program_past: FrozenSet[int]
    causal_past: FrozenSet[int]         # strict, includes the program past
    program_future: FrozenSet[int]
    causal_future: FrozenSet[int]       # strict, includes the program future
    concurrent_present: FrozenSet[int]

    @property
    def pure_causal_past(self) -> FrozenSet[int]:
        """Causal past that is not program past (striped zone of Fig. 2b/c)."""
        return self.causal_past - self.program_past

    @property
    def present(self) -> FrozenSet[int]:
        return frozenset({self.event})


def causal_order_masks(
    history: History, extra_edges: Iterable[Tuple[int, int]]
) -> List[int]:
    """Strict predecessor masks of ``TC(program order ∪ extra_edges)``.

    Raises ``ValueError`` when the result is cyclic (not a causal order).
    """
    pred = [history.past_mask(e) for e in range(len(history))]
    for a, b in extra_edges:
        pred[b] |= 1 << a
    return transitive_closure(pred)


def zones_of(
    history: History,
    event: int,
    causal_pred: Sequence[int],
) -> TimeZones:
    """Compute the six zones of ``event`` under the given causal order."""
    n = len(history)
    causal_past = set(bits(causal_pred[event]))
    program_past = set(bits(history.past_mask(event)))
    causal_future = {
        e for e in range(n) if causal_pred[e] & (1 << event)
    }
    program_future = {
        e for e in range(n) if history.past_mask(e) & (1 << event)
    }
    concurrent = (
        set(range(n)) - causal_past - causal_future - {event}
    )
    return TimeZones(
        event=event,
        program_past=frozenset(program_past),
        causal_past=frozenset(causal_past),
        program_future=frozenset(program_future),
        causal_future=frozenset(causal_future),
        concurrent_present=frozenset(concurrent),
    )


#: Which zones each criterion constrains, per the caption of Fig. 2:
#: "full" zones must be respected with their outputs, "effects" zones
#: contribute their updates only.
CRITERION_ZONES: Dict[str, Dict[str, str]] = {
    "PC": {"program_past": "full", "other_processes": "effects-prefix"},
    "WCC": {"causal_past": "effects", "present": "full"},
    "CC": {"program_past": "full", "causal_past": "effects", "present": "full"},
    "SC": {"causal_past": "full", "present": "full", "concurrent_present": "empty"},
}


def render_zones(history: History, zones: TimeZones) -> str:
    """ASCII rendering of the Fig. 2 grid for one event.

    Events are laid out by process row; each cell is tagged with the zone
    it belongs to (PP/CP/PF/CF/NOW/CC for program/causal past/future,
    the present and the concurrent present).
    """
    tags = {}
    for e in zones.program_past:
        tags[e] = "PP"
    for e in zones.pure_causal_past:
        tags[e] = "CP"
    for e in zones.program_future:
        tags[e] = "PF"
    for e in zones.causal_future - zones.program_future:
        tags[e] = "CF"
    for e in zones.concurrent_present:
        tags[e] = "CC"
    tags[zones.event] = "NOW"
    rows: Dict[int, List[str]] = {}
    for event in history:
        label = f"{event.operation!r}[{tags.get(event.eid, '?')}]"
        rows.setdefault(event.process if event.process is not None else -1, []).append(
            label.ljust(14)
        )
    lines = []
    for process in sorted(rows):
        name = f"p{process}" if process >= 0 else "??"
        lines.append(f"{name}: " + " ".join(rows[process]))
    return "\n".join(lines)
