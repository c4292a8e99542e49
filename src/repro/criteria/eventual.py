"""Eventual consistency and update consistency, finitely rendered.

Eventual consistency [25] constrains *infinite* behaviours: if the
processes stop updating, all replicas eventually converge.  On a finite
history this is rendered operationally (the same rendering used by the
paper's companion work on update consistency [19]):

- a set of *stable* events is designated — queries performed after the
  history has quiesced (our recorders mark post-quiescence reads; by
  default the last event of each process chain is taken when it is a pure
  query);
- **EC**: all stable queries with the same invocation return the same
  output on every process;
- **UC** (update consistency): additionally, some sequence of *all* update
  events, consistent with the program order, leads to a state that
  explains every stable query — i.e. the common limit state is a real
  state of the sequential object reached by a linearisation of the
  updates.

``EC`` is deliberately weak (it says nothing about which common value) and
``UC`` is the natural strengthening; causal convergence implies UC on
quiescent histories, which the hierarchy experiment (E1) verifies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.adt import AbstractDataType, State
from ..core.history import History
from ..util.bitset import bits
from .base import CheckResult, register


def default_stable_events(history: History, adt: AbstractDataType) -> Set[int]:
    """Last event of each chain, when it is a pure query."""
    stable: Set[int] = set()
    for chain in history.processes():
        if not chain:
            continue
        last = history.event(chain[-1])
        if adt.is_query(last.invocation) and not adt.is_update(last.invocation):
            stable.add(last.eid)
    return stable


def _reachable_final_states(
    history: History, adt: AbstractDataType
) -> Set[State]:
    """All states reachable by linearising every update event consistently
    with the program order (memoised over consumed-update masks)."""
    updates = [e.eid for e in history if adt.is_update(e.invocation)]
    m = len(updates)
    upos = {eid: i for i, eid in enumerate(updates)}
    pred = []
    for eid in updates:
        mask = 0
        for p in bits(history.past_mask(eid)):
            if p in upos:
                mask |= 1 << upos[p]
        pred.append(mask)
    full = (1 << m) - 1
    seen: Set[Tuple[int, State]] = set()
    finals: Set[State] = set()
    stack: List[Tuple[int, State]] = [(0, adt.initial_state())]
    while stack:
        consumed, state = stack.pop()
        if (consumed, state) in seen:
            continue
        seen.add((consumed, state))
        if len(seen) > 200_000:
            raise RuntimeError("update interleaving state-space too large")
        if consumed == full:
            finals.add(state)
            continue
        for i in range(m):
            bit = 1 << i
            if consumed & bit or (pred[i] & ~consumed):
                continue
            nstate = adt.transition(state, history.event(updates[i]).invocation)
            stack.append((consumed | bit, nstate))
    return finals


@register("EC")
def check_eventual(
    history: History,
    adt: AbstractDataType,
    stable: Optional[Iterable[int]] = None,
) -> CheckResult:
    """Quiescent eventual consistency: stable queries agree across processes."""
    stable_set = set(stable) if stable is not None else default_stable_events(history, adt)
    by_invocation: Dict[object, Set[object]] = {}
    for eid in stable_set:
        event = history.event(eid)
        if event.hidden:
            continue
        by_invocation.setdefault(event.invocation, set()).add(event.output)
    for invocation, outputs in by_invocation.items():
        if len(outputs) > 1:
            return CheckResult(
                "EC",
                False,
                reason=f"stable query {invocation!r} returned {len(outputs)} "
                f"distinct values: {sorted(map(repr, outputs))}",
            )
    return CheckResult("EC", True, certificate={"stable": sorted(stable_set)})


@register("UC")
def check_update_consistency(
    history: History,
    adt: AbstractDataType,
    stable: Optional[Iterable[int]] = None,
) -> CheckResult:
    """Update consistency [19]: EC plus a linearisation of all updates
    explaining the common stable state."""
    ec = check_eventual(history, adt, stable)
    if not ec:
        return CheckResult("UC", False, reason=ec.reason)
    stable_set = set(stable) if stable is not None else default_stable_events(history, adt)
    finals = _reachable_final_states(history, adt)
    for state in finals:
        if all(
            adt.output(state, history.event(eid).invocation)
            == history.event(eid).output
            for eid in stable_set
            if not history.event(eid).hidden
        ):
            return CheckResult(
                "UC", True, certificate={"stable": sorted(stable_set), "state": state}
            )
    return CheckResult(
        "UC",
        False,
        reason="no linearisation of the updates explains the converged reads",
    )
