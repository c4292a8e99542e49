"""Session guarantees of Terry et al. [24] on memory histories.

Sec. 1 of the paper recalls that causal consistency corresponds to the four
session guarantees; Sec. 4 refines this: WCC and CCv ensure *read your
writes*, *monotonic writes* and *writes follow reads* but not *monotonic
reads*, while CC ensures all four.  Experiment E9 measures violation rates
on algorithm runs.

The checkers are *observational*: they operate on histories whose written
values are all distinct (the standard hypothesis [18] also used in
Prop. 4), so every read is bound to the unique write of the value it
returned.  With ``hb`` the transitive closure of program order plus these
read-from bindings:

- **RYW**  violated when a process reads, on a register it previously
  wrote, the default value or a value whose write is strictly
  ``hb``-before its own latest prior write (values concurrent with the
  own write are legitimate overwrites).
- **MR**   violated when two successive reads of a register by one process
  go backwards: the second read's write is strictly ``hb``-before the
  first's.
- **MW**   violated when two writes ``w1 |-> w2`` of one process are seen
  out of order by another: it reads ``w2``'s value, yet a later read of
  ``w1``'s register returns a strictly ``hb``-earlier value (or the
  default).
- **WFR**  violated when a process writes ``w2`` after reading ``w1``'s
  value, and another process reads ``w2`` yet later reads ``w1``'s
  register strictly ``hb``-before ``w1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..adts.memory import MemoryADT
from ..adts.window_stream import INITIAL_VALUE
from ..core.history import History
from ..util.orders import transitive_closure
from .base import CheckResult, register


class SessionAnalysis:
    """Shared pre-computation: bindings and the happens-before order."""

    def __init__(self, history: History, adt: MemoryADT) -> None:
        if not isinstance(adt, MemoryADT):
            raise TypeError("session guarantees are defined on memory histories")
        self.history = history
        self.adt = adt
        self.writes_of_value: Dict[Tuple[object, object], List[int]] = {}
        for event in history:
            target = adt.write_target(event.invocation)
            if target is not None:
                self.writes_of_value.setdefault(target, []).append(event.eid)
        for key, eids in self.writes_of_value.items():
            if len(eids) > 1:
                raise ValueError(
                    f"session analysis requires distinct written values; "
                    f"{key} written {len(eids)} times"
                )
        # bind reads
        self.binding: Dict[int, Optional[int]] = {}
        for event in history:
            reg = adt.read_target(event.invocation)
            if reg is None or event.hidden:
                continue
            if event.output == INITIAL_VALUE:
                self.binding[event.eid] = None
            else:
                writers = self.writes_of_value.get((reg, event.output))
                if not writers:
                    raise ValueError(
                        f"read {event!r} returns a value never written"
                    )
                self.binding[event.eid] = writers[0]
        # happens-before = TC(po ∪ read-from)
        pred = [history.past_mask(e) for e in range(len(history))]
        for read_eid, write_eid in self.binding.items():
            if write_eid is not None:
                pred[read_eid] |= 1 << write_eid
        self.hb = transitive_closure(pred)

    def hb_lt(self, a: int, b: int) -> bool:
        return bool(self.hb[b] & (1 << a))

    # ------------------------------------------------------------------
    def _chain_events(self):
        for chain in self.history.processes():
            yield chain

    def read_your_writes(self) -> List[str]:
        violations = []
        adt, history = self.adt, self.history
        for chain in self._chain_events():
            last_write: Dict[object, int] = {}
            for eid in chain:
                event = history.event(eid)
                target = adt.write_target(event.invocation)
                if target is not None:
                    last_write[target[0]] = eid
                    continue
                reg = adt.read_target(event.invocation)
                if reg is None or reg not in last_write or event.hidden:
                    continue
                own = last_write[reg]
                bound = self.binding.get(eid)
                if bound == own:
                    continue
                # reading a value *concurrent* with the own write is fine
                # (the own write was applied, then overwritten); only a
                # strictly hb-earlier value — or the default — proves the
                # own write was ignored
                if bound is None or self.hb_lt(bound, own):
                    violations.append(
                        f"read {event!r} ignores own write {history.event(own)!r}"
                    )
        return violations

    def monotonic_reads(self) -> List[str]:
        violations = []
        history = self.history
        for chain in self._chain_events():
            last_read: Dict[object, int] = {}
            for eid in chain:
                event = history.event(eid)
                reg = self.adt.read_target(event.invocation)
                if reg is None or event.hidden:
                    continue
                if reg in last_read:
                    prev_bound = self.binding.get(last_read[reg])
                    bound = self.binding.get(eid)
                    if prev_bound is not None and (
                        bound is None
                        or (bound != prev_bound and self.hb_lt(bound, prev_bound))
                    ):
                        violations.append(
                            f"read {event!r} is older than earlier read "
                            f"{history.event(last_read[reg])!r}"
                        )
                last_read[reg] = eid
        return violations

    def _sees_w2_then_stale_w1(self, w1: int, w2: int, label: str) -> List[str]:
        """Common core of MW and WFR: a process reads w2's value, then a
        later read of w1's register returns something strictly before w1."""
        violations = []
        history, adt = self.history, self.adt
        reg1 = adt.write_target(history.event(w1).invocation)[0]
        for chain in self._chain_events():
            seen_w2_at: Optional[int] = None
            for position, eid in enumerate(chain):
                event = history.event(eid)
                reg = adt.read_target(event.invocation)
                if reg is None or event.hidden:
                    continue
                bound = self.binding.get(eid)
                if bound == w2:
                    seen_w2_at = position
                    continue
                if seen_w2_at is None or reg != reg1:
                    continue
                if bound == w1:
                    continue
                if bound is None or self.hb_lt(bound, w1):
                    violations.append(
                        f"{label}: {event!r} misses {history.event(w1)!r} "
                        f"after seeing {history.event(w2)!r}"
                    )
        return violations

    def monotonic_writes(self) -> List[str]:
        violations = []
        history, adt = self.history, self.adt
        for chain in self._chain_events():
            writes = [e for e in chain if adt.write_target(history.event(e).invocation)]
            for i, w1 in enumerate(writes):
                for w2 in writes[i + 1 :]:
                    violations.extend(self._sees_w2_then_stale_w1(w1, w2, "MW"))
        return violations

    def writes_follow_reads(self) -> List[str]:
        violations = []
        history, adt = self.history, self.adt
        for chain in self._chain_events():
            reads_so_far: List[int] = []
            for eid in chain:
                event = history.event(eid)
                if adt.read_target(event.invocation) is not None and not event.hidden:
                    bound = self.binding.get(eid)
                    if bound is not None:
                        reads_so_far.append(bound)
                    continue
                if adt.write_target(event.invocation) is not None:
                    for w1 in reads_so_far:
                        violations.extend(
                            self._sees_w2_then_stale_w1(w1, eid, "WFR")
                        )
        return violations


def _session_check(name: str, collect) -> CheckResult:
    violations = collect()
    if violations:
        return CheckResult(name, False, reason="; ".join(violations[:3]),
                           stats={"violations": len(violations)})
    return CheckResult(name, True, stats={"violations": 0})


@register("RYW")
def check_read_your_writes(history: History, adt: MemoryADT) -> CheckResult:
    return _session_check("RYW", SessionAnalysis(history, adt).read_your_writes)


@register("MR")
def check_monotonic_reads(history: History, adt: MemoryADT) -> CheckResult:
    return _session_check("MR", SessionAnalysis(history, adt).monotonic_reads)


@register("MW")
def check_monotonic_writes(history: History, adt: MemoryADT) -> CheckResult:
    return _session_check("MW", SessionAnalysis(history, adt).monotonic_writes)


@register("WFR")
def check_writes_follow_reads(history: History, adt: MemoryADT) -> CheckResult:
    return _session_check("WFR", SessionAnalysis(history, adt).writes_follow_reads)


def all_session_guarantees(history: History, adt: MemoryADT) -> Dict[str, CheckResult]:
    """Run the four guarantees sharing one analysis pass."""
    analysis = SessionAnalysis(history, adt)
    return {
        "RYW": _session_check("RYW", analysis.read_your_writes),
        "MR": _session_check("MR", analysis.monotonic_reads),
        "MW": _session_check("MW", analysis.monotonic_writes),
        "WFR": _session_check("WFR", analysis.writes_follow_reads),
    }
