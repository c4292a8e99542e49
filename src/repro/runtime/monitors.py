"""Always-on runtime invariant monitors (PR 6).

A :class:`RuntimeMonitor` is a read-only observer that the broadcast
layers call on every delivery and GC sweep.  It re-checks, from its own
independent bookkeeping, the safety invariants the implementation is
supposed to maintain:

``double-apply``
    no message is delivered twice to the same process (duplicate
    tolerance of the dedup frontier, including duplicates of messages
    already pruned by the stability GC).  Every layer names a message
    ``(origin, k)`` with ``k`` counted from 0, so what a receiver has
    been handed from one origin is a contiguous prefix plus whatever is
    currently out of order: the monitor keeps, per (receiver, origin),
    the length of that prefix, and one set of the ``(receiver, origin,
    k)`` delivered above it — the same information as one set entry per
    delivery ever made, in O(n² + ids out of order) instead of O(run
    length).  A causal layer never leaves the prefix, the reliable,
    lazy and total-order layers do for as long as a message is in
    flight, and an entry that stays names a receiver missing a message
    for good (``stats()["out_of_order"]``).  A check is two list
    indexings.  Nothing is read from the endpoint under observation:
    the frontier is rebuilt from the hooks alone, so a dedup bug cannot
    hide itself;
``unknown-id``
    a delivery hook named a process or a message outside the run's id
    space (a pid or origin outside ``0..n-1``, a negative sequence
    number, an id that is not a pair): it cannot be tracked, so it is
    reported rather than raised — on a live node the monitor runs in
    the tap's drainer task;
``fifo-order``
    per-(receiver, origin) delivery follows the origin's sequence
    numbers with no gap and no regression;
``causal-order``
    a causally-ordered delivery carries a vector stamp that is exactly
    next for its origin and covered for every other entry — the
    textbook causal-delivery condition re-evaluated against the
    monitor's own delivery counts;
``gc-frontier``
    the stability frontier only advances, and never beyond any
    replica's seen frontier (crashed replicas included — their frozen
    frontier is what makes pruning safe across recovery);
``pruned-gap``
    resync verification never finds a hole *below* the stability
    frontier: such a message is pruned from every log and the gap
    would be unrepairable;
``resync-stranded``
    supervised resync exhausted its attempts with the target still
    missing messages;
``pull-stranded``
    a lazy-push receiver exhausted its pull attempts with an advertised
    body still missing.

Monitors deliberately do **not** touch the rng and do not schedule
events, so a run with monitors attached delivers a bit-identical
history to the same run without them; the chaos driver and the default
explore path both leave them on.  Violations are capped (the first
``max_violations`` are kept) so a catastrophically broken run cannot
accumulate unbounded diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation."""

    kind: str
    pid: int
    time: float
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] pid={self.pid} t={self.time:g}: {self.detail}"


class RuntimeMonitor:
    """Independent re-checker for broadcast-layer safety invariants.

    One instance watches one run (all processes).  The broadcast
    services call the ``on_*`` hooks; :attr:`violations` collects what
    they caught and :attr:`ok` summarises.
    """

    def __init__(
        self,
        n: int,
        sim: Optional[Any] = None,
        max_violations: int = 64,
    ) -> None:
        self.n = n
        self.sim = sim
        self.max_violations = max_violations
        self.violations: List[Violation] = []
        self.dropped = 0  # violations beyond the cap
        # double-apply: per receiver, per origin, how many of the
        # origin's messages were delivered with none skipped ...
        self._frontier: List[List[int]] = [[0] * n for _ in range(n)]
        # ... and the (receiver, origin, seq) delivered above that
        self._spill: Set[Tuple[int, int, int]] = set()
        # fifo-order: next expected seq per (receiver, origin)
        self._fifo_next: Dict[Tuple[int, int], int] = {}
        # causal-order: per-receiver delivery counts per origin
        self._counts: List[List[int]] = [[0] * n for _ in range(n)]
        # gc-frontier: last stability frontier seen
        self._stable_seen: Optional[List[int]] = None

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def _flag(self, kind: str, pid: int, detail: str) -> None:
        if len(self.violations) >= self.max_violations:
            self.dropped += 1
            return
        self.violations.append(Violation(kind, pid, self.now, detail))

    def summary(self) -> str:
        if self.ok:
            return "monitors: ok"
        kinds: Dict[str, int] = {}
        for v in self.violations:
            kinds[v.kind] = kinds.get(v.kind, 0) + 1
        parts = ", ".join(f"{k}×{c}" for k, c in sorted(kinds.items()))
        extra = f" (+{self.dropped} dropped)" if self.dropped else ""
        return f"monitors: {len(self.violations)} violations ({parts}){extra}"

    def stats(self) -> Dict[str, Any]:
        """Verdict and state size; ``out_of_order`` counts deliveries
        still above a gap — one that stays non-zero on a quiet cluster
        names a receiver that is missing a message."""
        return {
            "ok": self.ok,
            "total": len(self.violations),
            "dropped": self.dropped,
            "out_of_order": len(self._spill),
        }

    def _first_delivery(self, pid: int, mid: Any) -> bool:
        """Note that ``mid`` reached ``pid``; flag and return False when
        it already had, or when the monitor has no such pid or id."""
        try:
            origin, seq = mid
            if pid < 0 or origin < 0 or seq < 0:
                raise IndexError  # would index from the other end
            row = self._frontier[pid]
            nxt = row[origin]
            late = seq < nxt
        except (TypeError, ValueError, IndexError):
            self._flag(
                "unknown-id",
                pid,
                f"message {mid!r} outside the id space of {self.n} processes",
            )
            return False
        spill = self._spill
        if seq == nxt:
            nxt += 1
            while spill and (pid, origin, nxt) in spill:
                spill.remove((pid, origin, nxt))
                nxt += 1
            row[origin] = nxt
            return True
        key = (pid, origin, seq)
        if late or key in spill:
            self._flag("double-apply", pid, f"message {mid!r} delivered twice")
            return False
        spill.add(key)
        return True

    # ------------------------------------------------------------------
    # hooks called by the broadcast layers
    # ------------------------------------------------------------------
    def on_deliver(self, pid: int, mid: Any) -> None:
        """Any delivery: ``mid`` must be new for ``pid``."""
        self._first_delivery(pid, mid)

    def on_fifo_deliver(self, pid: int, origin: int, seq: int) -> None:
        """FIFO delivery: ``seq`` must be exactly the next from origin."""
        key = (pid, origin)
        expected = self._fifo_next.get(key, 0)
        if seq != expected:
            self._flag(
                "fifo-order",
                pid,
                f"from {origin}: delivered seq {seq}, expected {expected}",
            )
        # resynchronise so one slip does not cascade into noise
        self._fifo_next[key] = max(expected, seq) + 1

    def on_causal_deliver(
        self, pid: int, mid: Any, origin: int, stamp: Sequence[int]
    ) -> None:
        """Causal delivery: dedup + the causal-delivery stamp condition."""
        if not self._first_delivery(pid, mid):
            return
        counts = self._counts[pid]
        if stamp[origin] != counts[origin] + 1:
            self._flag(
                "causal-order",
                pid,
                f"from {origin}: stamp {list(stamp)!r} origin entry "
                f"{stamp[origin]} != {counts[origin] + 1}",
            )
        else:
            for j, s in enumerate(stamp):
                if s > counts[j] and j != origin:
                    self._flag(
                        "causal-order",
                        pid,
                        f"from {origin}: stamp {list(stamp)!r} not covered "
                        f"at {j} (have {counts[j]})",
                    )
                    break
        counts[origin] += 1

    def on_gc(
        self,
        stable: Sequence[int],
        frontiers: Sequence[Sequence[int]],
        crashed: Any,
    ) -> None:
        """Stability sweep: frontier sound (≤ every replica's seen
        frontier, crashed ones included) and monotone.  Endpoints hosted
        side by side each report the frontier they computed from the
        same rows; frontiers only grow, so one already checked needs no
        second look."""
        if self._stable_seen == list(stable):
            return
        for origin, s in enumerate(stable):
            for pid in range(len(frontiers)):
                if s > frontiers[pid][origin]:
                    note = " (crashed)" if pid in crashed else ""
                    self._flag(
                        "gc-frontier",
                        pid,
                        f"stable[{origin}]={s} exceeds replica {pid}'s "
                        f"frontier {frontiers[pid][origin]}{note}",
                    )
        prev = self._stable_seen
        if prev is not None:
            for origin, s in enumerate(stable):
                if s < prev[origin]:
                    self._flag(
                        "gc-frontier",
                        -1,
                        f"stable[{origin}] regressed {prev[origin]} -> {s}",
                    )
        self._stable_seen = list(stable)

    def on_pruned_gap(self, target: int, origin: int, seq: int) -> None:
        """Resync found a hole below the stability frontier."""
        self._flag(
            "pruned-gap",
            target,
            f"missing ({origin}, {seq}) below stability frontier — "
            f"pruned from every log, unrepairable",
        )

    def on_resync_stranded(self, target: int, attempts: int) -> None:
        """Supervised resync gave up with the target still behind."""
        self._flag(
            "resync-stranded",
            target,
            f"still missing messages after {attempts} catch-up attempts",
        )

    def on_pull_stranded(self, pid: int, mid: Any, attempts: int) -> None:
        """A lazy-push receiver exhausted its pull attempts with the
        advertised body still missing (mirror of ``resync-stranded`` for
        the pull path)."""
        self._flag(
            "pull-stranded",
            pid,
            f"body {mid!r} still missing after {attempts} pull attempts",
        )
