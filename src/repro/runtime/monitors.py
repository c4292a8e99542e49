"""Always-on runtime invariant monitors (PR 6).

A :class:`RuntimeMonitor` is a read-only observer that the broadcast
layers call on every delivery and GC sweep.  It re-checks, from its own
independent bookkeeping, the safety invariants the implementation is
supposed to maintain:

``double-apply``
    no message is delivered twice to the same process (duplicate
    tolerance of the dedup frontier, including duplicates of messages
    already pruned by the stability GC);
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
        # double-apply: every (receiver, message id) seen so far
        self._applied: Set[Tuple[int, Any]] = set()
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

    # ------------------------------------------------------------------
    # hooks called by the broadcast layers
    # ------------------------------------------------------------------
    def on_deliver(self, pid: int, mid: Any) -> None:
        """Any delivery: ``mid`` must be new for ``pid``."""
        key = (pid, mid)
        if key in self._applied:
            self._flag("double-apply", pid, f"message {mid!r} delivered twice")
            return
        self._applied.add(key)

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
        key = (pid, mid)
        if key in self._applied:
            self._flag("double-apply", pid, f"message {mid!r} delivered twice")
            return
        self._applied.add(key)
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
