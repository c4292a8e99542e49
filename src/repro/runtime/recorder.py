"""History recorder: from simulated executions to distributed histories.

An execution of a replicated object is observed at the shared-object level
(Sec. 6.1): the recorder logs, per process, the sequence of invocations
with their return values (and invocation/response times for the latency
experiments), and converts the log into a :class:`repro.core.history.
History` whose program order is the per-process order — exactly the
history the paper's correctness propositions quantify over.

``mark_quiescent()`` tags all later events as post-quiescence, which the
EC/UC checkers use as the stable set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.history import History
from ..core.operations import HIDDEN, Invocation, Operation


@dataclass(slots=True)
class OpRecord:
    pid: int
    invocation: Invocation
    output: Any
    start: float
    end: float
    stable: bool = False

    @property
    def latency(self) -> float:
        return self.end - self.start


class HistoryRecorder:
    """Collects operation records during a simulated run."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.rows: List[List[OpRecord]] = [[] for _ in range(n)]
        self._quiescent = False
        self._subscribers: List[Callable[[OpRecord], None]] = []

    def subscribe(self, callback: Callable[[OpRecord], None]) -> None:
        """Stream every future record to ``callback``, zero-copy: the
        callback receives the recorder's own :class:`OpRecord` the moment
        it is appended (streaming monitors attach here).  Subscribers
        must not mutate the record; the recorded history is identical
        with and without subscribers."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[OpRecord], None]) -> None:
        self._subscribers.remove(callback)

    def mark_quiescent(self) -> None:
        """All records added from now on are tagged stable (post-quiescence)."""
        self._quiescent = True

    def record(
        self,
        pid: int,
        invocation: Invocation,
        output: Any,
        start: float,
        end: float,
    ) -> OpRecord:
        rec = OpRecord(pid, invocation, output, start, end, stable=self._quiescent)
        self.rows[pid].append(rec)
        for callback in self._subscribers:
            callback(rec)
        return rec

    # ------------------------------------------------------------------
    def to_history(self) -> History:
        """The recorded distributed history (empty rows are dropped so the
        maximal-chain structure matches the active processes).

        Invocation timestamps travel along as ``History.times`` — for an
        update that is the moment its broadcast was issued, which the CCv
        checker's witness-guided enumeration uses to pick the first total
        update orders to try.
        """
        kept = [row for row in self.rows if row]
        rows = [[Operation(r.invocation, r.output) for r in row] for row in kept]
        times = [[r.start for r in row] for row in kept]
        return History.from_processes(rows, times=times)

    def stable_eids(self) -> Set[int]:
        """Event ids (in :meth:`to_history` numbering) of stable records."""
        stable: Set[int] = set()
        eid = 0
        for row in self.rows:
            if not row:
                continue
            for rec in row:
                if rec.stable:
                    stable.add(eid)
                eid += 1
        return stable

    # ------------------------------------------------------------------
    def latencies(self) -> List[float]:
        return [rec.latency for row in self.rows for rec in row]

    def mean_latency(self) -> float:
        lats = self.latencies()
        return sum(lats) / len(lats) if lats else 0.0

    def count(self) -> int:
        return sum(len(row) for row in self.rows)
