"""Fig. 5 — causally convergent array of K window streams of size k.

Writes are timestamped with a Lamport clock [14] paired with the writer's
id, giving a total order compatible with causality; every replica keeps,
per stream, the k timestamp-largest writes in timestamp order, so all
replicas converge to the same window once they have received the same
messages (Prop. 7).

Transcription note (its artifact is
``benchmarks/results/fig5_transcription_note.txt``; tested in
``tests/test_algorithms.py::TestPaperLiteralInsertion``): the pseudocode
as printed has an off-by-one — the insertion loop is bounded by
``y < k - 1`` and shifts ``str[x][y] <- str[x][y+1]`` *before* placing the
new value at ``y - 1``.  Taken literally this (a) never inserts anything
for ``k = 1`` and (b) drops the newest surviving value when the incoming
timestamp dominates the whole window (e.g. two sequential writes on an
empty ``W_2`` leave the first write's value nowhere).  The corrected loop
below bounds the scan by ``y < k`` and shifts through ``y - 1``; pass
``paper_literal=True`` to run the printed version (used by the regression
test that demonstrates the misprint).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..core.operations import BOTTOM, Invocation
from ..runtime.broadcast import CausalBroadcast, LazyCausalBroadcast
from ..runtime.network import Network
from ..runtime.recorder import HistoryRecorder
from ..runtime.simulator import Simulator
from .base import Callback, ReplicatedObject

Stamp = Tuple[int, int]  # (lamport time, process id)


class CCvWindowArray(ReplicatedObject):
    """The algorithm of Fig. 5 (corrected insertion; see module docstring)."""

    name = "CCv(W_k^K) [Fig.5]"
    wait_free = True

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        recorder: Optional[HistoryRecorder] = None,
        streams: int = 1,
        k: int = 2,
        default: Any = 0,
        flood: bool = True,
        paper_literal: bool = False,
        lazy: bool = False,
    ) -> None:
        super().__init__(sim, network, recorder)
        self.streams = streams
        self.k = k
        self.paper_literal = paper_literal
        # str_i: per process, per stream, k cells (value, (vt, j)),
        # oldest timestamp first; (0, 0) stamps the initial default values
        self.state: List[List[List[Tuple[Any, Stamp]]]] = [
            [[(default, (0, 0))] * k for _ in range(streams)] for _ in range(self.n)
        ]
        # vtime_i: the Lamport clock of each process
        self.vtime: List[int] = [0] * self.n
        # lazy=True swaps in the push/lazy-push transport (PR 8): the
        # same causal-delivery layer on ~n·log n messages per broadcast
        # instead of n(n-1), with different delivery schedules
        broadcast_cls = LazyCausalBroadcast if lazy else CausalBroadcast
        self.broadcast = broadcast_cls(network, flood=flood)
        self.endpoints = [
            self.broadcast.endpoint(pid, self._receiver(pid)) for pid in range(self.n)
        ]

    # ------------------------------------------------------------------
    def _receiver(self, pid: int):
        def on_deliver(_origin: int, payload: Tuple[int, Any, int, int]) -> None:
            x, value, vt, j = payload
            # line 11: merge the Lamport clock
            self.vtime[pid] = max(self.vtime[pid], vt)
            row = self.state[pid][x]
            stamp = (vt, j)
            if self.paper_literal:
                # lines 12-19 exactly as printed (off-by-one, see module doc)
                y = 0
                while y < self.k - 1 and row[y][1] <= stamp:
                    row[y] = row[y + 1]
                    y += 1
                if y != 0:
                    row[y - 1] = (value, stamp)
            else:
                # corrected insertion: keep the k largest stamps sorted
                y = 0
                while y < self.k and row[y][1] <= stamp:
                    if y >= 1:
                        row[y - 1] = row[y]
                    y += 1
                if y != 0:
                    row[y - 1] = (value, stamp)

        return on_deliver

    # ------------------------------------------------------------------
    def invoke(
        self, pid: int, invocation: Invocation, callback: Optional[Callback] = None
    ) -> Optional[Any]:
        start = self.sim.now
        if invocation.method == "r":
            (x,) = invocation.args
            # line 5: strip the timestamps
            output = tuple(cell[0] for cell in self.state[pid][x])
            return self._complete(pid, invocation, output, start, callback)
        if invocation.method == "w":
            x, value = invocation.args
            # line 8: broadcast with timestamp (vtime+1, i); the local
            # delivery merges the clock, implementing the increment
            self.endpoints[pid].broadcast((x, value, self.vtime[pid] + 1, pid))
            return self._complete(pid, invocation, BOTTOM, start, callback)
        raise ValueError(f"window array has no method {invocation.method!r}")

    # ------------------------------------------------------------------
    def window(self, pid: int, x: int) -> Tuple[Any, ...]:
        """Observability helper: the current window of ``x`` at ``pid``."""
        return tuple(cell[0] for cell in self.state[pid][x])
