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

from ..adts.window_stream import INITIAL_VALUE
from ..core.operations import BOTTOM, Invocation
from ..runtime.broadcast import CausalBroadcast
from ..runtime.recorder import HistoryRecorder
from ..runtime.simulator import Simulator
from ..runtime.transport import Transport
from .base import Replica, ReplicatedObject

Stamp = Tuple[int, int]  # (lamport time, process id)


class CCvWindowReplica(Replica):
    """The algorithm of Fig. 5 (corrected insertion; see module
    docstring): code for process ``p_i``."""

    def __init__(
        self, pid: int, streams: int, k: int, paper_literal: bool
    ) -> None:
        super().__init__(pid)
        self.k = k
        self.paper_literal = paper_literal
        # str_i: per stream, k cells (value, (vt, j)), oldest timestamp
        # first; (0, 0) stamps the initial values
        self.str: List[List[Tuple[Any, Stamp]]] = [
            [(INITIAL_VALUE, (0, 0))] * k for _ in range(streams)
        ]
        # vtime_i: this process's Lamport clock
        self.vtime = 0

    def invoke(self, invocation: Invocation) -> Any:
        if invocation.method == "r":
            (x,) = invocation.args
            # line 5: strip the timestamps
            return tuple(cell[0] for cell in self.str[x])
        if invocation.method == "w":
            x, value = invocation.args
            # line 8: broadcast with timestamp (vtime+1, i); the local
            # delivery merges the clock, implementing the increment
            self.endpoint.broadcast((x, value, self.vtime + 1, self.pid))
            return BOTTOM
        raise ValueError(f"window array has no method {invocation.method!r}")

    def on_deliver(self, _origin: int, payload: Tuple[int, Any, int, int]) -> None:
        x, value, vt, j = payload
        # line 11: merge the Lamport clock
        self.vtime = max(self.vtime, vt)
        row = self.str[x]
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

    def state(self) -> Tuple[Tuple[Any, ...], ...]:
        return tuple(tuple(cell[0] for cell in row) for row in self.str)


class CCvWindowArray(ReplicatedObject):
    """Fig. 5 hosted: one :class:`CCvWindowReplica` per hosted process."""

    name = "CCv(W_k^K) [Fig.5]"
    replica_cls = CCvWindowReplica
    broadcast_cls = CausalBroadcast

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        recorder: Optional[HistoryRecorder] = None,
        streams: int = 1,
        k: int = 2,
        paper_literal: bool = False,
    ) -> None:
        super().__init__(
            sim, network, recorder,
            streams=streams, k=k, paper_literal=paper_literal,
        )

    # restated, not inherited: the benchmark's per-layer ledger wraps
    # ``vars(CCvWindowArray)["invoke"]`` to time client operations
    invoke = ReplicatedObject.invoke
