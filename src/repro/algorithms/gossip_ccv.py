"""State-based (gossip / anti-entropy) causal convergence.

The paper cites CRDTs [22] as the state-based route to convergence; this
module is the state-based counterpart of Fig. 5.  Each replica keeps, per
stream, the k timestamp-largest writes (a join-semilattice: the merge of
two windows is the top-k of their union), writes are Lamport-stamped as
in Fig. 5, and replicas periodically push their whole state to a random
peer instead of broadcasting operations.

Because the state is a semilattice and gossip retries forever, the
algorithm converges even over *lossy* links with no repair protocol,
where the op-based Fig. 5 needs one: its direct sends converge only
through heartbeat-digest repair — the trade-off measured in
``benchmarks/bench_gossip.py``.  The price is message size (the whole
window array travels) and the loss of per-operation causality across
streams during a partition of the gossip graph.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..adts.window_stream import INITIAL_VALUE
from ..core.operations import BOTTOM, Invocation
from ..runtime.recorder import HistoryRecorder
from ..runtime.simulator import Simulator
from ..runtime.transport import Transport
from .base import Replica, ReplicatedObject

Stamp = Tuple[int, int]
Cell = Tuple[Any, Stamp]


def merge_windows(a: List[Cell], b: List[Cell], k: int) -> List[Cell]:
    """Join of two windows: the k largest distinct stamps, sorted.

    Stamps are unique per write ((Lamport, pid) with the clock ticking on
    every write), so deduplicating by stamp is exact.
    """
    by_stamp = {cell[1]: cell for cell in a}
    for cell in b:
        by_stamp[cell[1]] = cell
    cells = sorted(by_stamp.values(), key=lambda cell: cell[1])
    return cells[-k:] if len(cells) >= k else cells


class GossipReplica(Replica):
    """Process ``p_i``'s window array (a semilattice element) and
    Lamport clock; it has no broadcast endpoint — its host pushes
    :meth:`snapshot` to a peer each round, whose ``on_deliver`` joins it."""

    def __init__(self, pid: int, streams: int, k: int) -> None:
        super().__init__(pid)
        self.k = k
        # the k initial cells need distinct stamps, below every write's,
        # or the first merge dedupes them into one cell
        self.str: List[List[Cell]] = [
            [(INITIAL_VALUE, (0, slot - k)) for slot in range(k)]
            for _ in range(streams)
        ]
        self.vtime = 0

    def invoke(self, invocation: Invocation) -> Any:
        if invocation.method == "r":
            (x,) = invocation.args
            return tuple(cell[0] for cell in self.str[x])
        if invocation.method == "w":
            x, value = invocation.args
            self.vtime += 1
            stamp = (self.vtime, self.pid)
            self.str[x] = merge_windows(self.str[x], [(value, stamp)], self.k)
            return BOTTOM
        raise ValueError(f"window array has no method {invocation.method!r}")

    def snapshot(self) -> Tuple[str, int, List[List[Cell]]]:
        """The state message of one anti-entropy push."""
        return ("state", self.vtime, [list(stream) for stream in self.str])

    def on_deliver(self, _src: int, payload: Any) -> None:
        kind, vtime, snapshot = payload
        if kind != "state":
            return
        self.vtime = max(self.vtime, vtime)
        for x, stream in enumerate(self.str):
            self.str[x] = merge_windows(stream, snapshot[x], self.k)

    def state(self) -> Tuple[Tuple[Any, ...], ...]:
        return tuple(tuple(cell[0] for cell in row) for row in self.str)

    def on_recover(self) -> None:
        """State-based: the first gossip exchange after recovery rejoins
        the full window state, no explicit resync needed."""


class GossipCCvWindowArray(ReplicatedObject):
    """Anti-entropy replication of an array of K window streams."""

    name = "CCv(W_k^K) [gossip]"
    replica_cls = GossipReplica
    broadcast_cls = None
    #: time between two rounds; in each, every live replica pushes to one peer
    gossip_interval = 1.0

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        recorder: Optional[HistoryRecorder] = None,
        streams: int = 1,
        k: int = 2,
    ) -> None:
        self.rounds = 0
        self._running = False
        super().__init__(sim, network, recorder, streams=streams, k=k)

    # ------------------------------------------------------------------
    # Gossip engine: one scheduled tick per round for every hosted
    # replica (per-replica timers would renumber the simulator's events)
    # ------------------------------------------------------------------
    def start_gossip(self, rounds: Optional[int] = None) -> None:
        """Schedule periodic anti-entropy; ``rounds=None`` keeps gossiping
        as long as other simulation activity exists (each round schedules
        the next, so callers bound it or use :meth:`stop_gossip`)."""
        self._running = True
        self._budget = rounds
        self.sim.schedule(self.gossip_interval, self._gossip_tick)

    def stop_gossip(self) -> None:
        self._running = False

    def _gossip_tick(self) -> None:
        if not self._running:
            return
        if self._budget is not None:
            if self._budget <= 0:
                self._running = False
                return
            self._budget -= 1
        self.rounds += 1
        for pid, replica in self.replicas.items():
            if self.network.is_crashed(pid):
                continue
            peer = self.sim.rng.randrange(self.n - 1)
            if peer >= pid:
                peer += 1
            self.network.send(pid, peer, replica.snapshot())
        if self._running and (self._budget is None or self._budget > 0):
            self.sim.schedule(self.gossip_interval, self._gossip_tick)
