"""Sequentially consistent baseline over total-order broadcast.

Every operation — including reads — is funnelled through the sequencer
and applied by all replicas in the same global order; the invoking
process answers the operation only when its own message comes back
sequenced.  This yields linearizability (hence SC), but the operation
latency is a full round trip: exactly the communication-delay dependence
that Sec. 1 cites ([3], [16]) as the price of strong consistency, and
which the wait-free algorithms of Figs. 4–5 avoid.  Experiment E6 sweeps
the network delay to expose the contrast; the sequencer is also a single
point of failure, unlike the wait-free algorithms (fault-injection
tests).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..core.adt import AbstractDataType
from ..core.operations import Invocation
from ..runtime.broadcast import TotalOrderBroadcast
from ..runtime.recorder import HistoryRecorder
from ..runtime.simulator import Simulator
from ..runtime.transport import Transport
from .base import Callback, Replica, ReplicatedObject


class ScReplica(Replica):
    """Process ``p_i``'s copy of the state machine, and the operations it
    has submitted that have not come back sequenced yet."""

    def __init__(self, pid: int, adt: AbstractDataType) -> None:
        super().__init__(pid)
        self.adt = adt
        self.local = adt.initial_state()
        # operations in flight at this origin: local op id -> continuation
        self.inflight: Dict[int, Callable[[Any], None]] = {}
        self._next_op = 0

    def invoke(self, invocation: Invocation, done: Callable[[Any], None]) -> None:
        """Not wait-free: ``done(output)`` runs when the operation comes
        back sequenced, a round trip later."""
        op_id = self._next_op
        self._next_op += 1
        self.inflight[op_id] = done
        self.endpoint.broadcast((op_id, invocation.method, invocation.args))

    def on_deliver(self, origin: int, message: Any) -> None:
        op_id, method, args = message["payload"]
        invocation = Invocation(method, args)
        # every replica applies the operation in the same global order;
        # the origin also computes the output and completes the op
        output = self.adt.output(self.local, invocation)
        self.local = self.adt.transition(self.local, invocation)
        if origin == self.pid and op_id in self.inflight:
            self.inflight.pop(op_id)(output)

    def state(self) -> Any:
        return self.local

    def on_crash(self) -> None:
        """Crash-stop voids this process's in-flight operations: their
        continuations died with the process (the sequenced updates still
        apply everywhere — a committed-but-unacknowledged write)."""
        self.inflight.clear()

    def on_recover(self) -> None:
        """Total-order broadcast has no anti-entropy path: the process
        resumes with stale state."""


class ScSequencer(ReplicatedObject):
    """State-machine replication behind a sequencer (linearizable)."""

    wait_free = False
    # total-order broadcast has no anti-entropy path, and a crashed
    # sequencer takes the whole object down with it
    supports_recovery = False
    replica_cls = ScReplica
    broadcast_cls = TotalOrderBroadcast

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        recorder: Optional[HistoryRecorder] = None,
        adt: Optional[AbstractDataType] = None,
    ) -> None:
        if adt is None:
            raise ValueError("ScSequencer requires an ADT")
        self.adt = adt
        self.name = f"SC({adt.name}) [sequencer]"
        super().__init__(sim, network, recorder, adt=adt)

    def invoke(
        self, pid: int, invocation: Invocation, callback: Optional[Callback] = None
    ) -> Optional[Any]:
        start = self.sim.now
        self.replicas[pid].invoke(
            invocation,
            lambda output: self._complete(pid, invocation, output, start, callback),
        )
        return None  # completes asynchronously after the round trip
