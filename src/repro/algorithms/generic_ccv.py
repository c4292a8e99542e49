"""Generic causally convergent replication for *any* ADT.

Generalisation of Fig. 5: every update is timestamped with a Lamport
clock; each replica maintains the log of all updates it has received,
sorted by ``(timestamp, pid, sender sequence)`` — a total order extending
causality — and evaluates queries by replaying the log on the transducer.
Two replicas with the same update set therefore expose the same state
(strong convergence), and the order is causal, giving CCv.

Replaying the log on every read is the price of genericity; the
checkpointed fold makes reads between updates O(1), and a real system
would use an ADT-specific pruning such as Fig. 5's window insertion
(benchmarked against this generic construction in
``bench_fig5_ccv_algorithm``).

**Last-writer-wins** (the eventual-consistency baseline, Vogels [25]) is
the same construction with the *stamp* swapped: updates are timestamped
with the writer's *physical* clock (the run's time plus a fixed
per-process skew) and travel over a plain reliable broadcast.  Replicas
with the same update set converge (EC holds at quiescence) but nothing
preserves causality:

- deliveries are unordered, so a process can hold an *answer* without its
  *question* (a WCC violation, cf. the forum scenario of Sec. 3.2), and
- skewed clocks can order a causally-later write *before* the write it
  depends on in the converged state.

Together with the CCv algorithm this realises the paper's placement of
causal convergence strictly between EC and SC (Fig. 1); experiment E8/E9
measure the anomaly rates.
"""

from __future__ import annotations

import bisect
from typing import Any, List, Optional, Tuple

from ..core.adt import AbstractDataType
from ..core.operations import Invocation
from ..runtime.broadcast import CausalBroadcast, ReliableBroadcast
from ..runtime.recorder import HistoryRecorder
from ..runtime.simulator import Simulator
from ..runtime.transport import Transport
from .base import Replica, ReplicatedObject

LogKey = Tuple[float, int, int]  # (timestamp, pid, sender sequence)


class GenericCCvReplica(Replica):
    """Process ``p_i``'s timestamp-sorted update log and its fold."""

    #: checkpoint stride of the incremental replay (log entries)
    _CKPT = 32

    def __init__(self, pid: int, adt: AbstractDataType, clock: Simulator) -> None:
        super().__init__(pid)
        self.adt = adt
        self.clock = clock
        self.log: List[Tuple[LogKey, Invocation]] = []
        # vtime_i: the largest timestamp delivered here (the Lamport clock)
        self.vtime: float = 0
        self._seq = 0
        # incremental replay (ADT transitions are pure): _cache is the
        # fold of log[:_applied], and _ckpts[m] the fold of the first
        # m*_CKPT entries.  A remote update can land *inside* the applied
        # prefix (routinely so under physical timestamps: it was stamped
        # before the deliveries already folded), so instead of replaying
        # from scratch the fold rewinds to the last checkpoint at or
        # below the insertion point — the replay per read is bounded by
        # the checkpoint stride plus the reorder window, not by the log
        # length
        self._cache = adt.initial_state()
        self._applied = 0
        self._ckpts: List[Any] = [adt.initial_state()]

    def _stamp(self) -> float:
        """The next update's timestamp: the Lamport clock, ticked."""
        return self.vtime + 1

    def invoke(self, invocation: Invocation) -> Any:
        output = self.adt.output(self.state(), invocation)
        if self.adt.is_update(invocation):
            key = (self._stamp(), self.pid, self._seq)
            self._seq += 1
            self.endpoint.broadcast((key, invocation.method, invocation.args))
        return output

    def on_deliver(
        self, _origin: int, payload: Tuple[LogKey, str, Tuple[Any, ...]]
    ) -> None:
        key, method, args = payload
        self.vtime = max(self.vtime, key[0])
        log = self.log
        # keys are unique (pid, sender sequence), so the invocation is
        # never compared
        entry = (key, Invocation(method, args))
        i = bisect.bisect_right(log, entry)
        log.insert(i, entry)
        # invariant: len(_ckpts) == _applied//_CKPT + 1 (checkpoints
        # never extend past the applied prefix), so an insertion at
        # i >= _applied invalidates nothing
        if i < self._applied:
            # the entry lands inside the applied prefix: rewind the
            # fold to the last checkpoint not past the insertion
            m = i // self._CKPT
            del self._ckpts[m + 1 :]
            self._applied = m * self._CKPT
            self._cache = self._ckpts[m]

    def state(self) -> Any:
        log = self.log
        applied = self._applied
        state = self._cache
        if applied < len(log):
            stride = self._CKPT
            ckpts = self._ckpts
            transition = self.adt.transition
            for j in range(applied, len(log)):
                state = transition(state, log[j][1])
                nxt = j + 1
                if nxt % stride == 0 and len(ckpts) == nxt // stride:
                    ckpts.append(state)
            self._cache = state
            self._applied = len(log)
        return state


class GenericCCv(ReplicatedObject):
    """Timestamp-ordered state replication of an arbitrary ADT."""

    label = "CCv({}) [generic]"
    replica_cls = GenericCCvReplica
    broadcast_cls = CausalBroadcast

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        recorder: Optional[HistoryRecorder] = None,
        adt: Optional[AbstractDataType] = None,
        **replica_config: Any,
    ) -> None:
        if adt is None:
            raise ValueError(f"{type(self).__name__} requires an ADT")
        self.adt = adt
        self.name = self.label.format(adt.name)
        super().__init__(
            sim, network, recorder, adt=adt, clock=sim, **replica_config
        )


class LwwReplica(GenericCCvReplica):
    """The physical stamp: ``vtime`` still tracks the largest timestamp
    seen but no longer feeds the next one — which is what loses
    causality."""

    def __init__(
        self, pid: int, adt: AbstractDataType, clock: Simulator,
        clock_skew: float = 0.0,
    ) -> None:
        super().__init__(pid, adt, clock)
        self.skew = clock.rng.uniform(-clock_skew, clock_skew)

    def _stamp(self) -> float:
        return self.clock.now + self.skew


class LwwReplication(GenericCCv):
    """Physically-timestamped log replication (eventually consistent)."""

    label = "EC({}) [LWW]"
    replica_cls = LwwReplica
    broadcast_cls = ReliableBroadcast
