"""Generic causally consistent replication for *any* ADT.

The "beyond memory" pay-off of the paper: because causal consistency is
defined against a sequential specification (Def. 9), the construction of
Fig. 4 generalises verbatim — causally broadcast every update and apply
updates in delivery order on a local copy of the transducer state; answer
queries from the local state.

Each process's local apply sequence is then a linearisation of a causal
order (deliveries respect causal broadcast), and every query's value is
explained by the prefix applied locally — the proof of Prop. 6 goes
through unchanged for an arbitrary ADT.  The model-checking tests confirm
CC on queues, counters, sets and edit sequences.

For operations that are update *and* query (e.g. ``pop``), the output is
evaluated on the local state at invocation (its causal past) and the side
effect is propagated; this loose coupling is exactly the behaviour the
paper discusses around Fig. 3f.

**PRAM / pipelined consistency** (Lipton & Sandberg [16]) is the same
construction over a *FIFO* broadcast: updates are applied in per-sender
order only, so causality across processes is not preserved — the classic
"answer before question" anomaly becomes observable (a WCC violation
witness that the causal algorithms never produce; experiment E9 measures
the rates).  :class:`PramReplication` is that one declaration.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..core.adt import AbstractDataType
from ..core.operations import Invocation
from ..runtime.broadcast import CausalBroadcast, FifoBroadcast
from ..runtime.recorder import HistoryRecorder
from ..runtime.simulator import Simulator
from ..runtime.transport import Transport
from .base import Replica, ReplicatedObject


class GenericCausalReplica(Replica):
    """Process ``p_i``'s copy of the transducer state, updated in
    delivery order."""

    def __init__(self, pid: int, adt: AbstractDataType) -> None:
        super().__init__(pid)
        self.adt = adt
        self.local = adt.initial_state()

    def invoke(self, invocation: Invocation) -> Any:
        # evaluate lambda on the state of the causal past, before the
        # (synchronous, local-first) delivery applies delta
        output = self.adt.output(self.local, invocation)
        if self.adt.is_update(invocation):
            self.endpoint.broadcast((invocation.method, invocation.args))
        return output

    def on_deliver(self, _origin: int, payload: Tuple[str, Tuple[Any, ...]]) -> None:
        self.local = self.adt.transition(self.local, Invocation(*payload))

    def state(self) -> Any:
        return self.local


class GenericCausal(ReplicatedObject):
    """Op-based causal replication of an arbitrary ADT."""

    label = "CC({}) [generic]"
    replica_cls = GenericCausalReplica
    broadcast_cls = CausalBroadcast

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        recorder: Optional[HistoryRecorder] = None,
        adt: Optional[AbstractDataType] = None,
    ) -> None:
        if adt is None:
            raise ValueError(f"{type(self).__name__} requires an ADT")
        self.adt = adt
        self.name = self.label.format(adt.name)
        super().__init__(sim, network, recorder, adt=adt)


class PramReplication(GenericCausal):
    """Op-based replication over FIFO broadcast (pipelined consistency)."""

    label = "PC({}) [PRAM]"
    broadcast_cls = FifoBroadcast
