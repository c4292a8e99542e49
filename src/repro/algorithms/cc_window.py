"""Fig. 4 — causally consistent array of K window streams of size k.

Direct transcription of the paper's algorithm: each process keeps a local
copy ``str_i`` of the K windows; ``read(x)`` returns the local window;
``write(x, v)`` causally broadcasts ``(x, v)``; on delivery the receiver
shifts the window and appends ``v``.  Operations never wait (Prop. 6:
every admitted history is causally consistent; model-checked in
``tests/test_algorithms.py`` via the exact CC checker).
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


class CCWindowReplica(Replica):
    """The algorithm of Fig. 4: code for process ``p_i``."""

    def __init__(self, pid: int, streams: int, k: int) -> None:
        super().__init__(pid)
        self.k = k
        # str_i in the paper: this process's copy of the K windows
        self.str: List[List[Any]] = [[INITIAL_VALUE] * k for _ in range(streams)]

    def invoke(self, invocation: Invocation) -> Any:
        if invocation.method == "r":
            (x,) = invocation.args
            return tuple(self.str[x])
        if invocation.method == "w":
            x, value = invocation.args
            # the local delivery of the causal broadcast applies the write
            # synchronously (Sec. 6.1), so the operation is complete here
            self.endpoint.broadcast((x, value))
            return BOTTOM
        raise ValueError(f"window array has no method {invocation.method!r}")

    def on_deliver(self, _origin: int, payload: Tuple[int, Any]) -> None:
        x, value = payload
        row = self.str[x]
        # lines 10-13 of Fig. 4: shift left, append at the end
        for y in range(self.k - 1):
            row[y] = row[y + 1]
        row[self.k - 1] = value

    def state(self) -> Tuple[Tuple[Any, ...], ...]:
        return tuple(tuple(row) for row in self.str)


class CCWindowArray(ReplicatedObject):
    """Fig. 4 hosted: one :class:`CCWindowReplica` per hosted process."""

    name = "CC(W_k^K) [Fig.4]"
    replica_cls = CCWindowReplica
    broadcast_cls = CausalBroadcast

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        recorder: Optional[HistoryRecorder] = None,
        streams: int = 1,
        k: int = 2,
    ) -> None:
        super().__init__(sim, network, recorder, streams=streams, k=k)
