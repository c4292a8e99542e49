"""Replicated shared objects: the common invocation machinery.

Every algorithm exposes ``invoke(pid, invocation, callback)``; wait-free
algorithms (Figs. 4–5 and the PRAM/LWW baselines) complete the operation
synchronously — the callback runs before ``invoke`` returns, and the
recorded latency is 0 simulated time, which *is* the paper's wait-freedom
claim (operation duration independent of communication delays).  The
sequencer-based SC baseline completes operations asynchronously after a
round trip, so its recorded latency scales with the network delay
(experiment E6).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional

from ..core.operations import Invocation
from ..runtime.broadcast import ReliableBroadcast
from ..runtime.network import Network
from ..runtime.recorder import HistoryRecorder
from ..runtime.simulator import Simulator

Callback = Callable[[Any], None]


class ReplicatedObject(ABC):
    """One replicated object spanning all ``n`` processes of a run."""

    #: Algorithm identifier used in benchmark tables.
    name: str = "replicated-object"
    #: True when operations return without waiting for other processes.
    wait_free: bool = True
    #: True when a crash-recovered process can rejoin with correct state
    #: (op-based algorithms via broadcast anti-entropy, state-based ones
    #: via their next exchange); the SC sequencer is the counterexample.
    supports_recovery: bool = True

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        recorder: Optional[HistoryRecorder] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.n = network.n
        self.recorder = recorder

    @abstractmethod
    def invoke(
        self, pid: int, invocation: Invocation, callback: Optional[Callback] = None
    ) -> Optional[Any]:
        """Invoke ``invocation`` on process ``pid``'s replica.

        Wait-free implementations return the output (and invoke the
        callback synchronously); blocking implementations return ``None``
        and invoke the callback upon completion.
        """

    # ------------------------------------------------------------------
    def on_crash(self, pid: int) -> None:
        """Crash hook, called when ``network.crash(pid)`` is scheduled.

        Crash-stop kills the process's continuations: algorithms with
        asynchronous completions (the sequencer) drop ``pid``'s in-flight
        operations here, so a reply straggling in after a recovery cannot
        complete — and record — an operation whose caller died.  Wait-free
        algorithms have nothing in flight; the default is a no-op."""

    # ------------------------------------------------------------------
    def on_recover(self, pid: int) -> None:
        """Crash-recovery hook, called after ``network.recover(pid)``.

        The default asks the broadcast layer — when it supports it — to
        anti-entropy the messages ``pid`` missed from a live peer; the
        replica then replays the missed deliveries through its normal
        receive path.  State-based algorithms (gossip) need nothing: the
        next periodic exchange carries the full state.  Algorithms that
        cannot rejoin (``supports_recovery = False``) leave this a no-op
        and simply resume with stale state."""
        service = getattr(self, "broadcast", None)
        if isinstance(service, ReliableBroadcast):
            service.start_resync(pid)

    # ------------------------------------------------------------------
    def _complete(
        self,
        pid: int,
        invocation: Invocation,
        output: Any,
        start: float,
        callback: Optional[Callback],
    ) -> Any:
        if self.recorder is not None:
            self.recorder.record(pid, invocation, output, start, self.sim.now)
        if callback is not None:
            callback(output)
        return output
