"""Replicated shared objects: what a replica is, and the host that runs them.

Figs. 4 and 5 are *code for process pᵢ*, and so is every algorithm here:
a :class:`Replica` is the state and code of one process — its ``pid``,
its broadcast endpoint, its own rows and clock, and nothing of anyone
else's.  A :class:`ReplicatedObject` is the run-scoped *host* of the
replicas whose processes its transport hosts (``Transport.hosted``; the
counterpart of :class:`~repro.runtime.broadcast.BroadcastService` one
layer up): all n in a simulator run, exactly one on a live node.  An
algorithm is a replica class plus a host subclass that declares it, the
broadcast service it runs over, and its constructor parameters.

Every host exposes ``invoke(pid, invocation, callback)``; wait-free
algorithms (Figs. 4–5 and the PRAM/LWW baselines) complete the operation
synchronously — the callback runs before ``invoke`` returns, and the
recorded latency is 0 simulated time, which *is* the paper's wait-freedom
claim (operation duration independent of communication delays).  The
sequencer-based SC baseline completes operations asynchronously after a
round trip, so its recorded latency scales with the network delay
(experiment E6).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Type

from ..core.operations import Invocation
from ..runtime.broadcast import BroadcastService
from ..runtime.recorder import HistoryRecorder
from ..runtime.simulator import Simulator
from ..runtime.transport import Transport

Callback = Callable[[Any], None]


class Replica:
    """The state and code of one process ``p_i``.

    A broadcast payload is a *plain wire value* (numbers, strings,
    tuples, lists, dicts): it crosses a socket on the live plane, so an
    update travels as ``(method, args)`` and the receiver rebuilds the
    :class:`Invocation`."""

    #: this process's end of the host's broadcast service, set by the
    #: host (``None`` for an algorithm that runs without one)
    endpoint: Any = None

    def __init__(self, pid: int) -> None:
        self.pid = pid

    def invoke(self, invocation: Invocation) -> Any:
        """Run ``invocation`` against the local state and return its
        output; an update is also handed to ``endpoint.broadcast``."""
        raise NotImplementedError

    def on_deliver(self, origin: int, payload: Any) -> None:
        """A payload broadcast by ``origin`` is delivered here (this
        process's own broadcasts included, synchronously)."""
        raise NotImplementedError

    def state(self) -> Any:
        """A comparable snapshot of the local state: the ADT state — for
        an array of window streams, the tuple of its windows."""
        raise NotImplementedError

    def on_crash(self) -> None:
        """Crash-stop kills the process's continuations: a replica with
        asynchronous completions (the sequencer's) drops its in-flight
        operations here, so a reply straggling in after a recovery cannot
        complete — and record — an operation whose caller died.  A
        wait-free replica has nothing in flight."""

    def on_recover(self) -> None:
        """Rejoin after a crash: the endpoint's supervised anti-entropy
        fetches what this process missed from a live peer and replays it
        through :meth:`on_deliver`.  State-based replicas (gossip) need
        nothing — the next exchange carries the full state — and
        replicas that cannot rejoin (``supports_recovery = False``)
        simply resume with stale state."""
        self.endpoint.start_resync()


class ReplicatedObject:
    """One replicated object: the host of its hosted processes' replicas.

    Owns the only copy of routing (``invoke``/``on_crash``/``on_recover``
    /``state_of`` by pid), of timing and recording (:meth:`_complete`)
    and of any cadence that must stay one scheduled event per round (the
    gossip tick); everything else is the replica's."""

    #: Algorithm identifier used in benchmark tables.
    name: str = "replicated-object"
    #: True when operations return without waiting for other processes.
    wait_free: bool = True
    #: True when a crash-recovered process can rejoin with correct state
    #: (op-based algorithms via broadcast anti-entropy, state-based ones
    #: via their next exchange); the SC sequencer is the counterexample.
    supports_recovery: bool = True
    #: the code for p_i
    replica_cls: Type[Replica]
    #: the broadcast service the replicas run over (``None``: they are
    #: the transport's message sinks themselves — state-based gossip)
    broadcast_cls: Optional[Type[BroadcastService]]

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        recorder: Optional[HistoryRecorder],
        **replica_config: Any,
    ) -> None:
        self.sim = sim
        self.network = network
        self.n = network.n
        self.recorder = recorder
        self.broadcast: Optional[BroadcastService] = None
        if self.broadcast_cls is not None:
            self.broadcast = self.broadcast_cls(network)
        #: hosted pid -> replica, in pid order
        self.replicas: Dict[int, Replica] = {}
        for pid in network.hosted:
            replica = self.replicas[pid] = self.replica_cls(pid, **replica_config)
            if self.broadcast is None:
                network.attach(pid, replica.on_deliver)
            else:
                replica.endpoint = self.broadcast.endpoint(pid, replica.on_deliver)

    def invoke(
        self, pid: int, invocation: Invocation, callback: Optional[Callback] = None
    ) -> Optional[Any]:
        """Invoke ``invocation`` on process ``pid``'s replica.

        Wait-free implementations return the output (and invoke the
        callback synchronously); blocking implementations return ``None``
        and invoke the callback upon completion.
        """
        start = self.sim.now
        output = self.replicas[pid].invoke(invocation)
        return self._complete(pid, invocation, output, start, callback)

    def on_crash(self, pid: int) -> None:
        """Crash hook, called when ``network.crash(pid)`` is scheduled."""
        self.replicas[pid].on_crash()

    def on_recover(self, pid: int) -> None:
        """Crash-recovery hook, called after ``network.recover(pid)``."""
        self.replicas[pid].on_recover()

    # -- observability --------------------------------------------------
    def state_of(self, pid: int) -> Any:
        """The one state accessor: ``pid``'s :meth:`Replica.state`."""
        return self.replicas[pid].state()

    def window(self, pid: int, x: int) -> Any:
        """The current window of stream ``x`` at ``pid``."""
        return self.state_of(pid)[x]

    def converged(self) -> bool:
        """True when all live hosted replicas expose identical state."""
        crashed = self.network.is_crashed
        states = [self.state_of(pid) for pid in self.replicas if not crashed(pid)]
        return all(state == states[0] for state in states[1:])

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
