"""Event-driven fault injection: applying a fault schedule to a run.

:class:`FaultSchedule` turns the inert :class:`FaultEvent` tuples of a
:class:`ScenarioSpec` into simulator callbacks against the live
:class:`Network`, the algorithm instance and the clients:

- ``partition``/``heal`` drive the network's held-message machinery
  (partitions delay, they do not lose); ``partition-oneway`` blocks only
  the directed links from the first group to the second (an asymmetric
  partition, cleared by the next heal);
- ``crash`` stops the process (network-level crash-stop) and pauses its
  client; ``recover`` rejoins it, fires the algorithm's
  :meth:`~repro.algorithms.base.ReplicatedObject.on_recover` anti-entropy
  hook, and resumes the client; ``crash-storm`` does both for a whole
  set of processes at once (correlated failure), recovering them all
  ``duration`` later;
- ``loss``/``delay-scale``/``duplicate`` move the network's fault dials
  (bursts, spikes and retransmission storms are pairs of these events);
- ``flap`` alternately blocks and unblocks both directions of one link
  for ``count`` cycles of ``duration`` (half down, half up), ending up;
- ``reorder`` starts a per-link delivery-inversion burst of ``duration``;
- ``repair`` runs one ring-shaped anti-entropy sweep over the live
  processes for broadcast layers that support ``resync`` — ``n - 1``
  spaced sweeps guarantee full dissemination after a lossy phase.

The schedule is a pure function of the spec and the seed: replaying the
same scenario with the same seed yields the identical history, which the
determinism tests pin down.  Every event is validated up front
(:meth:`FaultEvent.validate`), so malformed specs fail at construction
with a clear message instead of deep inside :meth:`FaultSchedule.apply`.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from ..runtime.network import Network
from ..runtime.simulator import Simulator
from .spec import FaultEvent


class FaultSchedule:
    """Schedules and applies a sequence of :class:`FaultEvent`s."""

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        for event in events:
            event.validate()
        # stable sort: same-time events keep their listed order
        self.events = sorted(events, key=lambda e: e.time)
        self.applied = 0

    def install(
        self,
        sim: Simulator,
        network: Network,
        algorithm: Optional[Any] = None,
        clients: Optional[Sequence[Any]] = None,
    ) -> None:
        """Schedule every event at its absolute time (relative to now)."""
        for event in self.events:
            if event.time < sim.now:
                raise ValueError(
                    f"fault at t={event.time} is in the past (now={sim.now})"
                )
            sim.schedule(
                event.time - sim.now,
                lambda e=event: self.apply(e, network, algorithm, clients),
            )

    # ------------------------------------------------------------------
    def apply(
        self,
        event: FaultEvent,
        network: Network,
        algorithm: Optional[Any] = None,
        clients: Optional[Sequence[Any]] = None,
    ) -> None:
        self.applied += 1
        action = event.action
        if action == "partition":
            network.partition(*event.groups)
        elif action == "heal":
            network.heal()
        elif action == "crash":
            self._crash_one(network, algorithm, clients, event.pid)
        elif action == "recover":
            self._recover_one(network, algorithm, clients, event.pid)
        elif action == "loss":
            network.set_loss_rate(event.rate)
        elif action == "delay-scale":
            network.set_delay_scale(event.factor)
        elif action == "duplicate":
            network.set_duplicate_rate(event.rate)
        elif action == "reorder":
            network.start_reorder(event.duration)
        elif action == "partition-oneway":
            sources, destinations = event.groups
            network.block_links(
                tuple((s, d) for s in sources for d in destinations)
            )
        elif action == "flap":
            self._flap(network, event)
        elif action == "crash-storm":
            for pid in event.pids:
                self._crash_one(network, algorithm, clients, pid)
            network.schedule(
                event.duration,
                self._storm_recover,
                network,
                algorithm,
                clients,
                event.pids,
            )
        elif action == "repair":
            self._repair(network, algorithm)
        else:  # pragma: no cover - constructor validates
            raise ValueError(f"unknown fault action {action!r}")

    # ------------------------------------------------------------------
    @staticmethod
    def _crash_one(
        network: Network,
        algorithm: Optional[Any],
        clients: Optional[Sequence[Any]],
        pid: int,
    ) -> None:
        network.crash(pid)
        if algorithm is not None:
            algorithm.on_crash(pid)
        if clients is not None:
            clients[pid].pause()

    @staticmethod
    def _recover_one(
        network: Network,
        algorithm: Optional[Any],
        clients: Optional[Sequence[Any]],
        pid: int,
    ) -> None:
        network.recover(pid)
        if algorithm is not None:
            algorithm.on_recover(pid)
        if clients is not None:
            clients[pid].resume()

    def _storm_recover(
        self,
        network: Network,
        algorithm: Optional[Any],
        clients: Optional[Sequence[Any]],
        pids: Tuple[int, ...],
    ) -> None:
        """The tail of a crash-storm: every stormed process rejoins."""
        for pid in pids:
            self._recover_one(network, algorithm, clients, pid)

    @staticmethod
    def _flap(network: Network, event: FaultEvent) -> None:
        """``count`` down/up cycles of ``duration`` on one bidirectional
        link, starting down now and ending up."""
        src, dst = event.pids
        pairs = ((src, dst), (dst, src))
        period = event.duration
        sim = network
        network.block_links(pairs)
        for i in range(event.count):
            if i:
                sim.schedule(i * period, network.block_links, pairs)
            sim.schedule(i * period + period / 2, network.unblock_links, pairs)

    @staticmethod
    def _repair(network: Network, algorithm: Optional[Any]) -> None:
        """One anti-entropy ring pass: each live process pulls everything
        its next live neighbour has seen.  Repeated passes (spaced wider
        than the message delay) flow knowledge all the way around."""
        service = getattr(algorithm, "broadcast", None)
        resync = getattr(service, "resync", None)
        if resync is None:
            return
        live = [p for p in range(network.n) if not network.is_crashed(p)]
        if len(live) < 2:
            return
        for i, pid in enumerate(live):
            resync(pid, helper=live[(i + 1) % len(live)])
