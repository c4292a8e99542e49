"""Event-driven fault injection: the one interpreter of a fault schedule.

:class:`FaultSchedule` turns the inert :class:`FaultEvent` tuples of a
:class:`ScenarioSpec` into timed calls on a **fault target**.  No other
module in ``src/`` dispatches on ``FaultEvent.action`` (pinned by
``tests/test_layering.py``), so an action means one thing on every plane:

- ``partition``/``heal`` drive the held-message machinery (partitions
  delay, they do not lose); ``partition-oneway`` blocks only the
  directed links from the first group to the second (an asymmetric
  partition, cleared by the next heal);
- ``crash`` stops the process; ``recover`` rejoins it and starts its
  anti-entropy catch-up; ``crash-storm`` does both for a whole set of
  processes at once (correlated failure), recovering them all
  ``duration`` later;
- ``loss``/``delay-scale``/``duplicate`` move the fault dials (bursts,
  spikes and retransmission storms are pairs of these events);
- ``flap`` alternately blocks and unblocks both directions of one link
  for ``count`` cycles of ``duration`` (half down, half up), ending up;
- ``reorder`` starts a per-link delivery-inversion burst of ``duration``;
- ``repair`` runs one ring-shaped anti-entropy sweep: each live process
  resyncs from its next live neighbour — ``n - 1`` spaced sweeps
  guarantee full dissemination after a lossy phase.

**The fault-target contract** — everything a schedule calls:

- clock: ``now`` (schedule time) and ``schedule(delay, cb, *args)``;
  the tails of ``flap`` and ``crash-storm`` are more ``schedule`` calls,
  so whoever owns the target's timers owns the whole schedule;
- dials: ``set_loss_rate(rate)``, ``set_duplicate_rate(rate)``,
  ``set_delay_scale(factor)``;
- links: ``partition(*groups)``, ``heal()``, ``block_links(pairs)`` and
  ``unblock_links(pairs)`` over directed ``(src, dst)`` pairs,
  ``start_reorder(duration)``;
- processes: ``n``, ``crash(pid)``, ``recover(pid)``,
  ``is_crashed(pid)`` and, for the repair ring, one hop
  ``resync(pid, helper)``.

The simulated target is :class:`~repro.runtime.network.Network`, on the
simulator's clock.  A simulated process is three objects — network
membership, replica, scripted client — so ``install`` also takes the
``algorithm`` (told ``on_crash``/``on_recover`` right after the network,
and owner of the resync hop, ``broadcast.resync``) and the ``clients``
(paused while down).  The live target is
:class:`repro.service.LiveCluster`, on the event loop's clock scaled by
its ``time_scale``: dials and links fan out to its fault proxies under
the same names, a node's ``crash()``/``recover()`` tell its own
replica, so it is installed alone and answers ``resync`` itself.  It
reads one call differently, ``set_delay_scale`` (see there), and
refuses one, ``start_reorder`` — when the schedule is loaded.

The schedule is a pure function of the spec and the seed: replaying the
same scenario with the same seed yields the identical history, which the
determinism tests pin down.  Every event is validated up front
(:meth:`FaultEvent.validate`), so malformed specs fail at construction
with a clear message instead of deep inside :meth:`FaultSchedule.apply`.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

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
        target: Any,
        algorithm: Optional[Any] = None,
        clients: Optional[Sequence[Any]] = None,
    ) -> None:
        """Schedule every event on ``target`` at its absolute time; an
        event dated before the target's ``now`` is refused, and nothing
        is scheduled."""
        self.target, self.algorithm, self.clients = target, algorithm, clients
        now = target.now
        if self.events and self.events[0].time < now:  # sorted: the earliest
            raise ValueError(
                f"fault at t={self.events[0].time} is in the past (now={now})"
            )
        for event in self.events:
            target.schedule(event.time - now, self.apply, event)

    # ------------------------------------------------------------------
    def apply(self, event: FaultEvent) -> None:
        self.applied += 1
        target = self.target
        action = event.action
        if action == "partition":
            target.partition(*event.groups)
        elif action == "heal":
            target.heal()
        elif action == "crash":
            self._crash_one(event.pid)
        elif action == "recover":
            self._recover_one(event.pid)
        elif action == "loss":
            target.set_loss_rate(event.rate)
        elif action == "delay-scale":
            target.set_delay_scale(event.factor)
        elif action == "duplicate":
            target.set_duplicate_rate(event.rate)
        elif action == "reorder":
            target.start_reorder(event.duration)
        elif action == "partition-oneway":
            sources, destinations = event.groups
            target.block_links(
                tuple((s, d) for s in sources for d in destinations)
            )
        elif action == "flap":
            self._flap(event)
        elif action == "crash-storm":
            for pid in event.pids:
                self._crash_one(pid)
            target.schedule(event.duration, self._storm_recover, event.pids)
        elif action == "repair":
            self._repair()
        else:  # pragma: no cover - constructor validates
            raise ValueError(f"unknown fault action {action!r}")

    # ------------------------------------------------------------------
    def _crash_one(self, pid: int) -> None:
        self.target.crash(pid)
        if self.algorithm is not None:
            self.algorithm.on_crash(pid)
        if self.clients is not None:
            self.clients[pid].pause()

    def _recover_one(self, pid: int) -> None:
        self.target.recover(pid)
        if self.algorithm is not None:
            self.algorithm.on_recover(pid)
        if self.clients is not None:
            self.clients[pid].resume()

    def _storm_recover(self, pids: Tuple[int, ...]) -> None:
        """The tail of a crash-storm: every stormed process rejoins."""
        for pid in pids:
            self._recover_one(pid)

    def _flap(self, event: FaultEvent) -> None:
        """``count`` down/up cycles of ``duration`` on one bidirectional
        link, starting down now and ending up."""
        src, dst = event.pids
        pairs = ((src, dst), (dst, src))
        period = event.duration
        target = self.target
        target.block_links(pairs)
        for i in range(event.count):
            if i:
                target.schedule(i * period, target.block_links, pairs)
            target.schedule(
                i * period + period / 2, target.unblock_links, pairs
            )

    def _repair(self) -> None:
        """One anti-entropy ring pass: each live process pulls everything
        its next live neighbour has seen.  Repeated passes (spaced wider
        than the message delay) flow knowledge all the way around."""
        target = self.target
        # a broadcast-less algorithm has no hop and nothing to repair
        host = target if self.algorithm is None else self.algorithm.broadcast
        resync = getattr(host, "resync", None)
        if resync is None:
            return
        live = [p for p in range(target.n) if not target.is_crashed(p)]
        if len(live) < 2:
            return
        for i, pid in enumerate(live):
            resync(pid, helper=live[(i + 1) % len(live)])
