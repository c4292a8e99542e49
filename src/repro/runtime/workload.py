"""Workload drivers: closed-loop and open-loop clients.

A closed-loop :class:`Client` binds to one process of a replicated object
and issues invocations one at a time: the next operation is scheduled a
think-time after the previous one *completes*.  This models the paper's
sequential processes and exposes the latency difference between wait-free
algorithms (operations complete immediately; throughput is independent of
network delay) and the sequencer-based SC baseline (operations block for
a round trip) — experiment E6.

An :class:`OpenLoopClient` instead issues invocations at externally
scheduled arrival times (e.g. a Poisson process), whether or not earlier
operations have completed.  Open-loop load does not slow down when the
system does, which is what makes overload and blocked-operation scenarios
observable: for a non-wait-free algorithm the gap between ``issued`` and
``completed`` grows.

Both clients support :meth:`pause`/:meth:`resume`, which the scenario
fault schedule uses to silence the client of a crashed process and wake
it again on recovery.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Iterator

from ..core.operations import Invocation
from .simulator import Simulator


class Client:
    """Drives one process of a replicated object (closed loop).

    ``script`` is an iterable of :class:`Invocation`; ``think`` samples the
    think time between an operation's completion and the next invocation.
    """

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        invoke: Callable[[int, Invocation, Callable[[Any], None]], None],
        script: Iterable[Invocation],
        think: Callable[[random.Random], float],
    ) -> None:
        self.sim = sim
        self.pid = pid
        self.invoke = invoke
        self.script: Iterator[Invocation] = iter(script)
        self.think = think
        self.issued = 0
        self.completed = 0
        self.active = False
        self._exhausted = False
        self._pending = False  # a _next callback is already scheduled
        self._epoch = 0  # bumped on pause: orphans in-flight completions

    def start(self) -> None:
        self.active = True
        self._schedule_next(0.0)

    # ------------------------------------------------------------------
    # Fault-schedule interface
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Freeze the client (its process crashed): no further issues."""
        self.active = False
        self._epoch += 1

    def resume(self) -> None:
        """Wake a paused client (its process recovered).

        An operation that was in flight across the crash is considered
        lost — even if its completion straggles in afterwards it is
        ignored (the epoch check in ``_completed``), so exactly one
        issue chain is ever live."""
        if self._exhausted:
            return
        self.active = True
        self._schedule_next(0.0)

    # ------------------------------------------------------------------
    def _schedule_next(self, delay: float) -> None:
        if self._pending:
            return
        self._pending = True
        self.sim.schedule(delay, self._next)

    def _next(self) -> None:
        self._pending = False
        if not self.active:
            return
        try:
            invocation = next(self.script)
        except StopIteration:
            self.active = False
            self._exhausted = True
            return
        self.issued += 1
        epoch = self._epoch
        self.invoke(
            self.pid,
            invocation,
            lambda output: self._completed(output, epoch),
        )

    def _completed(self, _output: Any, epoch: int) -> None:
        if epoch != self._epoch:
            return  # the op crossed a crash; its chain was replaced
        self.completed += 1
        if self.active:
            self._schedule_next(self.think(self.sim.rng))


class OpenLoopClient:
    """Drives one process at externally paced arrival times (open loop).

    ``interarrival`` samples the gap to the next arrival (e.g.
    ``lambda rng: rng.expovariate(rate)`` for Poisson arrivals); the next
    invocation is issued at that time whether or not the previous one has
    completed, so ``issued - completed`` measures blocked operations."""

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        invoke: Callable[[int, Invocation, Callable[[Any], None]], None],
        script: Iterable[Invocation],
        interarrival: Callable[[random.Random], float],
    ) -> None:
        self.sim = sim
        self.pid = pid
        self.invoke = invoke
        self.script: Iterator[Invocation] = iter(script)
        self.interarrival = interarrival
        self.issued = 0
        self.completed = 0
        self.active = False
        self._exhausted = False
        self._pending = False

    def start(self) -> None:
        self.active = True
        self._schedule_next(self.interarrival(self.sim.rng))

    def pause(self) -> None:
        self.active = False

    def resume(self) -> None:
        if self._exhausted:
            return
        self.active = True
        self._schedule_next(self.interarrival(self.sim.rng))

    # ------------------------------------------------------------------
    def _schedule_next(self, delay: float) -> None:
        if self._pending:
            return
        self._pending = True
        self.sim.schedule(delay, self._tick)

    def _tick(self) -> None:
        self._pending = False
        if not self.active:
            return
        try:
            invocation = next(self.script)
        except StopIteration:
            self.active = False
            self._exhausted = True
            return
        self.issued += 1
        self.invoke(self.pid, invocation, self._completed)
        self._schedule_next(self.interarrival(self.sim.rng))

    def _completed(self, _output: Any) -> None:
        self.completed += 1
