"""Discrete-event simulator — the asynchronous system substrate (Sec. 6.1).

The paper's system model is a wait-free asynchronous message-passing
system: ``n`` sequential processes, no bound on relative speeds or message
delays, crash-stop failures.  We reproduce it as a deterministic
discrete-event simulation: every run is a pure function of its seed, so
model-checking tests can replay interesting schedules exactly.

The simulator is a plain event heap; asynchrony comes from the random
delays the :class:`~repro.runtime.network.Network` draws when scheduling
deliveries, and from interleaving the clients' think times.

The heap holds bare ``(time, seq)`` tuples — no per-event object, no
generated ``__lt__`` — with the callback (and its arguments) kept in a
side table keyed by ``seq``.  This keeps scheduling and the run loop
allocation-free on the hot path and makes :attr:`pending` an O(1)
table-length read instead of a heap scan.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Dict, List, Optional, Tuple


class Simulator:
    """A seeded discrete-event scheduler."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.now: float = 0.0
        self._heap: List[Tuple[float, int]] = []
        self._events: Dict[int, Tuple[Callable[..., None], Tuple[Any, ...]]] = {}
        self._next_seq = 0
        self.events_executed = 0
        #: latest arrival time of a message copy the network elided or
        #: folded instead of scheduling (its delivery could only be a
        #: no-op): a drained :meth:`run` advances the clock to it, as if
        #: that delivery had been the last event to run
        self.elided_until: float = 0.0

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> int:
        """Schedule ``callback(*args)`` to run ``delay`` time units from
        now; returns the event's sequence number.

        Ties are broken by insertion order, keeping runs deterministic.
        Passing the arguments here (instead of closing over them) keeps
        hot paths like message delivery free of per-event closure
        allocation.

        NOTE: ``Network._fan_out`` open-codes this body (minus the
        validity check) for the per-message fast path — the one place
        outside this class that touches the heap, and where sequence
        numbers are drawn for copies held back (see :meth:`restore`);
        any change to the event representation must be mirrored there.
        """
        if delay < 0:
            raise ValueError("cannot schedule in the past")
        seq = self._next_seq
        self._next_seq = seq + 1
        self._events[seq] = (callback, args)
        heapq.heappush(self._heap, (self.now + delay, seq))
        return seq

    def restore(
        self, when: float, seq: int, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at absolute time ``when`` under
        ``seq``, a sequence number already drawn and never scheduled.

        For an event that was given its place in the order when it was
        created but held back from the heap: restored, it pops exactly
        where it would have popped had it been scheduled then, ties
        included.  ``Network`` restores a folded message copy this way
        when the copy it was folded into does not make its id seen."""
        if when < self.now:
            raise ValueError("cannot schedule in the past")
        if seq >= self._next_seq or seq in self._events:
            raise ValueError(f"sequence number {seq} was not held back")
        self._events[seq] = (callback, args)
        heapq.heappush(self._heap, (when, seq))

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> None:
        """Drain the event heap (optionally stopping at time ``until``).

        The clock ends where it would have, had every elided copy (see
        :attr:`elided_until`) been scheduled: at ``until`` when one is
        given, else at the later of the last event and the last elided
        arrival."""
        heap = self._heap
        events = self._events
        pop = heapq.heappop
        executed = self.events_executed
        budget = max_events
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                entry_time, seq = pop(heap)
                entry = events.pop(seq)
                if executed >= budget:
                    # undo the pop so a later run() call still sees it
                    events[seq] = entry
                    heapq.heappush(heap, (entry_time, seq))
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events"
                    )
                self.now = entry_time
                executed += 1
                callback, args = entry
                callback(*args)
        finally:
            # keep the public counter truthful even when a callback (or
            # the budget guard) raises mid-run
            self.events_executed = executed
        if until is None:
            # the loop only ends here once the heap is drained
            if self.elided_until > self.now:
                self.now = self.elided_until
        elif self.now < until:
            self.now = until

    @property
    def pending(self) -> int:
        """Scheduled events not yet executed; a copy the network elided
        or folded was never scheduled and is not one."""
        return len(self._events)
