"""Seeded random fault-schedule generation for the chaos driver.

:func:`random_fault_events` draws a small schedule over the *full* fault
vocabulary — two-sided and one-way partitions, single crashes, crash
storms, link flapping, loss and duplicate dials, reorder bursts and
delay spikes — from one :class:`random.Random`, so a (seed, trial) pair
reproduces the identical schedule forever.

Every generated schedule is followed by a deterministic *cleanup suffix*
(:func:`cleanup_events`): dials reset, partitions heal, crashed
processes recover, repair sweeps follow a lossy phase — computed from
the events' effective end times so that a flap's scheduled cycles or a
storm's self-recovery can never land *after* the heal and undo it.  The suffix is what makes convergence a
fair check: the paper's convergence criteria are defined for eventually
well-behaved networks, so every chaos run must eventually be one.

ddmin minimisation re-derives the suffix per candidate subset: the
injected events shrink, the cleanup follows.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ..scenarios.spec import FaultEvent, ScenarioSpec, WorkloadSpec

F = FaultEvent

#: dial-reset / heal margin after the last effective event end
CLEANUP_MARGIN = 2.0
#: spacing between the repair sweeps of a lossy-phase cleanup
REPAIR_SPACING = 3.0


def _t(rng: random.Random, lo: float, hi: float) -> float:
    """A millisecond-rounded draw: keeps specs short and JSON-stable."""
    return round(rng.uniform(lo, hi), 3)


def _split(rng: random.Random, n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    pids = list(range(n))
    rng.shuffle(pids)
    cut = rng.randint(1, n - 1)
    return tuple(sorted(pids[:cut])), tuple(sorted(pids[cut:]))


def random_fault_events(rng: random.Random, n: int) -> List[FaultEvent]:
    """Draw 1–4 random fault events (plus their natural companions) over
    ``[0.5, 10]`` for an ``n``-process run."""
    events: List[FaultEvent] = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(10)
        at = _t(rng, 0.5, 10.0)
        if kind == 0:
            a, b = _split(rng, n)
            events.append(F.partition(at, a, b))
            events.append(F.heal(_t(rng, at + 1.0, at + 4.0)))
        elif kind == 1:
            a, b = _split(rng, n)
            events.append(F.partition_oneway(at, a, b))
            events.append(F.heal(_t(rng, at + 1.0, at + 4.0)))
        elif kind == 2:
            pid = rng.randrange(n)
            events.append(F.crash(at, pid))
            events.append(F.recover(_t(rng, at + 1.0, at + 4.0), pid))
        elif kind == 3:
            size = rng.randint(2, max(2, n - 1))
            pids = tuple(sorted(rng.sample(range(n), size)))
            events.append(
                F.crash_storm(at, pids, downtime=_t(rng, 1.0, 3.5))
            )
        elif kind == 4:
            src, dst = rng.sample(range(n), 2)
            events.append(
                F.flap(
                    at,
                    src,
                    dst,
                    cycles=rng.randint(1, 3),
                    period=_t(rng, 0.6, 1.6),
                )
            )
        elif kind == 5:
            events.append(F.loss(at, _t(rng, 0.1, 0.45)))
            events.append(F.loss(_t(rng, at + 1.0, at + 4.0), 0.0))
        elif kind == 6:
            events.append(F.duplicate(at, _t(rng, 0.1, 0.5)))
            events.append(F.duplicate(_t(rng, at + 1.0, at + 4.0), 0.0))
        elif kind == 7:
            events.append(F.reorder(at, _t(rng, 0.8, 2.5)))
        elif kind == 8:
            events.append(F.delay_spike(at, _t(rng, 2.0, 6.0)))
            events.append(F.delay_spike(_t(rng, at + 1.0, at + 4.0), 1.0))
        else:
            # lossy recovery: a crash whose recovery happens under a
            # short heavy loss burst — the catch-up traffic of a naive
            # resync is mostly dropped, exactly the adversarial pattern
            # for crash-recovery robustness
            pid = rng.randrange(n)
            back = _t(rng, at + 1.0, at + 3.0)
            events.append(F.crash(at, pid))
            events.append(F.loss(round(back - 0.2, 3), _t(rng, 0.6, 0.95)))
            events.append(F.recover(back, pid))
            events.append(F.loss(_t(rng, back + 1.0, back + 2.0), 0.0))
    events.sort(key=lambda e: e.time)
    return events


def event_end(event: FaultEvent) -> float:
    """The time by which ``event``'s scheduled side effects have ended
    (a flap keeps toggling, a storm self-recovers, a burst expires)."""
    if event.action == "flap":
        return event.time + event.count * event.duration
    if event.action in ("crash-storm", "reorder"):
        return event.time + event.duration
    return event.time


def cleanup_events(events: Sequence[FaultEvent], n: int) -> List[FaultEvent]:
    """The deterministic cleanup suffix for ``events``.

    Resets the loss/duplicate/delay dials, heals every partition and
    blocked link, recovers every process still crashed at cleanup time,
    and — when a lossy phase occurred — runs ``n - 1`` spaced
    anti-entropy repair sweeps."""
    at = CLEANUP_MARGIN + max(
        [event_end(e) for e in events], default=0.0
    )
    crashed = set()
    for e in events:
        if e.action == "crash":
            crashed.add(e.pid)
        elif e.action == "recover":
            crashed.discard(e.pid)
        # crash-storm self-recovers before `at` (event_end >= storm end)
    suffix = [
        F.loss(at, 0.0),
        F.duplicate(at, 0.0),
        F.delay_spike(at, 1.0),
        F.heal(at),
    ]
    for pid in sorted(crashed):
        suffix.append(F.recover(at, pid))
    had_loss = any(e.action == "loss" and e.rate > 0 for e in events)
    if had_loss:
        for i in range(1, n):
            suffix.append(F.repair(at + i * REPAIR_SPACING))
    return suffix


def make_spec(
    name: str,
    n: int,
    ops: int,
    faults: Sequence[FaultEvent],
) -> ScenarioSpec:
    """A runnable chaos spec: the injected ``faults`` plus their cleanup
    suffix over the standard chaos workload."""
    events = sorted(faults, key=lambda e: e.time)
    full = tuple(events) + tuple(cleanup_events(events, n))
    return ScenarioSpec(
        name=name,
        description="chaos-generated fault schedule",
        n=n,
        faults=full,
        workload=WorkloadSpec(ops_per_process=ops, write_ratio=0.6),
    )
