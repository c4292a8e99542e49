"""Workload generation from a :class:`WorkloadSpec`.

Scripts target the window-stream array ADT (the paper's guideline object)
so that every algorithm in the matrix — specialised window algorithms and
generic constructions alike — runs the identical invocation sequence.
Written values are distinct per (process, index), which keeps the
dependency analysis of the checkers sharp.

Pacing is separated from content: :func:`make_script` draws the op
sequence from a seeded rng (:func:`window_script` is the spec-free form
the hand-written experiments and tests use), while :func:`think_sampler` /
:func:`interarrival_sampler` build the closed-/open-loop pacing callables,
including the cyclic quiet/burst phase profile.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence, Tuple

from ..core.operations import Invocation
from ..runtime.simulator import Simulator
from .spec import WorkloadSpec


class PhaseClock:
    """Cyclic intensity profile over simulated time.

    ``phases`` is a sequence of ``(duration, intensity)`` pairs repeated
    forever; with no phases the intensity is constantly 1."""

    def __init__(self, phases: Sequence[Tuple[float, float]] = ()) -> None:
        self.phases = tuple(phases)
        self.total = sum(duration for duration, _ in self.phases)

    def intensity(self, now: float) -> float:
        if not self.phases or self.total <= 0:
            return 1.0
        t = now % self.total
        for duration, intensity in self.phases:
            if t < duration:
                return intensity
            t -= duration
        return self.phases[-1][1]


def pick_stream(rng: random.Random, spec: WorkloadSpec, streams: int) -> int:
    """Hot-key skew: stream 0 with probability ``hot_key_weight``,
    uniform otherwise (so weight 0 is the plain uniform draw)."""
    if spec.hot_key_weight and rng.random() < spec.hot_key_weight:
        return 0
    return rng.randrange(streams)


def make_script(
    rng: random.Random, spec: WorkloadSpec, streams: int, pid: int
) -> List[Invocation]:
    """The scripted invocation sequence of one client (content only)."""
    # per-process value namespaces keep the recorded history
    # differentiated (no value written twice), which the bad-pattern
    # checkers require: the stride must exceed ops_per_process.  Long
    # workloads (the 10k-op scale tiers) used to overflow the historic
    # 1_000 stride and silently collide across processes; the stride
    # only widens for them so that every ≤1000-op history stays
    # bit-identical to the committed golden fingerprints.
    stride = 1_000 if spec.ops_per_process <= 1_000 else 1_000_000
    script: List[Invocation] = []
    for i in range(spec.ops_per_process):
        x = pick_stream(rng, spec, streams)
        if rng.random() < spec.write_ratio:
            script.append(Invocation("w", (x, pid * stride + i + 1)))
        else:
            script.append(Invocation("r", (x,)))
    return script


def window_script(
    rng: random.Random, length: int, streams: int
) -> List[Invocation]:
    """Random read/write script for a window-stream array: a uniform
    stream per op, with probability 1/2 a write of a value drawn from
    ``[1, 10^6)``, else a read."""
    script: List[Invocation] = []
    for _ in range(length):
        x = rng.randrange(streams)
        if rng.random() < 0.5:
            script.append(Invocation("w", (x, rng.choice(range(1, 1_000_000)))))
        else:
            script.append(Invocation("r", (x,)))
    return script


def think_sampler(
    spec: WorkloadSpec, sim: Simulator
) -> Callable[[random.Random], float]:
    """Closed-loop think time: uniform in ``spec.think``, divided by the
    current phase intensity (bursts think faster)."""
    clock = PhaseClock(spec.phases)
    lo, hi = spec.think

    def think(rng: random.Random) -> float:
        return rng.uniform(lo, hi) / clock.intensity(sim.now)

    return think


def interarrival_sampler(
    spec: WorkloadSpec, sim: Simulator
) -> Callable[[random.Random], float]:
    """Open-loop Poisson gaps at ``spec.rate`` × phase intensity."""
    clock = PhaseClock(spec.phases)

    def interarrival(rng: random.Random) -> float:
        return rng.expovariate(spec.rate * clock.intensity(sim.now))

    return interarrival
