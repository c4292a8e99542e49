"""Experiment E8 — convergence behaviour of the algorithms (Sec. 5).

Runs identical workloads over the CCv algorithm (Fig. 5), the CC
algorithm (Fig. 4) and the LWW baseline and measures:

- *converged?* — do all replicas expose identical windows at quiescence?
  (always for CCv and LWW; only sometimes for CC, which orders concurrent
  writes by delivery order);
- *convergence time* — the simulated time between the last update and the
  moment all replicas become (and stay) identical;
- *divergence witnesses* — a pair of replicas with different final
  windows under CC, reproducing the paper's point that causal consistency
  and convergence are orthogonal (Fig. 3c vs Fig. 3a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Type

from ..core.operations import Invocation
from ..runtime.network import DelayModel, Network
from ..runtime.recorder import HistoryRecorder
from ..runtime.simulator import Simulator
from ..algorithms.base import ReplicatedObject


@dataclass
class ConvergenceResult:
    algorithm: str
    converged: bool
    convergence_time: Optional[float]
    final_states: List[Tuple[Any, ...]]
    last_update_time: float


#: simulated time between two samples of the replica states
SAMPLE_STEP = 0.25


def _snapshot(obj: ReplicatedObject) -> List[Tuple[Any, ...]]:
    return [obj.state_of(pid) for pid in range(obj.n)]


def measure_convergence(
    algorithm_cls: Type[ReplicatedObject],
    n: int = 4,
    streams: int = 1,
    k: int = 2,
    seed: int = 0,
    delay: Optional[DelayModel] = None,
    **kwargs: Any,
) -> ConvergenceResult:
    """Issue 3 concurrent writes per process, then sample replica states
    until stable."""
    sim = Simulator(seed=seed)
    network = Network(sim, n, delay=delay or DelayModel.uniform(0.5, 3.0))
    recorder = HistoryRecorder(n)
    obj = algorithm_cls(sim, network, recorder, streams=streams, k=k, **kwargs)

    last_update = 0.0
    for pid in range(n):
        for i in range(3):
            when = sim.rng.uniform(0, 2.0)
            last_update = max(last_update, when)
            sim.schedule(
                when,
                lambda p=pid, v=pid * 100 + i: obj.invoke(
                    p, Invocation("w", (sim.rng.randrange(streams), v))
                ),
            )

    samples: List[Tuple[float, List[Tuple[Any, ...]]]] = []

    def sample() -> None:
        samples.append((sim.now, _snapshot(obj)))
        # keep sampling while traffic is in flight, the no-op copies the
        # network elided or folded included until they arrive: the samples
        # of a network that schedules every copy
        if sim.pending > 1 or sim.now < sim.elided_until:
            sim.schedule(SAMPLE_STEP, sample)

    sim.schedule(SAMPLE_STEP, sample)
    sim.run()
    samples.append((sim.now, _snapshot(obj)))

    final = samples[-1][1]
    converged = all(state == final[0] for state in final)
    convergence_time: Optional[float] = None
    if converged:
        # first sample from which all replicas stay equal to the final state
        stable_from = samples[-1][0]
        for when, snap in reversed(samples):
            if all(state == final[0] for state in snap):
                stable_from = when
            else:
                break
        convergence_time = max(0.0, stable_from - last_update)
    return ConvergenceResult(
        algorithm=getattr(obj, "name", algorithm_cls.__name__),
        converged=converged,
        convergence_time=convergence_time,
        final_states=final,
        last_update_time=last_update,
    )


def divergence_rate(
    algorithm_cls: Type[ReplicatedObject],
    runs: int = 20,
    seed: int = 0,
    **kwargs: Any,
) -> float:
    """Fraction of runs whose replicas do NOT converge at quiescence."""
    diverged = 0
    for r in range(runs):
        result = measure_convergence(algorithm_cls, seed=seed * 1_000 + r, **kwargs)
        if not result.converged:
            diverged += 1
    return diverged / runs
