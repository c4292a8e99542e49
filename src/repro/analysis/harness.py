"""Run harness: compatibility shim over the scenario engine.

Historically this module owned the whole simulation assembly; that logic
now lives in :mod:`repro.scenarios` (declarative specs, fault schedules,
open-loop clients, the matrix runner).  ``run_workload`` remains the
stable entry point used by the model-checking tests, benchmarks and
examples — it builds an ad-hoc :class:`ScenarioSpec` and delegates to
:meth:`Scenario.run` with explicit scripts, so every experiment keeps
measuring exactly the same thing.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Type

from ..core.operations import Invocation
from ..runtime.network import DelayModel
from ..algorithms.base import ReplicatedObject
from ..scenarios.scenario import RunResult, Scenario
from ..scenarios.spec import FaultEvent, ScenarioSpec, WorkloadSpec

__all__ = ["RunResult", "run_workload", "window_script"]


def run_workload(
    algorithm_cls: Type[ReplicatedObject],
    n: int,
    scripts: Sequence[Sequence[Invocation]],
    seed: int = 0,
    delay: Optional[DelayModel] = None,
    think: Callable[[random.Random], float] = lambda rng: rng.uniform(0.1, 1.0),
    quiescence_reads: Optional[Sequence[Invocation]] = None,
    crash_plan: Optional[Dict[int, float]] = None,
    **algorithm_kwargs: Any,
) -> RunResult:
    """Execute ``scripts[p]`` on process ``p`` of a fresh replicated object.

    After all clients finish, the simulation drains (messages settle), the
    recorder is marked quiescent, and each *non-crashed* process performs
    ``quiescence_reads`` — their results form the stable set used by the
    EC/UC checkers.

    ``crash_plan`` maps pids to crash times (crash-stop, Sec. 6.1; a
    crashed process's client pauses with it).  Richer fault schedules —
    partitions, recovery, loss bursts — are the scenario engine's job:
    build a :class:`ScenarioSpec` instead.
    """
    if len(scripts) != n:
        raise ValueError("one script per process required")
    # mirror the object dimensions into the ad-hoc spec (Scenario.run
    # cross-checks them against the algorithm kwargs)
    adt = algorithm_kwargs.get("adt")
    spec = ScenarioSpec(
        name="adhoc-run-workload",
        n=n,
        streams=algorithm_kwargs.get("streams", getattr(adt, "streams", 2)),
        k=algorithm_kwargs.get("k", getattr(adt, "k", 2)),
        faults=tuple(
            FaultEvent.crash(when, pid)
            for pid, when in (crash_plan or {}).items()
        ),
        workload=WorkloadSpec(kind="closed"),
        quiescence_reads=False,
    )
    return Scenario(spec).run(
        algorithm_cls,
        seed=seed,
        scripts=scripts,
        think=think,
        delay=delay,
        quiescence_reads=quiescence_reads,
        **algorithm_kwargs,
    )


def window_script(
    rng: random.Random,
    length: int,
    streams: int,
    values: range = range(1, 1_000_000),
    write_ratio: float = 0.5,
) -> List[Invocation]:
    """Random read/write script for a window-stream array."""
    script: List[Invocation] = []
    for _ in range(length):
        x = rng.randrange(streams)
        if rng.random() < write_ratio:
            script.append(Invocation("w", (x, rng.choice(values))))
        else:
            script.append(Invocation("r", (x,)))
    return script
