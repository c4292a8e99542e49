"""Experiment E6 — operation latency vs network delay (Secs. 1 and 6).

The paper's motivation: strong criteria cost at least a network round
trip per operation ([3], [16]), while the weak criteria of the paper are
wait-free — operation duration *independent of communication delays*.
This module sweeps the mean network delay and records mean operation
latency for each algorithm; the expected shape is a flat 0 line for
CC/CCv/PRAM/LWW and a line growing linearly (~2x mean one-way delay) for
the SC baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from ..scenarios.matrix import ALGORITHMS
from ..scenarios.scenario import Scenario
from ..scenarios.spec import DelaySpec, ScenarioSpec
from ..scenarios.workloads import window_script


@dataclass
class LatencyPoint:
    algorithm: str
    mean_delay: float
    mean_latency: float
    ops: int
    messages_per_op: float


def latency_sweep(
    delays: Sequence[float] = (0.5, 1.0, 2.0, 5.0, 10.0),
    algorithms: Sequence[str] = (
        "cc-fig4", "ccv-fig5", "pram", "lww", "sc-sequencer"
    ),
    n: int = 3,
    streams: int = 2,
    k: int = 2,
    ops_per_process: int = 10,
    seed: int = 0,
) -> List[LatencyPoint]:
    """Mean operation latency per algorithm per mean network delay."""
    points: List[LatencyPoint] = []
    for mean_delay in delays:
        scripts = [
            window_script(random.Random(seed * 7_919 + pid), ops_per_process, streams)
            for pid in range(n)
        ]
        scenario = Scenario(ScenarioSpec(
            name=f"latency-d{mean_delay:g}",
            n=n,
            streams=streams,
            k=k,
            delay=DelaySpec("uniform", (0.5 * mean_delay, 1.5 * mean_delay)),
            quiescence_reads=False,
        ))
        for key in algorithms:
            entry = ALGORITHMS[key]
            result = scenario.run(
                entry.cls, seed=seed, scripts=scripts,
                **entry.kwargs(streams, k),
            )
            points.append(
                LatencyPoint(
                    algorithm=result.algorithm.name,
                    mean_delay=mean_delay,
                    mean_latency=result.mean_latency,
                    ops=result.ops,
                    messages_per_op=result.messages_per_op,
                )
            )
    return points


def format_sweep(points: List[LatencyPoint]) -> str:
    algorithms = sorted({p.algorithm for p in points})
    delays = sorted({p.mean_delay for p in points})
    by_key = {(p.algorithm, p.mean_delay): p for p in points}
    width = max(len(a) for a in algorithms) + 2
    lines = ["mean operation latency vs mean one-way network delay"]
    lines.append(" " * width + " ".join(f"d={d:<6g}" for d in delays))
    for algorithm in algorithms:
        cells = []
        for d in delays:
            p = by_key.get((algorithm, d))
            cells.append(f"{p.mean_latency:8.2f}" if p else "     n/a")
        lines.append(f"{algorithm:<{width}}" + " ".join(cells))
    return "\n".join(lines)
