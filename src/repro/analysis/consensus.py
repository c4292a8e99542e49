"""Experiment E7 — the consensus number of a window stream is k (Sec. 2.1).

The paper's protocol: ``k`` processes each write their proposal into a
*sequentially consistent* window stream of size ``k`` and then return the
oldest non-default value of the window they read — with at most ``k``
writers the first write can never have been shifted out, so all processes
return the first writer's value (agreement + validity).  With ``n > k``
writers a late reader's window may have dropped the first value, breaking
agreement.

``consensus_matrix`` runs the protocol for a grid of (n, k) over many
seeds on the SC baseline object and reports the fraction of runs that
agreed; the expected shape is: always 1.0 for n <= k, < 1.0 for n > k
(the adversarial schedule generator provokes the disagreement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..adts.window_stream import INITIAL_VALUE, WindowStreamArray
from ..core.operations import Invocation
from ..runtime.network import DelayModel, Network
from ..runtime.recorder import HistoryRecorder
from ..runtime.simulator import Simulator
from ..algorithms.sc_sequencer import ScSequencer


@dataclass
class ConsensusRun:
    n: int
    k: int
    decisions: List[Any]

    @property
    def agreed(self) -> bool:
        return len(set(self.decisions)) == 1


def window_consensus(n: int, k: int, seed: int = 0) -> ConsensusRun:
    """Run the W_k consensus protocol with ``n`` proposers.

    Process ``i`` proposes ``i + 1``.  All operations go through a
    sequentially consistent window stream (the SC baseline); each process
    writes, then reads, then decides the oldest non-default value.
    """
    sim = Simulator(seed=seed)
    network = Network(sim, n, delay=DelayModel.uniform(0.5, 1.5))
    recorder = HistoryRecorder(n)
    obj = ScSequencer(sim, network, recorder, adt=WindowStreamArray(1, k))
    decisions: List[Any] = [None] * n

    def decide(pid: int) -> None:
        def on_read(window: Any) -> None:
            non_default = [v for v in window if v != INITIAL_VALUE]
            decisions[pid] = non_default[0] if non_default else None

        obj.invoke(pid, Invocation("r", (0,)), on_read)

    def propose(pid: int) -> None:
        obj.invoke(
            pid,
            Invocation("w", (0, pid + 1)),
            lambda _out, p=pid: decide(p),
        )

    # stagger proposals randomly: the adversarial schedules that separate
    # n <= k from n > k arise from late proposers reading after k shifts
    for pid in range(n):
        sim.schedule(sim.rng.uniform(0, 5.0), lambda p=pid: propose(p))
    sim.run()
    return ConsensusRun(n=n, k=k, decisions=decisions)


def consensus_matrix(
    max_n: int = 5,
    max_k: int = 4,
    runs: int = 20,
    seed: int = 0,
) -> Dict[Tuple[int, int], float]:
    """Agreement rate per (n, k) over ``runs`` seeds."""
    rates: Dict[Tuple[int, int], float] = {}
    for k in range(1, max_k + 1):
        for n in range(1, max_n + 1):
            agreed = 0
            for r in range(runs):
                run = window_consensus(n, k, seed=seed * 10_000 + r)
                if run.agreed and all(d is not None for d in run.decisions):
                    agreed += 1
            rates[(n, k)] = agreed / runs
    return rates


def format_matrix(rates: Dict[Tuple[int, int], float]) -> str:
    ns = sorted({n for n, _ in rates})
    ks = sorted({k for _, k in rates})
    lines = ["agreement rate (rows: n proposers, cols: window size k)"]
    header = "n\\k " + " ".join(f"{k:>5d}" for k in ks)
    lines.append(header)
    for n in ns:
        row = f"{n:<3d} " + " ".join(f"{rates[(n, k)]:5.2f}" for k in ks)
        marker = "  <- agreement boundary" if any(
            rates[(n, k)] < 1.0 and n == k + 1 for k in ks
        ) else ""
        lines.append(row + marker)
    return "\n".join(lines)
