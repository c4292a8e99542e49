"""Experiment E9 — session guarantees per algorithm (Secs. 1 and 4).

The paper's placement: WCC and CCv ensure Read-Your-Writes, Monotonic
Writes and Writes-Follow-Reads but not Monotonic Reads; CC ensures all
four.  We measure, over randomized memory workloads with distinct written
values, the fraction of runs in which each algorithm's history violates
each guarantee:

- CC algorithm (generic causal): zero violations everywhere;
- CCv algorithm: zero except possibly MR (windows can move backwards
  between a local write and a remote, smaller-timestamped one? no — MR
  violations arise for WCC-class algorithms; the experiment reports what
  actually happens);
- PRAM baseline: MR/WFR-class violations appear;
- LWW baseline: causality violations (RYW even) appear under clock skew.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from ..adts.memory import MemoryADT
from ..core.operations import Invocation
from ..criteria.session import all_session_guarantees
from ..algorithms.generic_causal import GenericCausal, PramReplication
from ..algorithms.generic_ccv import GenericCCv, LwwReplication
from ..scenarios.scenario import Scenario
from ..scenarios.spec import DelaySpec, ScenarioSpec, WorkloadSpec

GUARANTEES = ("RYW", "MR", "MW", "WFR")


def _memory_scripts(
    rng: random.Random, n: int, ops: int, registers: str
) -> List[List[Invocation]]:
    """Dependency-inducing workload.

    Half the processes are *chainers* (read a register, then write a fresh
    value to it — their writes causally follow what they read, the pattern
    behind the MR/WFR anomalies of non-causal replication); the other half
    are *pollers* re-reading registers.  Purely uniform workloads almost
    never exhibit the anomalies, so the experiment would silently measure
    nothing.
    """
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    scripts: List[List[Invocation]] = []
    for pid in range(n):
        script: List[Invocation] = []
        if pid < (n + 1) // 2:  # chainer
            for _ in range(ops // 2):
                reg = rng.choice(registers)
                script.append(Invocation("r", (reg,)))
                script.append(Invocation("w", (reg, fresh())))
        else:  # poller
            for _ in range(ops):
                script.append(Invocation("r", (rng.choice(registers),)))
        scripts.append(script)
    return scripts


@dataclass
class SessionReport:
    algorithm: str
    runs: int
    violation_runs: Dict[str, int] = field(default_factory=dict)

    def rate(self, guarantee: str) -> float:
        return self.violation_runs.get(guarantee, 0) / self.runs if self.runs else 0.0


def session_guarantee_rates(
    runs: int = 20,
    n: int = 4,
    ops_per_process: int = 8,
    registers: str = "ab",
    seed: int = 0,
    delay: DelaySpec = DelaySpec("per-link", (0.2, 40.0)),
) -> List[SessionReport]:
    """Violation-run rates per algorithm per guarantee."""
    scenario = Scenario(ScenarioSpec(
        name="session-guarantees",
        n=n,
        delay=delay,
        workload=WorkloadSpec(think=(0.5, 12.0)),
        quiescence_reads=False,
    ))
    reports: List[SessionReport] = []
    for cls, extra in (
        (GenericCausal, {}),
        (GenericCCv, {}),
        (PramReplication, {}),
        (LwwReplication, {"clock_skew": 2.0}),
    ):
        report = SessionReport(algorithm=cls.__name__, runs=runs)
        for r in range(runs):
            rng = random.Random(seed * 65_537 + r)
            adt = MemoryADT(registers)
            scripts = _memory_scripts(rng, n, ops_per_process, registers)
            result = scenario.run(
                cls, seed=seed * 131 + r, scripts=scripts, adt=adt, **extra
            )
            report.algorithm = getattr(result.algorithm, "name", cls.__name__)
            outcomes = all_session_guarantees(result.history, adt)
            for guarantee in GUARANTEES:
                if not outcomes[guarantee].ok:
                    report.violation_runs[guarantee] = (
                        report.violation_runs.get(guarantee, 0) + 1
                    )
        reports.append(report)
    return reports


def format_session_table(reports: List[SessionReport]) -> str:
    width = max(len(r.algorithm) for r in reports) + 2
    lines = ["fraction of runs violating each session guarantee"]
    lines.append(" " * width + " ".join(f"{g:>6s}" for g in GUARANTEES))
    for report in reports:
        cells = " ".join(f"{report.rate(g):6.2f}" for g in GUARANTEES)
        lines.append(f"{report.algorithm:<{width}}{cells}")
    return "\n".join(lines)
