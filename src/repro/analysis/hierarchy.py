"""Experiment E1 — empirical validation of the Fig. 1 hierarchy.

Classifies a population of histories (the nine litmus figures, random
generator output, and algorithm-produced runs) against SC/CC/CCv/PC/WCC,
checks every inclusion of Fig. 1 on every history (zero violations
expected — the paper proves them universally), and collects *strictness
witnesses*: for every edge ``C2 -> C1`` a history in ``C1 \\ C2``,
demonstrating that each criterion of the map is genuinely distinct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.adt import AbstractDataType
from ..core.history import History
from ..criteria import decide
from ..criteria.hierarchy import DIRECT_EDGES, check_classification_consistency
from ..litmus.figures import all_litmus
from ..litmus.generators import (
    random_memory_history,
    random_queue_history,
    random_window_history,
)

CRITERIA = ("SC", "CC", "CCV", "PC", "WCC")


@dataclass
class HierarchyReport:
    histories: int = 0
    verdict_counts: Dict[str, int] = field(default_factory=dict)
    inclusion_violations: List[str] = field(default_factory=list)
    strictness_witnesses: Dict[Tuple[str, str], str] = field(default_factory=dict)
    budget_exhausted: int = 0

    def missing_witnesses(self) -> List[Tuple[str, str]]:
        wanted = [
            (stronger, weaker)
            for stronger, weakers in DIRECT_EDGES.items()
            for weaker in weakers
            if weaker != "EC"
        ]
        return [edge for edge in wanted if edge not in self.strictness_witnesses]


def classify_population(
    seed: int = 0,
    random_histories: int = 60,
    include_litmus: bool = True,
    scenario_histories: int = 0,
    max_nodes: int = 100_000,
) -> HierarchyReport:
    """Classify litmus + random (+ fault-scenario) histories and audit
    the hierarchy.  ``scenario_histories`` adds algorithm runs under the
    named fault scenarios of :mod:`repro.scenarios`, cycling through the
    scenario registry and a spread of algorithms."""
    rng = random.Random(seed)
    report = HierarchyReport()
    population: List[Tuple[str, History, AbstractDataType]] = []
    if include_litmus:
        for litmus in all_litmus():
            population.append((f"litmus-{litmus.key}", litmus.history, litmus.adt))
    generators = (
        lambda: random_window_history(rng, processes=2, ops_per_process=3),
        lambda: random_queue_history(rng, processes=2, ops_per_process=3),
        lambda: random_memory_history(rng, processes=2, ops_per_process=3),
    )
    for i in range(random_histories):
        history, adt = generators[i % len(generators)]()
        population.append((f"random-{i}", history, adt))
    if scenario_histories:
        from ..litmus.generators import scenario_window_history
        from ..scenarios import scenario_names

        names = scenario_names()
        algos = ("cc-fig4", "ccv-fig5", "pram", "lww")
        for i in range(scenario_histories):
            name = names[i % len(names)]
            algo = algos[i % len(algos)]
            history, adt = scenario_window_history(name, algo, seed=seed + i)
            population.append((f"scenario-{name}-{algo}-{i}", history, adt))

    for name, history, adt in population:
        verdicts: Dict[str, Optional[bool]] = {}
        for crit in CRITERIA:
            verdicts[crit] = decide(history, adt, crit, max_nodes=max_nodes).ok
            if verdicts[crit] is None:
                break
        if None in verdicts.values():
            report.budget_exhausted += 1
            continue
        report.histories += 1
        for crit, ok in verdicts.items():
            if ok:
                report.verdict_counts[crit] = report.verdict_counts.get(crit, 0) + 1
        for problem in check_classification_consistency(verdicts):
            report.inclusion_violations.append(f"{name}: {problem}")
        for stronger, weakers in DIRECT_EDGES.items():
            for weaker in weakers:
                if weaker == "EC" or (stronger, weaker) in report.strictness_witnesses:
                    continue
                if verdicts.get(weaker) and not verdicts.get(stronger, True):
                    report.strictness_witnesses[(stronger, weaker)] = name
    return report


def format_report(report: HierarchyReport) -> str:
    lines = [
        f"histories classified : {report.histories}"
        + (f" ({report.budget_exhausted} skipped: search budget)" if report.budget_exhausted else ""),
        f"criterion frequencies: "
        + " ".join(f"{c}={report.verdict_counts.get(c, 0)}" for c in CRITERIA),
        f"inclusion violations : {len(report.inclusion_violations)} (expected 0)",
    ]
    for violation in report.inclusion_violations[:5]:
        lines.append(f"  !! {violation}")
    lines.append("strictness witnesses (weaker holds, stronger fails):")
    for (stronger, weaker), name in sorted(report.strictness_witnesses.items()):
        lines.append(f"  {weaker} \\ {stronger:4s}: {name}")
    missing = report.missing_witnesses()
    if missing:
        lines.append(f"missing witnesses: {missing}")
    return "\n".join(lines)
