"""The chaos driver: random fault schedules, monitors, minimisation.

``python -m repro chaos --seed S`` runs seeded random fault schedules
(:mod:`repro.chaos.generate`) against the registry algorithms with the
runtime invariant monitors attached, checks convergence and (optionally)
the advertised consistency criterion, and — when a trial fails —
delta-debugs the schedule (:mod:`repro.chaos.ddmin`) down to a minimal
failing subset, which it emits as a replayable :class:`ScenarioSpec`
JSON document for the regression corpus
(``tests/chaos_corpus/``).

Everything is a pure function of ``--seed``: the same seed explores the
same schedules, finds the same failures and minimises them to the same
repro, forever.  ``--inject`` plants a sentinel bug
(:mod:`repro.chaos.sentinels`) for the hunt to find.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..criteria.verdict import CHECK_BUDGET, decide
from ..runtime.broadcast import ReliableBroadcast
from ..scenarios.matrix import ALGORITHMS, AlgorithmEntry, build_post_setup
from ..scenarios.scenario import RunResult, Scenario
from ..scenarios.spec import FaultEvent, ScenarioSpec
from .ddmin import ddmin
from .generate import make_spec, random_fault_events
from .sentinels import plant, sentinel

#: aggressive GC for chaos runs: small logs force the stability frontier
#: into play within a few dozen operations, where the default 1024-note
#: interval would never sweep at chaos workload sizes
CHAOS_GC_INTERVAL = 16

#: seed mixing constants (any odd multipliers; fixed forever for replay)
_TRIAL_SALT = 1_000_003
_RUN_SALT = 10_007


@dataclass
class TrialOutcome:
    """One simulated run, monitored and checked."""

    failures: List[Tuple[str, str]] = field(default_factory=list)
    result: Optional[RunResult] = None

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def kinds(self) -> List[str]:
        return sorted({kind for kind, _ in self.failures})


@dataclass
class ChaosFailure:
    """A failing trial, minimised and ready for the corpus."""

    trial: int
    algorithm: str
    run_seed: int
    kinds: List[str]
    details: List[str]
    original_events: int
    minimized: List[FaultEvent]
    spec: ScenarioSpec
    path: Optional[str] = None


@dataclass
class ChaosReport:
    seed: int
    trials: int
    inject: str
    runs: int = 0
    failures: List[ChaosFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _chaos_post_setup(
    entry: AlgorithmEntry, spec: ScenarioSpec
) -> Callable[[Any], None]:
    gossip_setup = build_post_setup(entry, spec)

    def post_setup(algorithm: Any) -> None:
        if gossip_setup is not None:
            gossip_setup(algorithm)
        if isinstance(algorithm.broadcast, ReliableBroadcast):
            algorithm.broadcast.GC_INTERVAL = CHAOS_GC_INTERVAL

    return post_setup


def run_chaos_trial(
    spec: ScenarioSpec,
    algo_key: str,
    run_seed: int,
    inject: str = "none",
    check_criterion: bool = True,
) -> TrialOutcome:
    """One monitored run of ``spec``; returns everything that went wrong.

    Failure kinds: every monitor violation kind (``double-apply``,
    ``fifo-order``, ``causal-order``, ``gc-frontier``, ``pruned-gap``,
    ``resync-stranded``), plus ``divergence`` (live replicas disagree at
    quiescence) and ``criterion`` (the advertised consistency criterion
    was conclusively violated)."""
    entry = ALGORITHMS[algo_key]
    planted = {"broadcast_cls": plant(entry.cls.broadcast_cls, inject)}
    scenario = Scenario(spec)
    result = scenario.run(
        type(entry.cls.__name__, (entry.cls,), planted),
        seed=run_seed,
        post_setup=_chaos_post_setup(entry, spec),
        **entry.kwargs(spec.streams, spec.k),
    )
    outcome = TrialOutcome(result=result)
    if result.monitor is not None:
        for violation in result.monitor.violations:
            outcome.failures.append((violation.kind, str(violation)))
    if not result.algorithm.converged():
        outcome.failures.append(
            ("divergence", "live replicas disagree after the final heal")
        )
    if check_criterion and entry.criterion != "CONV":
        # an inconclusive verdict is not a failure
        verdict = decide(
            result.history, scenario.adt(), entry.criterion,
            max_nodes=CHECK_BUDGET,
        )
        outcome.failures.extend(verdict.failures)
    return outcome


def _spec_for(
    faults: Sequence[FaultEvent], n: int, ops: int, inject: str, name: str
) -> ScenarioSpec:
    row = sentinel(inject)  # a differential hunt runs without repairs
    differential = row is not None and row.differential
    return make_spec(name, n, ops, faults, repairs=not differential)


def trial_fails(
    faults: Sequence[FaultEvent],
    algo_key: str,
    run_seed: int,
    inject: str,
    n: int,
    ops: int,
    check_criterion: bool = True,
) -> TrialOutcome:
    """The failure predicate shared by the driver loop and ddmin.

    For a differential sentinel the injected run must fail while the
    clean run of the same schedule succeeds."""
    spec = _spec_for(faults, n, ops, inject, "chaos-candidate")
    outcome = run_chaos_trial(
        spec, algo_key, run_seed, inject, check_criterion
    )
    row = sentinel(inject)
    if row is not None and row.differential and outcome.failed:
        control = run_chaos_trial(
            spec, algo_key, run_seed, "none", check_criterion
        )
        if control.failed:
            # the clean code fails the same schedule: not the sentinel's
            # fault, so the differential predicate does not blame it
            return TrialOutcome(result=outcome.result)
    return outcome


def run_chaos(
    seed: int,
    trials: int = 25,
    algorithms: Sequence[str] = ("lww", "ccv-fig5", "ccv-lazy"),
    inject: str = "none",
    n: int = 4,
    ops: int = 6,
    save_dir: Optional[str] = None,
    stop_on_failure: bool = True,
    check_criterion: bool = True,
    minimize: bool = True,
    log: Callable[[str], None] = lambda s: None,
) -> ChaosReport:
    """The driver loop: ``trials`` seeded random schedules per algorithm.

    Deterministic per ``seed``; failures are ddmin-minimised and, when
    ``save_dir`` is given, written as replayable repro JSON files."""
    sentinel(inject)  # an unknown name raises before any trial
    report = ChaosReport(seed=seed, trials=trials, inject=inject)
    for trial in range(trials):
        rng = random.Random(seed * _TRIAL_SALT + trial)
        faults = random_fault_events(rng, n)
        run_seed = seed * _RUN_SALT + trial
        for algo_key in algorithms:
            report.runs += 1
            outcome = trial_fails(
                faults, algo_key, run_seed, inject, n, ops, check_criterion
            )
            if not outcome.failed:
                continue
            kinds = outcome.kinds
            log(
                f"trial {trial} [{algo_key}]: FAIL "
                f"({', '.join(kinds)}) — {len(faults)} events"
            )
            minimized = list(faults)
            if minimize:
                target = set(kinds)

                def fails(subset: List[FaultEvent]) -> bool:
                    sub = trial_fails(
                        subset, algo_key, run_seed, inject, n, ops,
                        check_criterion,
                    )
                    return bool(target.intersection(sub.kinds))

                minimized = ddmin(faults, fails)
                log(
                    f"trial {trial} [{algo_key}]: minimised "
                    f"{len(faults)} -> {len(minimized)} events"
                )
            spec = _spec_for(
                minimized, n, ops, inject,
                f"chaos-repro-s{seed}-t{trial}-{algo_key}",
            )
            failure = ChaosFailure(
                trial=trial,
                algorithm=algo_key,
                run_seed=run_seed,
                kinds=kinds,
                details=[detail for _, detail in outcome.failures],
                original_events=len(faults),
                minimized=minimized,
                spec=spec,
            )
            if save_dir:
                failure.path = save_repro(failure, inject, save_dir)
                log(f"trial {trial} [{algo_key}]: saved {failure.path}")
            report.failures.append(failure)
            if stop_on_failure:
                return report
    return report


# ----------------------------------------------------------------------
# Corpus I/O
# ----------------------------------------------------------------------
def save_repro(failure: ChaosFailure, inject: str, save_dir: str) -> str:
    os.makedirs(save_dir, exist_ok=True)
    doc = {
        "kind": "chaos-repro",
        "version": 1,
        "algorithm": failure.algorithm,
        "run_seed": failure.run_seed,
        "inject": inject,
        "failure_kinds": failure.kinds,
        "details": failure.details,
        "expect_failure": True,
        "spec": failure.spec.to_dict(),
    }
    path = os.path.join(save_dir, f"{failure.spec.name}.json")
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def replay_file(path: str) -> Tuple[TrialOutcome, Dict[str, Any]]:
    """Re-run a saved repro; returns the outcome and the document.

    A corpus file with ``expect_failure`` true must fail again with at
    least one of its recorded failure kinds — that is the regression
    test the corpus provides."""
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("kind") != "chaos-repro":
        raise ValueError(f"{path}: not a chaos-repro document")
    spec = ScenarioSpec.from_dict(doc["spec"])
    outcome = run_chaos_trial(
        spec,
        doc["algorithm"],
        doc["run_seed"],
        doc.get("inject", "none"),
    )
    return outcome, doc
