"""The chaos driver: random fault schedules, monitors, minimisation.

``python -m repro chaos --seed S`` runs seeded random fault schedules
(:mod:`repro.chaos.generate`) against the registry algorithms with the
runtime invariant monitors attached, judges each run by the rule it
shares with explore (:func:`repro.scenarios.matrix.check_run`), and —
when a trial fails — delta-debugs the schedule (:mod:`repro.chaos.ddmin`)
down to a minimal failing subset, which it emits as a replayable
:class:`ScenarioSpec` JSON document for the regression corpus
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

from ..runtime.broadcast import ReliableBroadcast
from ..scenarios.matrix import ALGORITHMS, CheckedRun, check_run
from ..scenarios.spec import FaultEvent, ScenarioSpec
from .ddmin import ddmin
from .generate import make_spec, random_fault_events
from .sentinels import plant, sentinel

#: aggressive GC for chaos runs: small logs force the stability frontier
#: into play within a few dozen operations, where the default 1024-note
#: interval would never sweep at chaos workload sizes
CHAOS_GC_INTERVAL = 16

#: what a hunt runs unless told otherwise: one eventually consistent
#: baseline and Fig. 5
CHAOS_ALGORITHMS = ("lww", "ccv-fig5")

#: seed mixing constants (any odd multipliers; fixed forever for replay)
_TRIAL_SALT = 1_000_003
_RUN_SALT = 10_007


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
    #: how the run's reliable broadcast spread messages (``None``: it
    #: had none)
    relay: Optional[str] = None
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


def _chaos_post_setup(algorithm: Any) -> None:
    if isinstance(algorithm.broadcast, ReliableBroadcast):
        algorithm.broadcast.GC_INTERVAL = CHAOS_GC_INTERVAL


def run_chaos_trial(
    spec: ScenarioSpec,
    algo_key: str,
    run_seed: int,
    inject: str = "none",
    check_criterion: bool = True,
    relay: Optional[str] = None,
) -> CheckedRun:
    """One monitored run of ``spec``, judged by :func:`check_run`, with
    the row's reliable broadcast spreading by ``relay`` when one is
    named (a replayed repro names the one it was found under).

    Failure kinds: every monitor violation kind (``double-apply``,
    ``fifo-order``, ``causal-order``, ``gc-frontier``, ``pruned-gap``,
    ``resync-stranded``); ``divergence`` (live replicas disagree after
    the final heal) where the advertised criterion promises
    convergence — CONV, CCv and SC, never CC or PC
    (Fig. 1); with ``check_criterion``, what :func:`decide` reports on
    the advertised criterion, the streaming monitor fed live:
    ``criterion`` (the search refutes it), ``bad-pattern:<name>`` (the
    monitor does) and ``monitor-disagreement``."""
    entry = ALGORITHMS[algo_key]
    if relay is not None:
        entry = entry.with_relay(relay)
    planted = {"broadcast_cls": plant(entry.cls.broadcast_cls, inject)}
    return check_run(
        spec, entry, run_seed,
        cls=type(entry.cls.__name__, (entry.cls,), planted),
        post_setup=_chaos_post_setup, check=check_criterion,
    )


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
) -> CheckedRun:
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
            return CheckedRun(outcome.result)
    return outcome


def run_chaos(
    seed: int,
    trials: int = 25,
    algorithms: Sequence[str] = CHAOS_ALGORITHMS,
    inject: str = "none",
    n: int = 4,
    ops: int = 6,
    save_dir: Optional[str] = None,
    stop_on_failure: bool = True,
    check_criterion: bool = True,
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
            target = set(kinds)

            def fails(subset: List[FaultEvent]) -> bool:
                sub = trial_fails(
                    subset, algo_key, run_seed, inject, n, ops, check_criterion
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
                relay=getattr(outcome.result.algorithm.broadcast, "relay", None),
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
        "relay": failure.relay,
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


def replay_file(path: str) -> Tuple[CheckedRun, Dict[str, Any]]:
    """Re-run a saved repro; returns the outcome and the document.

    A corpus file with ``expect_failure`` true must fail again with at
    least one of its recorded failure kinds — that is the regression
    test the corpus provides.  A document without its ``spec`` (or a
    spec without its ``name``), ``algorithm`` or ``run_seed``, or one
    naming an algorithm the registry lacks, raises ``ValueError`` naming
    the file and the field.  A document without ``relay`` was found
    before the reliable broadcast sent directly by default, and replays
    over the flood."""
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("kind") != "chaos-repro":
        raise ValueError(f"{path}: not a chaos-repro document")
    for key in ("spec", "algorithm", "run_seed"):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    if not isinstance(doc["spec"], dict) or "name" not in doc["spec"]:
        raise ValueError(f"{path}: field 'spec' has no 'name'")
    algorithm = doc["algorithm"]
    if not isinstance(algorithm, str) or algorithm not in ALGORITHMS:
        known = ", ".join(ALGORITHMS)
        raise ValueError(
            f"{path}: unknown algorithm {algorithm!r}; known: {known}"
        )
    spec = ScenarioSpec.from_dict(doc["spec"])
    outcome = run_chaos_trial(
        spec,
        algorithm,
        doc["run_seed"],
        doc.get("inject", "none"),
        relay=doc.get("relay", "flood"),
    )
    return outcome, doc
