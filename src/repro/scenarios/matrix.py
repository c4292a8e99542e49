"""Scenario × algorithm × seed matrix runner.

Executes every combination across a process pool (each cell
is an independent seeded simulation, so the sweep is embarrassingly
parallel), pipes each observed history straight into the criteria engine,
and aggregates verdicts plus latency/message statistics into one report.

Each algorithm advertises the criterion the paper places it at (Fig. 1):
the causal algorithms must pass it on *every* scenario, while the
sequencer-based SC baseline is expected to be flagged unavailable
(blocked operations, delay-dependent latency) under partition and crash
scenarios — exactly the paper's CAP motivation.  ``python -m repro
explore`` is the CLI front end.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..adts.window_stream import WindowStreamArray
from ..algorithms import (
    CCWindowArray,
    CCvWindowArray,
    GenericCausal,
    GenericCCv,
    GossipCCvWindowArray,
    LwwReplication,
    PramReplication,
    ScSequencer,
)
from ..criteria.hierarchy import implied
from ..criteria.streaming_monitor import monitor_for_adt
from ..criteria.verdict import CHECK_BUDGET, decide
from ..runtime.broadcast import ReliableBroadcast
from ..util.tables import render_table
from .registry import get_scenario, scenario_names
from .scenario import RunResult, Scenario
from .spec import ScenarioSpec

#: ops per process in ``--fast`` (smoke) mode
FAST_OPS = 3


@dataclass(frozen=True)
class AlgorithmEntry:
    """One row of the algorithm registry."""

    key: str
    cls: type
    criterion: str  # advertised criterion: CC | CCV | PC | SC | CONV
    kwargs_style: str  # "window" (streams/k) | "adt" (generic object)
    gossip: bool = False  # needs start_gossip after construction
    #: guarantee void on lossy channels: a lost sequenced message lets an
    #: operation take effect remotely without ever completing at its
    #: origin, so the recorded history can expose unwritten values
    needs_reliable: bool = False
    #: the reliable broadcast's ``relay`` (``None``: the host's default)
    relay: Optional[str] = None

    def with_relay(self, relay: str) -> "AlgorithmEntry":
        """This row with its reliable broadcast spreading by ``relay``;
        a row over no reliable broadcast comes back as it is."""
        if not issubclass(self.cls.broadcast_cls or object, ReliableBroadcast):
            return self
        return replace(self, relay=relay)

    def kwargs(self, streams: int, k: int) -> Dict[str, Any]:
        """Constructor kwargs of ``cls`` for an array of ``streams``
        window streams of size ``k`` — the one place ``kwargs_style`` is
        decoded, for the matrix runner and the service node alike."""
        relay = {} if self.relay is None else {"relay": self.relay}
        if self.kwargs_style == "window":
            return {"streams": streams, "k": k, **relay}
        return {"adt": WindowStreamArray(streams, k), **relay}

    def run(
        self,
        spec: ScenarioSpec,
        seed: int,
        *,
        cls: Optional[type] = None,
        post_setup: Optional[Callable[[Any], None]] = None,
        subscriber: Any = None,
    ) -> RunResult:
        """Run this row on ``spec`` — the one place a row becomes a
        :meth:`Scenario.run`.  ``cls`` replaces :attr:`cls` (chaos plants
        a bug in a subclass); ``post_setup`` runs on the built object
        after a gossip row's anti-entropy is started; ``subscriber`` is
        streamed every :class:`OpRecord` live.

        Gossip is budgeted past the last scheduled fault so post-heal
        exchanges still happen.  Open-loop workloads keep issuing for
        ``ops_per_process / rate`` time units regardless of system
        speed, so the budget must also outlast the arrival horizon — the
        10k-op scale scenarios run for hundreds of time units and would
        otherwise stop gossiping mid-traffic."""
        horizon = spec.fault_horizon
        if spec.workload.kind == "open" and spec.workload.rate > 0:
            horizon += spec.workload.ops_per_process / spec.workload.rate
        rounds = int(horizon) + 30

        def setup(obj: Any) -> None:
            if self.gossip:
                obj.start_gossip(rounds=rounds)
            if post_setup is not None:
                post_setup(obj)

        return Scenario(spec).run(
            cls or self.cls, seed=seed, post_setup=setup,
            subscriber=subscriber, **self.kwargs(spec.streams, spec.k),
        )


ALGORITHMS: Dict[str, AlgorithmEntry] = {
    entry.key: entry
    for entry in (
        AlgorithmEntry("cc-fig4", CCWindowArray, "CC", "window"),
        AlgorithmEntry("ccv-fig5", CCvWindowArray, "CCV", "window"),
        AlgorithmEntry("cc-generic", GenericCausal, "CC", "adt"),
        AlgorithmEntry("ccv-generic", GenericCCv, "CCV", "adt"),
        AlgorithmEntry("gossip", GossipCCvWindowArray, "CONV", "window", gossip=True),
        AlgorithmEntry("pram", PramReplication, "PC", "adt"),
        AlgorithmEntry("lww", LwwReplication, "CONV", "adt"),
        AlgorithmEntry(
            "sc-sequencer", ScSequencer, "SC", "adt", needs_reliable=True
        ),
    )
}


#: the scale tier's algorithms, per scenario: a 10k-op scenario runs
#: these unless ``--algorithm`` names others.  The reason is cost, not
#: conclusiveness: every explore cell is monitored, so CC/CCv cells at
#: this size come back conclusive too (the streaming monitor decides
#: them where the search cannot start).  But the monitor's CC side is
#: slow here: on ``scale-n8-hotkey`` (one seed, 2-core Xeon, Python
#: 3.11) a ``cc-fig4`` cell takes ~7.2 s, against ~1.4 s for ``lww``,
#: ~0.5 s for ``gossip``, ~1.4 s for ``ccv-fig5`` and ~2.0 s for
#: ``ccv-generic``.  Widening n8/n12 to every wait-free key waits on
#: that CC side getting cheaper.  The n=32/64 tiers run ``lww`` and
#: ``ccv-fig5``, each write sent once per peer (n-1 copies per
#: broadcast, against the flood's n(n-1)).
SCALE_TIER_ALGORITHMS: Dict[str, Tuple[str, ...]] = {
    "scale-n8-hotkey": ("lww", "gossip"),
    "scale-n12-hotkey": ("lww", "gossip"),
    "scale-n32-hotkey": ("lww", "ccv-fig5"),
    "scale-n64-hotkey": ("lww", "ccv-fig5"),
}


def default_algorithms(scenario: str) -> Tuple[str, ...]:
    """The algorithms ``scenario`` runs unless the caller names others:
    its :data:`SCALE_TIER_ALGORITHMS` row, else every registry row."""
    return SCALE_TIER_ALGORITHMS.get(scenario) or tuple(ALGORITHMS)


# ----------------------------------------------------------------------
# One cell
# ----------------------------------------------------------------------
@dataclass
class MatrixCell:
    """Verdict + stats of one (scenario, algorithm, seed) run."""

    scenario: str
    algorithm: str
    criterion: str
    seed: int
    ok: Optional[bool]  # None = inconclusive (see :func:`decide`)
    expected: bool  # is the criterion expected to hold here?
    wait_free: bool
    available: bool
    blocked: int
    ops: int
    mean_latency: float
    messages_per_op: float
    wall_seconds: float
    note: str = ""
    monitor_violations: int = 0
    #: structured (kind, detail) failure records, as :func:`check_run`
    #: orders them; empty on clean cells
    failures: List[Tuple[str, Any]] = field(default_factory=list)
    #: streaming-monitor verdicts + stats (None when the ADT is outside
    #: the monitor's scope): ``{"criteria": {...}, "stats": {...}}``
    streaming: Optional[Dict[str, Any]] = None
    #: per-run network accounting (sent / delivered / elided), the
    #: message-complexity surface of the relay and of send-time dedup;
    #: on the simulated network ``delivered`` counts first arrivals
    #: only, the later copies it folded into them are in ``elided``
    network: Dict[str, int] = field(default_factory=dict)

    @property
    def failure(self) -> bool:
        return self.expected and self.ok is False


def run_scenario_cell(
    scenario_name: str,
    algorithm: str,
    seed: int,
    fast_ops: int = 0,
    subscriber: Any = None,
) -> RunResult:
    """Run one (scenario, algorithm, seed) cell by name, the scenario
    optionally shrunk to ``fast_ops`` ops per process; ``subscriber``
    is streamed every :class:`OpRecord` live."""
    spec = get_scenario(scenario_name)
    return ALGORITHMS[algorithm].run(
        spec.fast(fast_ops) if fast_ops else spec, seed, subscriber=subscriber
    )


def _monitor_criteria(entry: AlgorithmEntry) -> Tuple[str, ...]:
    """What the streaming monitor checks on this cell: the advertised
    criterion when it is one the monitor supports, plus WCC (free —
    decided by the same co-level patterns).  Cells advertising anything
    else get an *informational* CCv verdict (never folded into the cell
    verdict): SC implies CCv, convergent algorithms aim at it, and PRAM
    legitimately fails it."""
    if entry.criterion == "CC":
        return ("WCC", "CC")
    return ("WCC", "CCV")


@dataclass
class CheckedRun:
    """One registry row run on one spec, judged by :func:`check_run`."""

    result: RunResult
    ok: Optional[bool] = None  # None = inconclusive or not checked
    note: str = ""
    #: structured (kind, detail) failure records — the shape of the
    #: streaming monitor's :meth:`MonitorViolation.as_failure`
    failures: List[Tuple[str, Any]] = field(default_factory=list)
    #: streaming-monitor verdicts + stats (None when unchecked, or the
    #: ADT is outside the monitor's scope): ``{"criteria", "stats"}``
    streaming: Optional[Dict[str, Any]] = None

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def kinds(self) -> List[str]:
        return sorted({kind for kind, _ in self.failures})


def check_run(
    spec: ScenarioSpec,
    entry: AlgorithmEntry,
    seed: int,
    *,
    cls: Optional[type] = None,
    post_setup: Optional[Callable[[Any], None]] = None,
    check: bool = True,
) -> CheckedRun:
    """Run ``entry`` on ``spec`` (see :meth:`AlgorithmEntry.run`) and
    judge the run by the one rule explore and chaos share.

    The failure records, in order: every runtime-monitor violation;
    ``divergence`` when the advertised criterion promises convergence
    (CONV, or one implying EC in Fig. 1: CCv, SC — never CC or PC) and
    the live replicas disagree; with ``check`` on, a non-CONV
    criterion's :func:`decide` failures, the streaming monitor fed live
    and its verdict handed to :func:`decide`.  ``ok`` is False when any
    record exists, else the :func:`decide` verdict (the convergence
    verdict on CONV rows)."""
    adt = Scenario(spec).adt()
    monitor = (
        monitor_for_adt(adt, spec.n, criteria=_monitor_criteria(entry))
        if check else None
    )
    result = entry.run(
        spec, seed, cls=cls, post_setup=post_setup,
        subscriber=monitor.subscriber() if monitor is not None else None,
    )
    run = CheckedRun(result)
    verdicts: Dict[str, Any] = {}
    if monitor is not None:
        verdicts = monitor.finalize()
        run.streaming = {
            "criteria": {
                crit: {
                    "ok": v.ok,
                    "reason": v.reason,
                    "pattern": v.violation.pattern if v.violation else None,
                }
                for crit, v in verdicts.items()
            },
            "stats": monitor.stats(),
        }
    runtime = result.monitor
    if runtime is not None:
        run.failures.extend((v.kind, str(v)) for v in runtime.violations)
    if entry.criterion == "CONV" or "EC" in implied(entry.criterion):
        converged = result.algorithm.converged()
        if entry.criterion == "CONV":
            run.ok = converged
        if not converged:
            run.failures.append(
                ("divergence", "live replicas disagree after the final heal")
            )
    if check and entry.criterion != "CONV":
        verdict = decide(
            result.history, adt, entry.criterion,
            monitor=verdicts.get(entry.criterion), max_nodes=CHECK_BUDGET,
        )
        run.ok, run.note = verdict.ok, verdict.note
        run.failures.extend(verdict.failures)
    if runtime is not None and not runtime.ok:
        run.note = (run.note + "; " if run.note else "") + runtime.summary()
    if run.failures:
        run.ok = False
    return run


def _run_cell(job: Tuple[Any, ...]) -> MatrixCell:
    """Worker entry point: run one cell (picklable in, picklable out).

    ``job`` is ``(scenario, algorithm, seed, fast_ops)``; the run is
    judged by :func:`check_run`, and the cell adds its timing and
    whether the criterion is expected to hold here."""
    scenario_name, algo_key, seed, fast_ops = job
    spec = get_scenario(scenario_name)
    if fast_ops:
        spec = spec.fast(fast_ops)
    entry = ALGORITHMS[algo_key]
    t0 = time.perf_counter()
    run = check_run(spec, entry, seed)
    result, note = run.result, run.note

    # crash-storm embeds its own recovery (every stormed process rejoins)
    has_recovery = any(
        e.action in ("recover", "crash-storm") for e in spec.faults
    )
    has_loss = spec.loss_rate > 0 or any(
        e.action == "loss" and e.rate > 0 for e in spec.faults
    )
    expected = entry.cls.supports_recovery or not has_recovery
    if not expected:
        note = (note + "; " if note else "") + "recovery unsupported"
    if entry.needs_reliable and has_loss:
        expected = False
        note = (note + "; " if note else "") + "lossy channels void assumption"
    blocked = result.blocked
    if blocked:
        note = (note + "; " if note else "") + f"{blocked} ops blocked"

    return MatrixCell(
        scenario=scenario_name,
        algorithm=algo_key,
        criterion=entry.criterion,
        seed=seed,
        ok=run.ok,
        expected=expected,
        wait_free=bool(entry.cls.wait_free),
        available=blocked == 0,
        blocked=blocked,
        ops=result.ops,
        mean_latency=result.mean_latency,
        messages_per_op=result.messages_per_op,
        wall_seconds=time.perf_counter() - t0,
        note=note,
        monitor_violations=(
            0 if result.monitor is None else len(result.monitor.violations)
        ),
        failures=run.failures,
        streaming=run.streaming,
        network={
            "sent": result.network_stats.sent,
            "delivered": result.network_stats.delivered,
            "elided": result.network_stats.elided,
        },
    )


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
@dataclass
class MatrixReport:
    cells: List[MatrixCell] = field(default_factory=list)

    @property
    def failures(self) -> List[MatrixCell]:
        return [cell for cell in self.cells if cell.failure]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def inconclusive(self) -> List[MatrixCell]:
        return [cell for cell in self.cells if cell.ok is None]

    def non_wait_free_flagged(self) -> List[MatrixCell]:
        """Cells where a non-wait-free algorithm showed its colours:
        blocked operations or delay-dependent latency."""
        return [
            cell
            for cell in self.cells
            if not cell.wait_free
            and (cell.blocked > 0 or cell.mean_latency > 0.0)
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "cells": [asdict(cell) for cell in self.cells],
        }


def run_matrix(
    scenarios: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    seeds: int = 2,
    jobs: Optional[int] = None,
    fast: bool = False,
    only: Optional[str] = None,
) -> MatrixReport:
    """Run the scenario × algorithm × seed sweep, in parallel.

    ``scenarios=None`` sweeps the default scenarios.  ``algorithms=None``
    runs each scenario's own :func:`default_algorithms`; a list runs
    those on every scenario.  ``jobs=None`` or ``0`` sizes the pool to
    the host, capped at the cell count; ``jobs=1`` runs serially in this
    process (deterministic debugging, no fork).  Cells come back in the
    (scenario, algorithm, seed) generation order in every mode.  A
    worker that dies raises :class:`BrokenProcessPool` instead of
    leaving the sweep waiting for its cell.

    Every cell is fed live to the streaming bad-pattern monitor: its
    verdicts and stats land in :attr:`MatrixCell.streaming`.

    ``only`` narrows the sweep to cells whose ``scenario/algorithm``
    label contains the substring; a filter matching no cell is an
    error, not an empty green report."""
    scenario_keys = list(scenarios) if scenarios else scenario_names()
    for name in scenario_keys:
        get_scenario(name)  # fail fast on typos
    pairs = [
        (scenario, algo)
        for scenario in scenario_keys
        for algo in (algorithms or default_algorithms(scenario))
    ]
    for _, key in pairs:
        if key not in ALGORITHMS:
            known = ", ".join(ALGORITHMS)
            raise KeyError(f"unknown algorithm {key!r}; known: {known}")

    fast_ops = FAST_OPS if fast else 0
    cells_in = [
        (scenario, algo, seed, fast_ops)
        for scenario, algo in pairs
        for seed in range(seeds)
        if only is None or only in f"{scenario}/{algo}"
    ]
    if only is not None and not cells_in:
        labels = sorted(f"{s}/{a}" for s, a in pairs)
        raise KeyError(
            f"--only {only!r} matches no cell; cells: {', '.join(labels)}"
        )
    jobs = min(jobs or os.cpu_count() or 2, len(cells_in))
    if jobs <= 1:
        return MatrixReport(cells=[_run_cell(job) for job in cells_in])
    # imported here: the suite's simulated workloads import this module
    # for ALGORITHMS alone, and the executor's imports cost ~1 MB RSS
    from concurrent.futures import ProcessPoolExecutor

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ProcessPoolExecutor(jobs, mp_context=context) as pool:
        cells = list(pool.map(_run_cell, cells_in))
    return MatrixReport(cells=cells)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _verdict(cells: List[MatrixCell]) -> str:
    passed = sum(1 for c in cells if c.ok)
    inconclusive = sum(1 for c in cells if c.ok is None)
    total = len(cells)
    if inconclusive:
        return f"?{passed}/{total}"
    if passed == total:
        return f"ok {passed}/{total}"
    if all(not c.expected for c in cells):
        return f"n/a {passed}/{total}"
    return f"FAIL {passed}/{total}"


def _monitor_summary(cells: List[MatrixCell]) -> str:
    """Per-criterion streaming-monitor verdicts, seeds aggregated."""
    verdicts: Dict[str, List[Optional[bool]]] = {}
    for cell in cells:
        if not cell.streaming:
            continue
        for criterion, verdict in cell.streaming["criteria"].items():
            verdicts.setdefault(criterion, []).append(verdict["ok"])
    if not verdicts:
        return "-"
    parts = []
    for criterion, oks in sorted(verdicts.items()):
        if any(ok is False for ok in oks):
            tag = "no"
        elif any(ok is None for ok in oks):
            tag = "?"
        else:
            tag = "ok"
        parts.append(f"{criterion}={tag}")
    return " ".join(parts)


def format_matrix_report(report: MatrixReport) -> str:
    """One row per (scenario, algorithm), seeds aggregated."""
    groups: Dict[Tuple[str, str], List[MatrixCell]] = {}
    for cell in report.cells:
        groups.setdefault((cell.scenario, cell.algorithm), []).append(cell)
    rows = []
    for (scenario, algorithm), cells in groups.items():
        blocked = sum(c.blocked for c in cells)
        latency = sum(c.mean_latency for c in cells) / len(cells)
        messages = sum(c.messages_per_op for c in cells) / len(cells)
        wall = sum(c.wall_seconds for c in cells)
        row = [
            scenario,
            algorithm,
            cells[0].criterion,
            _verdict(cells),
            _monitor_summary(cells),
            "yes" if blocked == 0 else f"no ({blocked} blocked)",
            f"{latency:.2f}",
            f"{messages:.1f}",
            f"{wall:.2f}s",
        ]
        rows.append(row)
    header = [
        "scenario",
        "algorithm",
        "criterion",
        "verdict",
        "monitor",
        "available",
        "latency",
        "msg/op",
        "wall",
    ]
    table = render_table(header, rows)
    lines = [table, ""]
    lines.append(
        f"cells: {len(report.cells)}, failures: {len(report.failures)}, "
        f"inconclusive: {len(report.inconclusive)}"
    )
    flagged = report.non_wait_free_flagged()
    if flagged:
        combos = sorted({(c.scenario, c.algorithm) for c in flagged})
        lines.append(
            "non-wait-free behaviour flagged (blocked ops or delay-bound "
            "latency): "
            + ", ".join(f"{a} on {s}" for s, a in combos)
        )
    return "\n".join(lines)
