"""``sim_faults``: the simulated plane under four fault profiles.

Four n=8 cells of 4000 client operations each run ``ccv-fig5`` through
``Scenario(spec).run`` — the same ``runtime.broadcast`` + ``algorithms``
layers as the live plane, with no wire codec, no asyncio and no tap:

- ``lossdup``    5% loss + 5% duplication, then heal and repair sweeps
- ``reorder``    per-link delays and a 60-unit reorder burst
- ``partition``  a 4|4 split healed at t=120
- ``crash``      one process crashes, recovers and is repaired

Loopback without proxies almost never reorders, so this is where the
causal buffer, dedup, stability GC and resync actually work.  The cell
list is repeated for several passes; a ``subscriber`` closes a slice at
every recorded operation and each slice's best pass is kept (the runs
are bit-identical per seed, so the passes differ only by host noise).
Specs and scripts are generated here from the seed, hashed, and handed
over as explicit ``scripts=``.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.operations import Invocation
from repro.scenarios.matrix import ALGORITHMS
from repro.scenarios.scenario import RunResult, Scenario
from repro.scenarios.spec import DelaySpec, FaultEvent, ScenarioSpec, WorkloadSpec

from . import harness

N = 8
STREAMS = 4
K = 2
OPS_PER_PROCESS = 500
ALGORITHM = "ccv-fig5"
#: recorded operations per slice of a traced pass (~15 ms)
TRACED_SLICE_OPS = 100

#: what a traced run reports
LAYER_METRICS = (
    "broadcast.send_us_per_op",
    "broadcast.receive_us_per_op",
    "broadcast.receives_per_op",
    "broadcast.duplicate_share",
    "broadcast.pending_peak",
    "broadcast.retained_log_max",
    "broadcast.resync_attempts",
    "algorithms.invoke_us_per_op",
    "algorithms.apply_us_per_op",
    "algorithms.applies_per_op",
    "recorder.record_us_per_op",
    "monitors.check_us_per_op",
    "simulator.events_per_op",
    "simulator.run_us_per_event",
    "network.send_us_per_op",
    "network.msgs_per_op",
    "network.lost_share",
    "network.dup_share",
    "network.reordered_share",
    "loop.residual_us_per_op",
    "trace.coverage_share",
    "trace.overhead_share",
)


def _repairs(start: float) -> Tuple[FaultEvent, ...]:
    """n-1 spaced ring sweeps: full dissemination after a lossy phase."""
    return tuple(FaultEvent.repair(start + 10.0 * i) for i in range(N - 1))


def make_inputs(seed: int) -> Dict[str, Any]:
    """Four scenario specs (as JSON dicts), one script set and the
    simulator seed."""
    workload = WorkloadSpec(
        kind="closed", ops_per_process=OPS_PER_PROCESS, write_ratio=0.5, think=(0.1, 1.0)
    )
    F = FaultEvent
    faults = {
        "lossdup": (
            F.loss(0.0, 0.05),
            F.duplicate(0.0, 0.05),
            F.loss(200.0, 0.0),
            F.duplicate(200.0, 0.0),
        )
        + _repairs(300.0),
        "reorder": (F.reorder(50.0, 60.0),),
        "partition": (F.partition(40.0, range(N // 2), range(N // 2, N)), F.heal(120.0)),
        "crash": (F.crash(60.0, N - 1), F.recover(140.0, N - 1)) + _repairs(320.0),
    }
    delays = {"reorder": DelaySpec("per-link", (0.5, 3.0, 0.2))}
    specs = [
        ScenarioSpec(
            name,
            n=N,
            streams=STREAMS,
            k=K,
            delay=delays.get(name, DelaySpec()),
            faults=events,
            workload=workload,
        ).to_dict()
        for name, events in faults.items()
    ]
    rng = random.Random(f"sim_faults:{seed}")
    scripts = []
    for pid in range(N):
        row: List[List[Any]] = []
        for i in range(OPS_PER_PROCESS):
            x = rng.randrange(STREAMS)
            if rng.random() < workload.write_ratio:
                row.append(["w", x, pid * 1_000_000 + i + 1])
            else:
                row.append(["r", x])
        scripts.append(row)
    return {"workload": "sim_faults", "seed": seed, "specs": specs, "scripts": scripts}


def _fingerprint(result: RunResult) -> str:
    digest = hashlib.sha256()
    for row in result.recorder.rows:
        for rec in row:
            digest.update(
                repr((rec.pid, rec.invocation.method, rec.invocation.args, rec.output)).encode()
            )
    return digest.hexdigest()


class _SliceClock(harness.PassClock):
    """A ``Scenario.run`` subscriber that closes a slice every ``every``
    recorded operations.  Runs are bit-identical per seed, so slice
    ``i`` is the same work on every pass.

    Untraced passes close one at every operation: a slice is everything
    the simulator did between two completions (~85 us).  Slices this
    short put the 99th percentile in the smooth part of the cost
    distribution, 160 slices below the top; with 100-operation slices
    it sat among the recovery bursts, whose number changes with the
    seed.  Traced passes only need whole-pass CPU at the reference
    speed, and the subscriber runs inside ``recorder.record``'s span,
    so they close one every :data:`TRACED_SLICE_OPS` instead."""

    def __init__(self, calibration: harness.Calibration, every: int) -> None:
        super().__init__(calibration)
        self._every = every
        self._seen = 0

    def __call__(self, _record: Any) -> None:
        self._seen += 1
        if self._seen == self._every:
            self.end_slice()

    def end_slice(self) -> None:
        """Also called at the end of a cell, for its tail: the last few
        operations, quiescence and the history build."""
        self.mark(self._seen)
        self._seen = 0


def _one_pass(
    specs: List[ScenarioSpec],
    scripts: List[List[Invocation]],
    seed: int,
    calibration: harness.Calibration,
    post_setup: Optional[Callable[[Any], None]] = None,
) -> Tuple[_SliceClock, List[RunResult]]:
    """The four cells; ``post_setup`` is given by traced passes only."""
    algorithm = ALGORITHMS[ALGORITHM].cls
    clock = _SliceClock(calibration, 1 if post_setup is None else TRACED_SLICE_OPS)
    results: List[RunResult] = []
    for spec in specs:
        results.append(
            Scenario(spec).run(
                algorithm, seed=seed, scripts=scripts, post_setup=post_setup,
                subscriber=clock, streams=STREAMS, k=K,
            )
        )
        clock.end_slice()
    return clock, results


class _Gate:
    """Runtime monitor clean, every issued op completed, and the history
    fingerprint of each cell identical on every pass."""

    def __init__(self) -> None:
        self.fingerprints: Optional[List[str]] = None
        self.checks: Dict[str, Any] = {
            "monitors_ok": True,
            "blocked_ops": 0,
            "fingerprints_stable": True,
        }
        self.attempted = 0
        self.failed = 0

    def add_pass(self, results: List[RunResult]) -> None:
        prints = [_fingerprint(r) for r in results]
        if self.fingerprints is None:
            self.fingerprints = prints
        elif prints != self.fingerprints:
            self.checks["fingerprints_stable"] = False
        for result in results:
            self.attempted += result.issued
            self.failed += result.blocked
            self.checks["blocked_ops"] += result.blocked
            if result.monitor is None or not result.monitor.ok:
                self.checks["monitors_ok"] = False

    def finish(self) -> Dict[str, Any]:
        checks = self.checks
        checks["correct"] = bool(
            checks["monitors_ok"]
            and checks["blocked_ops"] == 0
            and checks["fingerprints_stable"]
        )
        return checks


def _layer_metrics(
    tracer: Any, results: List[RunResult], ops: int, cpu_s: float
) -> Dict[str, float]:
    from . import trace

    metrics = trace.ledger(tracer, ops, cpu_s)
    count = tracer.count
    counters = tracer.counters
    events = sum(r.sim.events_executed for r in results)
    stats = [r.network_stats for r in results]
    sent = sum(s.sent for s in stats)
    receives = count["broadcast.receive"]
    delivered = sum(r.algorithm.broadcast.delivered_count for r in results)
    fresh = delivered - count["broadcast.send"]
    metrics["simulator.run_us_per_event"] = (
        metrics.pop("simulator.run_us_per_op") * ops / events
    )
    metrics.update(
        {
            "simulator.events_per_op": events / ops,
            "network.msgs_per_op": sent / ops,
            "network.lost_share": sum(s.lost for s in stats) / sent,
            "network.dup_share": sum(s.duplicated for s in stats) / sent,
            "network.reordered_share": sum(s.reordered for s in stats) / sent,
            "broadcast.receives_per_op": receives / ops,
            "broadcast.duplicate_share": 1.0 - fresh / max(1, receives),
            "broadcast.pending_peak": counters["broadcast.pending_peak"],
            "broadcast.retained_log_max": counters["broadcast.retained_log_max"],
            "broadcast.resync_attempts": sum(
                r.algorithm.broadcast.resync_attempts for r in results
            ),
            "algorithms.applies_per_op": count["algorithms.apply"] / ops,
        }
    )
    return metrics


def _build(seed: int) -> Dict[str, Any]:
    """Spec and script build: the workload's set-up."""
    inputs = make_inputs(seed)
    return {
        "sha": harness.input_sha256(inputs),
        "specs": [ScenarioSpec.from_dict(d) for d in inputs["specs"]],
        "scripts": [
            [Invocation(op[0], tuple(op[1:])) for op in row] for row in inputs["scripts"]
        ],
    }


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    calibration = harness.Calibration()
    gate = _Gate()

    def one_pass(built: Dict[str, Any]) -> harness.PassClock:
        clock, results = _one_pass(built["specs"], built["scripts"], seed, calibration)
        gate.add_pass(results)
        return clock

    # a traced run spends its first third untraced, as the reference the
    # tracing overhead is measured against
    setups, clocks, built, rss_mb = harness.run_passes(
        seconds / 3.0 if traced else seconds, calibration, lambda: _build(seed), one_pass
    )
    pass_ops = N * OPS_PER_PROCESS * len(built["specs"])
    result: Dict[str, Any] = {"input_sha256": built["sha"]}

    if not traced:
        summary = harness.summarise_passes(pass_ops, clocks)
        metrics = summary["metrics"]
        metrics["peak_rss_mb"] = rss_mb
        metrics["setup_s"] = statistics.median(setups)
        result["metrics"] = metrics
        result["detail"] = dict(summary["detail"], setup_s=harness.spread(setups))
    else:
        from . import trace

        tracer = trace.Tracer()
        installed = trace.Installed(tracer)

        def wrap_run(algorithm: Any) -> None:
            installed.wrap_broadcast(algorithm.network.handlers, algorithm.broadcast)

        installed.patch_layers()
        try:
            deadline = time.perf_counter() + seconds * 2.0 / 3.0
            traced_results: List[RunResult] = []
            traced_clocks: List[harness.PassClock] = []
            while not traced_clocks or time.perf_counter() < deadline:
                clock, results = _one_pass(
                    built["specs"], built["scripts"], seed, calibration, wrap_run
                )
                traced_clocks.append(clock)
                traced_results.extend(results)
        finally:
            installed.remove()
        cells = len(built["specs"])
        for i in range(0, len(traced_results), cells):
            gate.add_pass(traced_results[i : i + cells])
        ops = pass_ops * len(traced_clocks)
        # the slices' own CPU: marking them and reading the reference
        # loop happen between slices, off this clock
        cpu_s = sum(sum(clock.cpu) for clock in traced_clocks)
        metrics = _layer_metrics(tracer, traced_results, ops, cpu_s)
        untraced_cpu = harness.pass_cpu_us_per_op(pass_ops, clocks)
        traced_cpu = harness.pass_cpu_us_per_op(pass_ops, traced_clocks)
        metrics["trace.overhead_share"] = 1.0 - untraced_cpu / traced_cpu
        result["metrics"] = harness.expect_names(metrics, LAYER_METRICS)
        result["detail"] = {
            "untraced_cpu_us_per_op": untraced_cpu,
            "traced_cpu_us_per_op": traced_cpu,
            "untraced_passes": len(clocks),
            "traced_passes": len(traced_clocks),
            "spans": tracer.table(),
        }
        result["raw_spans"] = tracer.raw_spans()

    result["checks"] = gate.finish()
    result["correct"] = result["checks"]["correct"]
    result["attempted"] = gate.attempted
    result["failed"] = gate.failed
    return result
