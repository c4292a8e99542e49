"""Throughput benchmark for the simulation plane (Sec. 6.1 runtime).

The checker-side benchmarks (``bench_search_scaling.py``) track the CCv
search; this one tracks the *history generator*: simulator, network and
broadcast stack.  It runs a fixed sweep of seeded scenario cells straight
through :class:`repro.scenarios.scenario.Scenario` (no criteria checking,
so the numbers isolate the runtime), measuring simulated operations and
simulator events per wall-clock second, plus the broadcast layer's
retained-log footprint (the causal-stability GC metric), and finally the
fast-mode explore matrix wall (runtime + checkers end to end)::

    PYTHONPATH=src python benchmarks/bench_runtime.py                   # full sweep
    PYTHONPATH=src python benchmarks/bench_runtime.py --smoke           # CI guard
    PYTHONPATH=src python benchmarks/bench_runtime.py \
        --baseline BENCH_runtime.json                                   # compare
    PYTHONPATH=src python benchmarks/bench_runtime.py --scale           # + 10k-op cells

Every cell's recorded history is fingerprinted (sha256 over the per
process rows including invocation/response times), and the explore
verdict vector is part of the JSON, so ``--baseline`` proves that a
runtime optimisation changed *nothing observable*: fingerprints and
verdicts must be bit-identical (exit 1 otherwise), only the ops/s may
move.  ``--scale`` adds the registry's 10k-op scale-up scenarios
(``scale-n8-hotkey``, ``scale-n12-hotkey``) — sized for the indexed
runtime; the pre-PR 5 runtime is not expected to finish them in
reasonable time, so they are kept out of the default sweep.

``--fanout`` is a *standalone* A/B mode (it replaces the sweep): the
eager flood (``ccv-fig5``) against the push/lazy-push transport
(``ccv-lazy``) on the same dense hot-key workload at n ∈ {8, 16, 32, 64}
(``--smoke``: {8, 32}), recording messages/broadcast, messages/op,
bytes/op and ops/s per family plus the per-n reduction factors.  Each
pair is checked for identical per-replica delivered-id sets, within-run
convergence and clean runtime monitors; ``--min-reduction`` (default 4)
gates the message reduction at every n ≥ 32, and ``--baseline`` compares
against a committed fanout report (message counts and delivered digests
are deterministic, so any drift is exit 1 — the CI ``fanout-smoke``
guard).  ``--only SUBSTR`` narrows either mode to cells whose name
contains ``SUBSTR`` (skipping the explore matrix and baseline compare,
which need the full cell set).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pathlib
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

_HERE = pathlib.Path(__file__).resolve().parent
_ROOT = _HERE.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.scenarios.matrix import ALGORITHMS, run_matrix  # noqa: E402
from repro.scenarios.scenario import RunResult, Scenario  # noqa: E402
from repro.scenarios.spec import (  # noqa: E402
    DelaySpec,
    FaultEvent,
    ScenarioSpec,
    WorkloadSpec,
)

F = FaultEvent


def _open(n: int, ops: int, rate: float = 3.0, **kw: Any) -> WorkloadSpec:
    return WorkloadSpec(
        kind="open",
        ops_per_process=ops,
        rate=rate,
        write_ratio=kw.pop("write_ratio", 0.5),
        hot_key_weight=kw.pop("hot_key_weight", 0.8),
        **kw,
    )


def _sweep(smoke: bool) -> List[Tuple[ScenarioSpec, str]]:
    """The benchmark cells: (spec, algorithm key).

    Sized so the pre-rewrite runtime still finishes the whole sweep in a
    couple of minutes — the scale-up registry scenarios, which it cannot,
    are behind ``--scale``.
    """
    s = 0.2 if smoke else 1.0

    def ops(full: int) -> int:
        return max(20, int(full * s))

    cells = [
        (
            ScenarioSpec(
                name="open-n4-hotkey", n=4, streams=4,
                workload=_open(4, ops(600)),
            ),
            "ccv-fig5",
        ),
        (
            ScenarioSpec(
                name="open-n8-hotkey", n=8, streams=4,
                workload=_open(8, ops(300)),
            ),
            "ccv-fig5",
        ),
        (
            ScenarioSpec(
                name="open-n12-hotkey", n=12, streams=4,
                workload=_open(12, ops(150)),
            ),
            "ccv-fig5",
        ),
        (
            # a long two-by-two split with traffic piling up on both
            # sides: the held-message flush at heal is the causal
            # buffering stress test (the old drain rescan is quadratic
            # exactly here)
            ScenarioSpec(
                name="partition-n8", n=8, streams=4,
                faults=(
                    F.partition(2.0, (0, 1, 2, 3), (4, 5, 6, 7)),
                    F.heal(240.0 * s),
                ),
                workload=_open(8, ops(800), rate=3.0, write_ratio=0.6),
            ),
            "ccv-fig5",
        ),
        (
            # the same stress at n=12: the pre-rewrite drain degrades
            # quadratically with the held backlog, the indexed one stays
            # linear — this is the gap that only widens at 10x scale
            ScenarioSpec(
                name="partition-n12", n=12, streams=4,
                faults=(
                    F.partition(10.0, (0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11)),
                    F.heal(160.0 * s),
                ),
                workload=_open(12, ops(550), rate=3.0, write_ratio=0.6),
            ),
            "ccv-fig5",
        ),
        (
            # stable fast/slow paths: constant reordering pressure keeps
            # the causal pending queues populated for the whole run
            ScenarioSpec(
                name="perlink-n8", n=8, streams=4,
                delay=DelaySpec("per-link", (2.0, 12.0, 0.2)),
                workload=_open(8, ops(250), rate=2.0),
            ),
            "ccv-fig5",
        ),
        (
            ScenarioSpec(
                name="fifo-n8", n=8, streams=4,
                workload=_open(8, ops(250)),
            ),
            "pram",
        ),
        (
            ScenarioSpec(
                name="reliable-n8", n=8, streams=4,
                workload=_open(8, ops(600)),
            ),
            "lww",
        ),
        (
            # the memory cell: a 10k-op run whose retained-log footprint
            # the causal-stability GC must keep bounded
            ScenarioSpec(
                name="stability-n4-10k", n=4, streams=4,
                workload=_open(4, ops(2500)),
            ),
            "ccv-fig5",
        ),
    ]
    return cells


#: smoke-mode explore slice: two contrasting scenarios, every algorithm
SMOKE_EXPLORE = ("partition-during-writes", "open-loop-overload")

#: the scale-up registry scenarios (post-PR 5 runtime required)
SCALE_SCENARIOS = ("scale-n8-hotkey", "scale-n12-hotkey")
#: mirrors repro.scenarios.matrix.SCALE_ALGORITHMS (kept local so the
#: benchmark also runs against pre-PR 5 checkouts for baseline recording)
SCALE_ALGORITHMS = ("lww", "gossip")


def history_fingerprint(result: RunResult) -> str:
    """sha256 over the recorded rows, times included — the bit-identity
    witness for the runtime rewrite."""
    h = hashlib.sha256()
    for pid, row in enumerate(result.recorder.rows):
        for rec in row:
            h.update(
                (
                    f"{pid}|{rec.invocation.method}|{rec.invocation.args!r}|"
                    f"{rec.output!r}|{rec.start!r}|{rec.end!r}\n"
                ).encode()
            )
    return h.hexdigest()


def log_footprint(algorithm: Any) -> Tuple[int, int]:
    """(max, total) retained anti-entropy log entries across replicas."""
    service = getattr(algorithm, "broadcast", None)
    logs = getattr(service, "_log", None)
    if not logs:
        return 0, 0
    sizes = [len(log) for log in logs]
    return max(sizes), sum(sizes)


def run_cell(
    spec: ScenarioSpec, algo_key: str, seed: int, repeats: int = 1
) -> Dict[str, Any]:
    entry = ALGORITHMS[algo_key]
    wall = math.inf
    for _ in range(max(1, repeats)):  # best-of: the run is deterministic,
        t0 = time.perf_counter()      # only the wall clock is noisy
        result = Scenario(spec).run(
            entry.cls, seed=seed, max_events=50_000_000,
            **entry.kwargs(spec.streams, spec.k),
        )
        wall = min(wall, time.perf_counter() - t0)
    events = result.sim.events_executed
    log_max, log_total = log_footprint(result.algorithm)
    return {
        "name": spec.name,
        "algorithm": algo_key,
        "seed": seed,
        "n": spec.n,
        "ops": result.ops,
        "events": events,
        "messages_sent": result.network_stats.sent,
        "sim_duration": result.duration,
        "wall": wall,
        "ops_per_sec": result.ops / wall if wall else 0.0,
        "events_per_sec": events / wall if wall else 0.0,
        "log_max": log_max,
        "log_total": log_total,
        "fingerprint": history_fingerprint(result),
    }


def run_explore(smoke: bool, seeds: int) -> Dict[str, Any]:
    """The fast-mode explore matrix at jobs=1: end-to-end wall (runtime +
    checkers) plus the verdict vector for drift detection."""
    scenarios = list(SMOKE_EXPLORE) if smoke else None
    t0 = time.perf_counter()
    report = run_matrix(scenarios=scenarios, seeds=seeds, jobs=1, fast=True)
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "cells": len(report.cells),
        "verdicts": [
            [c.scenario, c.algorithm, c.seed, c.ok, c.expected]
            for c in report.cells
        ],
    }


def run_scale_explore(smoke: bool) -> Dict[str, Any]:
    """The scale-up tier end to end through the matrix runner: the 10k-op
    scenarios with the convergence-checkable algorithms.  Unlike the
    fast-mode matrix above, these cells are *runtime-bound* (their CONV
    verdict is a state comparison), so this wall is the one the runtime
    rewrite moves.  Verdicts are recorded but compared informationally:
    PR 5 deliberately extends the gossip round budget past the open-loop
    arrival horizon, which turns the pre-PR gossip divergence on these
    scenarios (anti-entropy used to stop mid-traffic) into convergence."""
    t0 = time.perf_counter()
    report = run_matrix(
        scenarios=list(SCALE_SCENARIOS),
        algorithms=list(SCALE_ALGORITHMS),
        seeds=1,
        jobs=1,
        fast=smoke,
    )
    return {
        "wall": time.perf_counter() - t0,
        "cells": len(report.cells),
        "verdicts": [
            [c.scenario, c.algorithm, c.seed, c.ok, c.expected]
            for c in report.cells
        ],
        "conclusive": all(c.ok is not None for c in report.cells),
        "all_ok": all(c.ok is True for c in report.cells),
    }


def run_scale(seeds: int) -> Dict[str, Any]:
    """--scale: raw throughput cells of the 10k-op scenarios under the
    causal algorithm — the volume the pre-PR 5 runtime cannot finish in
    reasonable time, hence outside the default (baseline-comparable)
    sweep."""
    from repro.scenarios.registry import get_scenario

    cells = []
    for name in SCALE_SCENARIOS:
        spec = get_scenario(name)
        for seed in range(seeds):
            cells.append(run_cell(spec, "ccv-fig5", seed))
    return {"cells": cells}


# ----------------------------------------------------------------------
# --fanout: eager flood vs push/lazy-push A/B (PR 8)
# ----------------------------------------------------------------------
FANOUT_SIZES = (8, 16, 32, 64)
FANOUT_SIZES_SMOKE = (8, 32)
FANOUT_EAGER = "ccv-fig5"
FANOUT_LAZY = "ccv-lazy"
#: total operations per fanout cell, split across the n replicas — kept
#: constant across sizes so the broadcast count (and thus the per-
#: broadcast message ratio) is comparable between rows
FANOUT_OPS_TOTAL = 1280


def _fanout_spec(n: int) -> ScenarioSpec:
    # dense arrivals (rate 8): advertisement batches fill before the
    # flush timer fires, which is the traffic regime the lazy transport
    # is built for (sparse traffic degrades toward one adv per id)
    return ScenarioSpec(
        name=f"fanout-n{n}", n=n, streams=4,
        workload=_open(n, max(10, FANOUT_OPS_TOTAL // n), rate=8.0),
    )


def _delivered_sets(service: Any) -> List[frozenset]:
    """Per-replica set of seen message ids."""
    return [frozenset(service.seen_ids(pid)) for pid in range(service.n)]


def run_fanout_cell(
    spec: ScenarioSpec, algo_key: str, seed: int, repeats: int = 1
) -> Dict[str, Any]:
    entry = ALGORITHMS[algo_key]

    def post_setup(algorithm: Any) -> None:
        algorithm.broadcast.network.measure_bytes = True

    wall = math.inf
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = Scenario(spec).run(
            entry.cls, seed=seed, max_events=50_000_000,
            post_setup=post_setup, **entry.kwargs(spec.streams, spec.k),
        )
        wall = min(wall, time.perf_counter() - t0)
    service = result.algorithm.broadcast
    stats = result.network_stats
    broadcasts = service.broadcasts_issued()
    delivered = _delivered_sets(service)
    complete = all(len(mids) == broadcasts for mids in delivered)
    digest = hashlib.sha256(
        repr([sorted(mids) for mids in delivered]).encode()
    ).hexdigest()
    pending = (
        sum(service.pending_messages(pid) for pid in range(spec.n))
        if hasattr(service, "pending_messages")
        else 0
    )
    missing = (
        sum(service.missing_count(pid) for pid in range(spec.n))
        if hasattr(service, "missing_count")
        else 0
    )
    converged = result.algorithm.converged()
    ops = result.ops
    return {
        "name": spec.name,
        "algorithm": algo_key,
        "seed": seed,
        "n": spec.n,
        "ops": ops,
        "broadcasts": broadcasts,
        "messages_sent": stats.sent,
        "payload_bytes": stats.payload_bytes,
        "suppressed_relays": stats.suppressed_relays,
        "pulled": stats.pulled,
        "msgs_per_broadcast": round(stats.sent / broadcasts, 1)
        if broadcasts else 0.0,
        "msgs_per_op": round(stats.sent / ops, 1) if ops else 0.0,
        "bytes_per_op": round(stats.payload_bytes / ops, 1) if ops else 0.0,
        "wall": wall,
        "ops_per_sec": ops / wall if wall else 0.0,
        "delivered_complete": complete,
        "delivered_digest": digest,
        "pending": pending,
        "missing": missing,
        "converged": converged,
        "monitor_violations": [
            str(v) for v in result.monitor.violations
        ] if result.monitor is not None else [],
    }


def run_fanout(
    sizes: List[int], seed: int, repeats: int, min_reduction: float
) -> Tuple[Dict[str, Any], int]:
    """The A/B: one eager + one lazy run per n, paired and gated.

    Returns the report fragment and the number of failed gates (delivery
    or convergence defects, monitor violations, or a message reduction
    below ``min_reduction`` at n >= 32)."""
    cells: List[Dict[str, Any]] = []
    pairs: List[Dict[str, Any]] = []
    failures = 0
    for n in sizes:
        spec = _fanout_spec(n)
        eager = run_fanout_cell(spec, FANOUT_EAGER, seed, repeats)
        lazy = run_fanout_cell(spec, FANOUT_LAZY, seed, repeats)
        for cell in (eager, lazy):
            cells.append(cell)
            print(
                f"{cell['name']:>12s} {cell['algorithm']:>9s} "
                f"msgs/bcast={cell['msgs_per_broadcast']:>7.1f} "
                f"msgs/op={cell['msgs_per_op']:>6.1f} "
                f"bytes/op={cell['bytes_per_op']:>8.1f} "
                f"ops/s={cell['ops_per_sec']:>8.0f} "
                f"pulled={cell['pulled']}",
                file=sys.stderr,
            )
        reduction = (
            eager["msgs_per_broadcast"] / lazy["msgs_per_broadcast"]
            if lazy["msgs_per_broadcast"]
            else 0.0
        )
        bytes_reduction = (
            eager["payload_bytes"] / lazy["payload_bytes"]
            if lazy["payload_bytes"]
            else 0.0
        )
        clean = all(
            cell["delivered_complete"]
            and cell["converged"]
            and not cell["monitor_violations"]
            and cell["pending"] == 0
            and cell["missing"] == 0
            for cell in (eager, lazy)
        ) and eager["delivered_digest"] == lazy["delivered_digest"]
        # the headline gate lives at n >= 32 — the tier the lazy family
        # exists for; smaller n report reduction informationally
        gated = n >= 32
        ok = clean and (not gated or reduction >= min_reduction)
        if not ok:
            failures += 1
        pairs.append(
            {
                "n": n,
                "msgs_reduction": round(reduction, 2),
                "bytes_reduction": round(bytes_reduction, 2),
                "delivered_equal": eager["delivered_digest"]
                == lazy["delivered_digest"],
                "clean": clean,
                "gated": gated,
                "ok": ok,
            }
        )
        print(
            f"{spec.name:>12s} reduction: msgs {reduction:.2f}x, "
            f"bytes {bytes_reduction:.2f}x, clean={clean}, ok={ok}",
            file=sys.stderr,
        )
    return {"cells": cells, "pairs": pairs}, failures


def compare_fanout_baseline(
    report: Dict[str, Any], baseline: Dict[str, Any]
) -> int:
    """Fanout runs are deterministic: message counts, delivered digests
    and pair verdicts must match the committed baseline exactly."""
    mismatches = 0
    base_cells = {
        (c["name"], c["algorithm"], c["seed"]): c
        for c in baseline.get("cells", [])
    }
    matched = set()
    for cell in report["cells"]:
        key = (cell["name"], cell["algorithm"], cell["seed"])
        base = base_cells.get(key)
        if base is None:
            mismatches += 1
            print(f"FANOUT CELL MISSING FROM BASELINE: {key}", file=sys.stderr)
            continue
        matched.add(key)
        for field_name in (
            "messages_sent", "broadcasts", "payload_bytes",
            "delivered_digest",
        ):
            if cell[field_name] != base[field_name]:
                mismatches += 1
                print(
                    f"FANOUT DRIFT in {key}: {field_name} "
                    f"{base[field_name]!r} -> {cell[field_name]!r}",
                    file=sys.stderr,
                )
    for key in base_cells:
        if key not in matched:
            mismatches += 1
            print(f"FANOUT BASELINE CELL NOT RUN: {key}", file=sys.stderr)
    base_pairs = {p["n"]: p for p in baseline.get("pairs", [])}
    for pair in report["pairs"]:
        base = base_pairs.get(pair["n"])
        if base is not None and pair["ok"] != base["ok"]:
            mismatches += 1
            print(
                f"FANOUT PAIR VERDICT CHANGED at n={pair['n']}: "
                f"{base['ok']} -> {pair['ok']}",
                file=sys.stderr,
            )
    return mismatches


# ----------------------------------------------------------------------
def _geomean(values: List[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def compare_to_baseline(
    report: Dict[str, Any], baseline: Dict[str, Any]
) -> Tuple[Dict[str, Any], int]:
    """Fingerprints and explore verdicts must match; speed may move."""
    base_cells = {
        (c["name"], c["algorithm"], c["seed"]): c
        for c in baseline.get("cells", [])
    }
    mismatches = 0
    speedups: List[float] = []
    rows: List[Dict[str, Any]] = []
    matched = set()
    for cell in report["cells"]:
        key = (cell["name"], cell["algorithm"], cell["seed"])
        base = base_cells.get(key)
        if base is None:
            # a cell the baseline has never seen cannot be drift-checked:
            # treat it as a mismatch so a renamed/added cell can't let
            # the guard pass vacuously
            mismatches += 1
            print(f"CELL MISSING FROM BASELINE: {key}", file=sys.stderr)
            continue
        matched.add(key)
        drift = cell["fingerprint"] != base["fingerprint"]
        if drift:
            mismatches += 1
            print(f"HISTORY DRIFT in {key}", file=sys.stderr)
        speedup = (
            cell["ops_per_sec"] / base["ops_per_sec"]
            if base["ops_per_sec"]
            else 0.0
        )
        speedups.append(speedup)
        rows.append(
            {"cell": list(key), "speedup": round(speedup, 2), "drift": drift}
        )
    for key in base_cells:
        if key not in matched:
            mismatches += 1
            print(f"BASELINE CELL NOT RUN: {key}", file=sys.stderr)
    base_verdicts = baseline.get("explore", {}).get("verdicts")
    verdict_drift = (
        base_verdicts is not None
        and base_verdicts != report["explore"]["verdicts"]
    )
    if verdict_drift:
        mismatches += 1
        print("EXPLORE VERDICTS CHANGED vs baseline", file=sys.stderr)
    base_scale = baseline.get("explore_scale", {})
    scale_wall_speedup = 0.0
    if base_scale.get("wall") and report["explore_scale"]["wall"]:
        scale_wall_speedup = round(
            base_scale["wall"] / report["explore_scale"]["wall"], 2
        )
    # informational only: the gossip round-budget fix deliberately flips
    # the pre-PR gossip divergence on the scale tier into convergence
    scale_verdict_changes = [
        [new, old]
        for new, old in zip(
            report["explore_scale"]["verdicts"],
            base_scale.get("verdicts", report["explore_scale"]["verdicts"]),
        )
        if new != old
    ]
    base_totals = baseline.get("totals", {})
    sweep_speedup = 0.0
    if base_totals.get("sweep_ops_per_sec"):
        sweep_speedup = round(
            report["totals"]["sweep_ops_per_sec"]
            / base_totals["sweep_ops_per_sec"],
            2,
        )
    comparison = {
        "cells": rows,
        "sweep_ops_per_sec_speedup": sweep_speedup,
        "ops_per_sec_speedup_geomean": round(_geomean(speedups), 2),
        "explore_wall_speedup": round(
            baseline.get("explore", {}).get("wall", 0.0)
            / report["explore"]["wall"],
            2,
        )
        if report["explore"]["wall"]
        else 0.0,
        "scale_explore_wall_speedup": scale_wall_speedup,
        "scale_verdict_changes": scale_verdict_changes,
        "verdict_drift": verdict_drift,
    }
    return comparison, mismatches


# ----------------------------------------------------------------------
def main_fanout(args: argparse.Namespace) -> int:
    """The --fanout entry point: the eager-vs-lazy A/B, gated and
    optionally compared to a committed baseline (exit 1 on any gate or
    drift failure, exit 2 on a wall-cap breach)."""
    t_start = time.perf_counter()
    sizes = list(FANOUT_SIZES_SMOKE if args.smoke else FANOUT_SIZES)
    if args.only:
        sizes = [n for n in sizes if args.only in f"fanout-n{n}"]
        if not sizes:
            print(
                f"--only {args.only!r} matches no fanout cell",
                file=sys.stderr,
            )
            return 1
    fanout, failures = run_fanout(
        sizes,
        seed=0,
        repeats=1 if args.smoke else args.repeats,
        min_reduction=args.min_reduction,
    )
    report: Dict[str, Any] = {
        "benchmark": "runtime-fanout",
        "smoke": args.smoke,
        "min_reduction": args.min_reduction,
        "python": platform.python_version(),
        "cells": fanout["cells"],
        "pairs": fanout["pairs"],
        "totals": {
            "wall": time.perf_counter() - t_start,
            "gate_failures": failures,
        },
    }
    exit_code = 1 if failures else 0
    if args.baseline and not args.only:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        mismatches = compare_fanout_baseline(report, baseline)
        report["baseline_mismatches"] = mismatches
        if mismatches:
            exit_code = 1
    elif args.baseline:
        print(
            f"--only {args.only!r}: skipping baseline comparison",
            file=sys.stderr,
        )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(
        f"fanout total wall {report['totals']['wall']:.1f}s, "
        f"gate failures {failures}, report -> {args.out}",
        file=sys.stderr,
    )
    if (
        args.max_seconds is not None
        and report["totals"]["wall"] > args.max_seconds
    ):
        print(
            f"WALL-TIME REGRESSION: {report['totals']['wall']:.1f}s "
            f"> {args.max_seconds}s",
            file=sys.stderr,
        )
        exit_code = 2
    return exit_code


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrunk sweep + two-scenario explore slice (CI guard)",
    )
    parser.add_argument("--seeds", type=int, default=2, help="seeds per cell")
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="wall-time measurements per cell (best-of; runs are "
        "deterministic, so only the clock is noisy)",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="also run the 10k-op scale-up registry scenarios",
    )
    parser.add_argument(
        "--fanout", action="store_true",
        help="standalone eager-vs-lazy broadcast A/B (replaces the sweep)",
    )
    parser.add_argument(
        "--min-reduction", type=float, default=4.0,
        help="fanout gate: required eager/lazy message reduction at "
        "every n >= 32",
    )
    parser.add_argument(
        "--only", default=None, metavar="SUBSTR",
        help="run only cells whose name contains SUBSTR (skips the "
        "explore matrix and the baseline comparison)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="earlier BENCH_runtime.json to compare (exit 1 on any "
        "history-fingerprint or explore-verdict drift)",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None,
        help="fail (exit 2) when the sweep exceeds this wall-time",
    )
    parser.add_argument("--out", default="BENCH_runtime.json")
    args = parser.parse_args(argv)

    if args.fanout:
        return main_fanout(args)

    t_start = time.perf_counter()
    cells: List[Dict[str, Any]] = []
    for spec, algo_key in _sweep(args.smoke):
        if args.only and args.only not in spec.name:
            continue
        for seed in range(args.seeds):
            cell = run_cell(
                spec, algo_key, seed, repeats=1 if args.smoke else args.repeats
            )
            cells.append(cell)
            print(
                f"{cell['name']:>18s} {algo_key:>9s} seed={seed} "
                f"ops={cell['ops']:>6d} events={cell['events']:>8d} "
                f"wall={cell['wall']:6.2f}s ops/s={cell['ops_per_sec']:>8.0f} "
                f"ev/s={cell['events_per_sec']:>9.0f} log_max={cell['log_max']}",
                file=sys.stderr,
            )

    if args.only and not cells:
        print(f"--only {args.only!r} matches no sweep cell", file=sys.stderr)
        return 1
    if args.only:
        # a partial sweep cannot be drift-checked: the explore matrix and
        # the baseline comparison only make sense over the full cell set
        print(
            f"--only {args.only!r}: skipping explore matrix and baseline "
            "comparison",
            file=sys.stderr,
        )
        explore = {"wall": 0.0, "cells": 0, "verdicts": []}
        explore_scale = {
            "wall": 0.0, "cells": 0, "verdicts": [],
            "conclusive": True, "all_ok": True,
        }
    else:
        explore = run_explore(
            args.smoke, seeds=1 if args.smoke else args.seeds
        )
        print(
            f"explore matrix (fast, jobs=1): {explore['cells']} cells in "
            f"{explore['wall']:.2f}s",
            file=sys.stderr,
        )
        explore_scale = run_scale_explore(args.smoke)
        print(
            f"scale explore ({'fast, ' if args.smoke else ''}lww+gossip, "
            f"jobs=1): {explore_scale['cells']} cells in "
            f"{explore_scale['wall']:.2f}s, conclusive="
            f"{explore_scale['conclusive']}, all_ok={explore_scale['all_ok']}",
            file=sys.stderr,
        )

    report: Dict[str, Any] = {
        "benchmark": "runtime-throughput",
        "smoke": args.smoke,
        "seeds": args.seeds,
        "python": platform.python_version(),
        "cells": cells,
        "explore": explore,
        "explore_scale": explore_scale,
        "totals": {
            "wall": time.perf_counter() - t_start,
            # the headline: sweep-level simulated throughput — total ops
            # over total cell wall.  The sweep is the workload (the
            # explore matrix is gated by its slowest cells), so this is
            # the number that moves when the runtime's worst case moves.
            "sweep_ops_per_sec": round(
                sum(c["ops"] for c in cells)
                / max(sum(c["wall"] for c in cells), 1e-9),
                1,
            ),
            "sweep_events_per_sec": round(
                sum(c["events"] for c in cells)
                / max(sum(c["wall"] for c in cells), 1e-9),
                1,
            ),
            "ops_per_sec_geomean": round(
                _geomean([c["ops_per_sec"] for c in cells]), 1
            ),
            "events_per_sec_geomean": round(
                _geomean([c["events_per_sec"] for c in cells]), 1
            ),
            "log_max": max(c["log_max"] for c in cells),
        },
    }
    if args.scale:
        report["scale"] = run_scale(seeds=1)
        for cell in report["scale"]["cells"]:
            print(
                f"{cell['name']:>18s} {cell['algorithm']:>9s} "
                f"seed={cell['seed']} ops={cell['ops']:>6d} "
                f"wall={cell['wall']:6.2f}s ops/s={cell['ops_per_sec']:>8.0f} "
                f"log_max={cell['log_max']}",
                file=sys.stderr,
            )

    exit_code = 0
    if args.baseline and not args.only:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        comparison, mismatches = compare_to_baseline(report, baseline)
        report["baseline_comparison"] = comparison
        print("vs baseline:", json.dumps(comparison), file=sys.stderr)
        if mismatches:
            exit_code = 1

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(
        f"total wall {report['totals']['wall']:.1f}s, sweep ops/s "
        f"{report['totals']['sweep_ops_per_sec']} (geomean "
        f"{report['totals']['ops_per_sec_geomean']}), report -> {args.out}",
        file=sys.stderr,
    )
    if args.max_seconds is not None and report["totals"]["wall"] > args.max_seconds:
        print(
            f"WALL-TIME REGRESSION: {report['totals']['wall']:.1f}s "
            f"> {args.max_seconds}s",
            file=sys.stderr,
        )
        exit_code = 2
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
