"""Scaling benchmark for the causal-order search engine (WCC/CC/CCv).

Unlike the pytest-benchmark suites, this is a standalone script so the
perf trajectory can be tracked across PRs in machine-readable form::

    PYTHONPATH=src python benchmarks/bench_search_scaling.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_search_scaling.py --smoke    # CI guard
    PYTHONPATH=src python benchmarks/bench_search_scaling.py \
        --baseline old.json --out new.json                              # compare

It sweeps random window-stream histories over event count (8-24) and
update density, runs the three causal checkers on each, and records
wall-time plus the search counters (``families_explored``,
``event_checks``, ``lin_nodes``, memo hit-rate, ...) into the JSON
report ``--out`` names (none is written without it; the trajectory is
archived under ``benchmarks/results/BENCH_search_*.json``).
Verdicts are part of the JSON so optimisation PRs can prove equivalence
against a stored baseline with ``--baseline`` (exits non-zero on any
verdict mismatch; prints the CCv geometric-mean speedup); it reads the
archived schema-3 reports too, whose ``jobs``, ``shards`` and
``per_shard`` fields date from the retired sharded search.  All produced
certificates are re-validated through the independent checker.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import random
import statistics
import sys
import time
import zlib
from typing import Any, Dict, List, Optional, Tuple

_HERE = pathlib.Path(__file__).resolve().parent
_ROOT = _HERE.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.adts import WindowStream  # noqa: E402
from repro.core import History, Operation  # noqa: E402
from repro.core.operations import BOTTOM, Invocation  # noqa: E402
from repro.criteria import verify_certificate  # noqa: E402
from repro.criteria.causal_search import (  # noqa: E402
    SearchBudgetExceeded,
    search_causal_order,
)
from repro.litmus.generators import recorded_window_history  # noqa: E402

MODES = ("WCC", "CC", "CCV")

# (name, processes, ops/process, update probability, histories).
# ``sat-*`` configs are *recorded* histories (see
# :func:`repro.litmus.generators.recorded_window_history`, shared with
# the equivalence tests): satisfiable by construction and
# carrying observed timestamps, they are the population on which the
# witness-guided enumeration order is measured (the adversarial random
# configs above them are almost always CCv-unsatisfiable, which
# exercises the NO path instead).
FULL_SWEEP: List[Tuple[str, int, int, float, int]] = [
    ("2x4-d50", 2, 4, 0.50, 6),
    ("2x4-d75", 2, 4, 0.75, 6),
    ("2x5-d50", 2, 5, 0.50, 6),
    ("3x4-d50", 3, 4, 0.50, 6),
    ("2x6-d35", 2, 6, 0.35, 6),
    ("2x6-d50", 2, 6, 0.50, 6),
    ("3x5-d40", 3, 5, 0.40, 6),
    ("2x8-d35", 2, 8, 0.35, 4),
    ("3x6-d35", 3, 6, 0.35, 4),
    ("4x5-d30", 4, 5, 0.30, 4),
    ("3x8-d25", 3, 8, 0.25, 3),
    ("4x6-d25", 4, 6, 0.25, 3),
    ("sat-2x6-d50", 2, 6, 0.50, 6),
    ("sat-3x4-d50", 3, 4, 0.50, 6),
    ("sat-3x5-d40", 3, 5, 0.40, 6),
    ("sat-3x6-d40", 3, 6, 0.40, 4),
    ("sat-4x5-d35", 4, 5, 0.35, 4),
]

SMOKE_SWEEP: List[Tuple[str, int, int, float, int]] = [
    ("2x4-d50", 2, 4, 0.50, 3),
    ("3x4-d50", 3, 4, 0.50, 3),
    ("2x6-d35", 2, 6, 0.35, 2),
    ("sat-3x4-d50", 3, 4, 0.50, 3),
    ("sat-2x6-d50", 2, 6, 0.50, 2),
]


def random_history(
    rng: random.Random,
    processes: int,
    ops_per_process: int,
    update_prob: float,
    k: int = 2,
    values: Tuple[int, ...] = (1, 2, 3),
    plausible: float = 0.8,
) -> Tuple[History, WindowStream]:
    """A random W_k history with controllable update density.

    Mirrors :func:`repro.litmus.generators.random_window_history` but
    exposes the write probability, which is the knob that drives both the
    linearisation width and (for CCv) the number of total update orders.
    """
    adt = WindowStream(k)
    writes: List[Invocation] = []
    plan: List[List[Any]] = []
    for _p in range(processes):
        row_plan: List[Any] = []
        for _i in range(ops_per_process):
            if rng.random() < update_prob:
                invocation = Invocation("w", (rng.choice(values),))
                writes.append(invocation)
                row_plan.append(invocation)
            else:
                row_plan.append("r")
        plan.append(row_plan)
    rows: List[List[Operation]] = []
    for row_plan in plan:
        row: List[Operation] = []
        for kind in row_plan:
            if kind == "r":
                if rng.random() < plausible:
                    chosen = [w for w in writes if rng.random() < 0.7]
                    rng.shuffle(chosen)
                    state = adt.initial_state()
                    for invocation in chosen:
                        state = adt.transition(state, invocation)
                    row.append(Operation(Invocation("r"), state))
                else:
                    window = tuple(
                        rng.choice((0,) + values) for _ in range(k)
                    )
                    row.append(Operation(Invocation("r"), window))
            else:
                row.append(Operation(kind, BOTTOM))
        rows.append(row)
    return History.from_processes(rows), adt


def _stat(stats: Any, name: str) -> int:
    """Read a counter tolerantly (older SearchStats lack the new ones)."""
    return int(getattr(stats, name, 0) or 0)


def sweep_population(
    seed: int, name: str, processes: int, ops: int, density: float, count: int
) -> List[Tuple[History, WindowStream]]:
    """The histories of one sweep config (also the population of the
    certificate golden in ``tests/test_search_perf.py``)."""
    # zlib.crc32, not hash(): str hashing is salted per process and
    # would make the sweep non-reproducible across runs
    rng = random.Random(seed * 1_000_003 + zlib.crc32(name.encode()))
    generate = (
        recorded_window_history if name.startswith("sat-") else random_history
    )
    return [generate(rng, processes, ops, density) for _ in range(count)]


def run_sweep(
    sweep: List[Tuple[str, int, int, float, int]],
    seed: int,
    max_nodes: int,
    verify: bool,
) -> List[Dict[str, Any]]:
    cases: List[Dict[str, Any]] = []
    for name, processes, ops, density, count in sweep:
        population = sweep_population(
            seed, name, processes, ops, density, count
        )
        for mode in MODES:
            verdicts: List[Optional[bool]] = []
            certificates = []
            counters = {
                "families_explored": 0,
                "event_checks": 0,
                "lin_nodes": 0,
                "memo_hits": 0,
                "propagate_steps": 0,
                "orders_pruned": 0,
                "conflict_cuts": 0,
                "total_orders_tried": 0,
            }
            budget_exceeded = 0
            # per-history witness positions (CCv, satisfiable histories):
            # the enumeration ranks the order heuristic tries to minimise
            orders_to_witness: List[int] = []
            t0 = time.perf_counter()
            for history, adt in population:
                try:
                    certificate, stats = search_causal_order(
                        history, adt, mode, max_nodes=max_nodes
                    )
                except SearchBudgetExceeded:
                    budget_exceeded += 1
                    verdicts.append(None)
                    continue
                verdicts.append(certificate is not None)
                if certificate is not None:
                    certificates.append((history, adt, certificate))
                    witness_at = getattr(stats, "orders_to_witness", None)
                    if witness_at is not None:
                        orders_to_witness.append(witness_at)
                for key in counters:
                    counters[key] += _stat(stats, key)
            wall = time.perf_counter() - t0
            if verify:
                for history, adt, certificate in certificates:
                    verify_certificate(history, adt, certificate)
            checks = counters["event_checks"]
            hits = counters["memo_hits"]
            case: Dict[str, Any] = {
                "config": name,
                "events": processes * ops,
                "processes": processes,
                "update_prob": density,
                "mode": mode,
                "histories": count,
                "wall_s": round(wall, 6),
                "verdicts": verdicts,
                "budget_exceeded": budget_exceeded,
                "memo_hit_rate": round(hits / (hits + checks), 4)
                if (hits + checks)
                else 0.0,
                **counters,
            }
            if mode == "CCV":
                case["orders_to_witness"] = orders_to_witness
                case["orders_to_witness_median"] = median(orders_to_witness)
            cases.append(case)
    return cases


def median(values: List[int]) -> Optional[float]:
    """``statistics.median`` with a ``None`` for an empty population
    (a case without witnesses has no position to report)."""
    return float(statistics.median(values)) if values else None


def geomean(ratios: List[float]) -> float:
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def compare_to_baseline(
    cases: List[Dict[str, Any]], baseline: Dict[str, Any]
) -> Tuple[Dict[str, Any], int]:
    """Verdict equivalence + per-mode speedups versus a stored run.

    A verdict of ``None`` records *budget exhaustion*, not an answer, so
    a new run that decides a previously budget-exceeded history is an
    improvement ("newly decided"), not a mismatch; the regression
    directions — flipping a decided verdict, or failing to decide what
    the baseline decided — still fail the comparison.
    """
    old_by_key = {
        (c["config"], c["mode"]): c for c in baseline.get("cases", [])
    }
    mismatches = 0
    skipped = 0
    newly_decided = 0
    speedups: Dict[str, List[float]] = {mode: [] for mode in MODES}
    for case in cases:
        old = old_by_key.get((case["config"], case["mode"]))
        if old is None:
            continue
        if old.get("histories") != case["histories"]:
            # different sweep shapes (e.g. --smoke vs full): neither the
            # verdict lists nor the wall-times are comparable
            skipped += 1
            continue
        for old_v, new_v in zip(old["verdicts"], case["verdicts"]):
            if old_v == new_v:
                continue
            if old_v is None and new_v is not None:
                newly_decided += 1
                continue
            mismatches += 1
            print(
                f"VERDICT MISMATCH {case['config']}/{case['mode']}: "
                f"{old['verdicts']} -> {case['verdicts']}",
                file=sys.stderr,
            )
            break
        if case["wall_s"] > 0 and old["wall_s"] > 0:
            speedups[case["mode"]].append(old["wall_s"] / case["wall_s"])
    summary = {
        "verdict_mismatches": mismatches,
        "newly_decided": newly_decided,
        "incomparable_cases_skipped": skipped,
        "geomean_speedup": {
            mode: round(geomean(rs), 3) for mode, rs in speedups.items() if rs
        },
    }
    return summary, mismatches


def litmus_verdicts(max_nodes: int) -> Dict[str, Dict[str, bool]]:
    """Classify the full litmus gallery in all three modes (equivalence
    anchor: these verdicts must never change across perf PRs)."""
    from repro.litmus import all_litmus
    from repro.litmus.extra import extra_litmus

    table: Dict[str, Dict[str, bool]] = {}
    for litmus in list(all_litmus()) + list(extra_litmus()):
        row = {}
        for mode in MODES:
            certificate, _ = search_causal_order(
                litmus.history, litmus.adt, mode, max_nodes=max_nodes
            )
            if certificate is not None:
                verify_certificate(litmus.history, litmus.adt, certificate)
            row[mode] = certificate is not None
        table[litmus.key] = row
    return table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI sweep")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--max-nodes", type=int, default=500_000)
    parser.add_argument(
        "--out", default=None, help="write the JSON report to this path"
    )
    parser.add_argument(
        "--baseline", default=None, help="earlier --out report to compare"
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="fail (exit 2) when the sweep exceeds this wall-time",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip certificate re-validation (timing purity)",
    )
    args = parser.parse_args(argv)

    sweep = SMOKE_SWEEP if args.smoke else FULL_SWEEP
    started = time.perf_counter()
    cases = run_sweep(sweep, args.seed, args.max_nodes, not args.no_verify)
    litmus = litmus_verdicts(args.max_nodes)
    elapsed = time.perf_counter() - started

    per_mode_wall = {
        mode: round(sum(c["wall_s"] for c in cases if c["mode"] == mode), 4)
        for mode in MODES
    }
    all_witness_positions = [
        v
        for c in cases
        if c["mode"] == "CCV"
        for v in c.get("orders_to_witness", [])
    ]
    report: Dict[str, Any] = {
        "schema": 4,
        "smoke": args.smoke,
        "seed": args.seed,
        "timestamp": time.time(),
        "cases": cases,
        "litmus": litmus,
        "summary": {
            "wall_s": round(elapsed, 4),
            "per_mode_wall_s": per_mode_wall,
            "ccv_witnesses": len(all_witness_positions),
            "ccv_orders_to_witness_median": median(all_witness_positions),
        },
    }

    exit_code = 0
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        comparison, mismatches = compare_to_baseline(cases, baseline)
        if baseline.get("litmus") and baseline["litmus"] != litmus:
            comparison["litmus_changed"] = True
            mismatches += 1
            print("LITMUS VERDICTS CHANGED vs baseline", file=sys.stderr)
        report["baseline_comparison"] = comparison
        if mismatches:
            exit_code = 1

    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    for mode in MODES:
        print(f"{mode:4s} wall {per_mode_wall[mode]:8.3f}s")
    print(
        f"CCv witnesses: {len(all_witness_positions)}, median orders to "
        f"witness {median(all_witness_positions)}"
    )
    print(f"total {elapsed:.3f}s" + (f" -> {args.out}" if args.out else ""))
    if args.baseline and report.get("baseline_comparison"):
        print("vs baseline:", json.dumps(report["baseline_comparison"]))
    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(
            f"REGRESSION: sweep took {elapsed:.1f}s > {args.max_seconds:.1f}s",
            file=sys.stderr,
        )
        exit_code = 2
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
