"""Does the benchmark agree with itself?

    python3 benchmarks/suite/repeat.py --runs 10
    python3 benchmarks/suite/repeat.py --runs 3 --smoke

Runs two sets of ``--runs`` untraced runs per workload on the same code
— a fresh seed per run, the same seeds in both sets, the sets
interleaved so host drift lands on both — and prints, per workload and
end-to-end metric, each set's median and quartiles and the spread
(q3 − q1 as a share of the median).  Exits non-zero when the two sets'
medians differ by more than the metric's bound in ``BENCHMARK.json``,
or a metric other than ``setup_s`` spreads wider than its bound: a
benchmark that cannot tell a set from itself cannot refuse a
regression.  ``--smoke`` shortens every run to 3 s, which is a second of
measured slices: it checks that every workload runs and is correct, and
prints the comparison without holding it to the bounds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Any, Dict, List

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SMOKE_SECONDS = 3


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    cmd = [
        sys.executable,
        str(SUITE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per set per workload")
    parser.add_argument("--seed", type=int, default=100, help="first seed")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")
    with open(ROOT / "BENCHMARK.json") as fh:
        catalogue = json.load(fh)
    seconds = SMOKE_SECONDS if args.smoke else catalogue["run_seconds"]
    workloads = args.workload or [w["name"] for w in catalogue["workloads"]]

    #: values[workload][metric][set] -> one value per run
    values: Dict[str, Dict[str, List[List[float]]]] = {
        w: {m["name"]: [[], []] for m in catalogue["end_to_end"]} for w in workloads
    }
    for i in range(args.runs):
        for which in (0, 1):
            for workload in workloads:
                line = one_run(workload, args.seed + i, seconds)
                for name, reading in line["metrics"].items():
                    values[workload][name][which].append(reading["value"])
                print(f"run {i + 1}/{args.runs} set {'AB'[which]} {workload}: ok", flush=True)

    failures: List[str] = []
    for workload in workloads:
        print(f"\n{workload}")
        print(
            f"  {'metric':14s} {'unit':5s} {'set':3s} {'q1':>12s} {'median':>12s} "
            f"{'q3':>12s} {'spread':>7s}   B vs A (bound)"
        )
        for metric in catalogue["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for which in (0, 1):
                sample = values[workload][name][which]
                q1, median, q3 = statistics.quantiles(sample, n=4)
                spread = (q3 - q1) / median
                medians.append(median)
                tail = ""
                if which == 1:
                    drift = worse_by(medians[0], medians[1], metric["better"])
                    tail = f"   {drift:+.3f} ({bound})"
                    if drift > bound:
                        failures.append(f"{workload} {name}: set B worse by {drift:.3f}")
                if name != "setup_s" and spread > bound:
                    failures.append(f"{workload} {name}: spread {spread:.3f} > {bound}")
                print(
                    f"  {name:14s} {metric['unit']:5s} {'AB'[which]:3s} {q1:12.4f} "
                    f"{median:12.4f} {q3:12.4f} {spread:7.3f}{tail}"
                )
    if failures:
        print("\nDISAGREES WITH ITSELF:\n  " + "\n  ".join(failures))
        return 0 if args.smoke else 1
    print("\nboth sets agree within every bound")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
