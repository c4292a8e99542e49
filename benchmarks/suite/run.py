"""One command for the repo's benchmark.

    python3 benchmarks/suite/run.py --workload live_write_sat --seed 1
    python3 benchmarks/suite/run.py --workload sim_faults --seed 1 --trace 1
    python3 benchmarks/suite/run.py --all

A run measures one workload in this (fresh) process, prints every metric
by name with its unit, checks the outputs, writes one JSON to
``benchmarks/suite/out/`` and ends with the one-line result the driver
reads.  ``--trace 0`` (default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` (or ``--traced``) installs the
wrappers of ``trace.py`` and reports the per-layer ledger.  ``--all``
runs every workload both ways, each in its own subprocess.  Exit status
is non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Any, Dict, List

SUITE = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    # the suite is a package (its trace.py must not shadow the stdlib's)
    sys.path[0] = str(SUITE.parent)

from suite import harness  # noqa: E402


def load_catalogue() -> Dict[str, Any]:
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and refuse to
    measure any other copy of the program."""
    src = harness.ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if src not in pathlib.Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro resolved outside this checkout: {repro.__file__}")


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    import_program()
    if workload.startswith("live_"):
        from suite import live

        return live.run(workload, seed, seconds, traced)
    if workload == "sim_faults":
        from suite import sim

        return sim.run(seed, seconds, traced)
    from suite import monitor

    return monitor.run(seed, seconds, traced)


def report(
    catalogue: Dict[str, Any], workload: str, seed: int, traced: bool, result: Dict[str, Any]
) -> Dict[str, Any]:
    """Print the run, write its JSON, return the driver's result line.

    The driver's line carries every metric of the section (a per-layer
    metric of a layer this workload does not execute reads 0 there); the
    printed table and the JSON file list only what was measured."""
    section = catalogue["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    measured = result["metrics"]
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {unknown}")
    if not traced and set(measured) != set(units):
        raise SystemExit(
            f"end-to-end metrics missing: {sorted(set(units) - set(measured))}"
        )
    mode = "traced" if traced else "untraced"
    print(f"workload {workload}  seed {seed}  {mode}  input_sha256 {result['input_sha256']}")
    for name in units:
        if name in measured:
            print(f"  {name:44s} {measured[name]:16.6f} {units[name]}")
    for check, value in result["checks"].items():
        print(f"  check {check:38s} {value}")
    print(
        f"  attempted {result['attempted']}  failed {result['failed']}  "
        f"correct {result['correct']}"
    )
    harness.OUT_DIR.mkdir(exist_ok=True)
    out_path = harness.OUT_DIR / f"{workload}-seed{seed}-{mode}.json"
    doc = {"workload": workload, "seed": seed, "traced": traced, **result}
    with open(out_path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def run_all(catalogue: Dict[str, Any], seed: int, seconds: int) -> int:
    bad: List[str] = []
    for workload in catalogue["workloads"]:
        for trace_flag in ("0", "1"):
            cmd = [
                sys.executable,
                str(SUITE / "run.py"),
                "--workload", workload["name"],
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", trace_flag,
            ]
            if subprocess.run(cmd).returncode != 0:
                bad.append(f"{workload['name']} --trace {trace_flag}")
    if bad:
        print("FAILED: " + ", ".join(bad))
    return 1 if bad else 0


def main(argv: List[str]) -> int:
    catalogue = load_catalogue()
    names = [w["name"] for w in catalogue["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=catalogue["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(catalogue, args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    traced = bool(args.trace or args.traced)
    result = run_workload(args.workload, args.seed, float(args.seconds), traced)
    line = report(catalogue, args.workload, args.seed, traced, result)
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
