"""Shared helpers for the benchmark harness.

Every ``bench_*.py`` regenerates one of the paper's artifacts and *emits*
the corresponding table/figure as text: printed to stderr (so pytest
capture does not swallow it) and appended to
``benchmarks/results/<name>.txt``, the committed record.
"""

from __future__ import annotations

import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print an artifact and persist it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner, file=sys.stderr)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
