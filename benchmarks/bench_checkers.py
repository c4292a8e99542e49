"""E12 — checker scalability (ours, not the paper's).

The decision procedures are exact; this benchmark tracks how their cost
grows with history size so litmus-style users know the practical envelope
(Prop. 1-style structured histories stay cheap; adversarial concurrency
is exponential, as expected of an NP-hard problem).
"""

import random

import pytest

from repro.criteria import check
from repro.litmus.generators import random_window_history

from _util import emit

SIZES = [(2, 2), (2, 3), (2, 4), (3, 3)]


def _population(processes, ops, count=6, seed=99):
    rng = random.Random(seed + processes * 10 + ops)
    return [
        random_window_history(rng, processes=processes, ops_per_process=ops)
        for _ in range(count)
    ]


@pytest.mark.parametrize("criterion", ["SC", "PC", "WCC", "CC", "CCV"])
@pytest.mark.parametrize("shape", SIZES, ids=[f"{p}x{o}" for p, o in SIZES])
def test_checker_scaling(benchmark, criterion, shape):
    processes, ops = shape
    population = _population(processes, ops)

    def run():
        return [
            check(h, adt, criterion, max_nodes=500_000).ok
            if criterion in ("WCC", "CC", "CCV")
            else check(h, adt, criterion).ok
            for h, adt in population
        ]

    benchmark(run)


def test_search_work_counters():
    """Emit the causal-search work profile (families, checks, memo hits,
    propagation steps, pruned orders) over the population — the cheap
    companion to ``bench_search_scaling.py`` for eyeballing where the
    engine spends its effort."""
    keys = (
        "families",
        "event_checks",
        "lin_nodes",
        "memo_hits",
        "propagate_steps",
        "total_orders",
        "orders_pruned",
        "conflict_cuts",
    )
    lines = ["criterion  " + "  ".join(f"{k:>15s}" for k in keys)]
    for criterion in ("WCC", "CC", "CCV"):
        totals = dict.fromkeys(keys, 0)
        for processes, ops in SIZES:
            for h, adt in _population(processes, ops):
                result = check(h, adt, criterion, max_nodes=500_000)
                for key in keys:
                    totals[key] += result.stats.get(key, 0)
        lines.append(
            f"{criterion:9s}  " + "  ".join(f"{totals[k]:15d}" for k in keys)
        )
        hits, checks = totals["memo_hits"], totals["event_checks"]
        if hits + checks:
            lines[-1] += f"  hit-rate={hits / (hits + checks):.3f}"
    emit("checker_work_counters", "\n".join(lines))


def test_certificate_verification_cheap(benchmark):
    """Verifying a certificate must be far cheaper than searching for it."""
    from repro.criteria import verify_certificate

    rng = random.Random(5)
    cases = []
    while len(cases) < 5:
        h, adt = random_window_history(rng, processes=2, ops_per_process=3)
        result = check(h, adt, "CC")
        if result.ok:
            cases.append((h, adt, result.certificate))

    def verify_all():
        for h, adt, cert in cases:
            verify_certificate(h, adt, cert)

    benchmark(verify_all)
