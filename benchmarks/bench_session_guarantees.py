"""E9 — session guarantees per algorithm (Secs. 1 and 4, Terry et al.).

Regenerates the paper's placement: causal algorithms satisfy all four
session guarantees on every run; the PRAM and LWW baselines violate the
cross-process guarantees on some schedules.

Two workload configurations are needed because the anomalies are
register-sensitive: monotonic-read regressions under FIFO replication
need a single contended register (a fast path overtaking a slow one on
the same cell), while monotonic-write violations under LWW need two
registers (a later write landing while the earlier one is in flight).
"""

from repro.analysis import format_session_table, session_guarantee_rates
from repro.scenarios import DelaySpec

from _util import emit

GUARANTEES = ("RYW", "MR", "MW", "WFR")


def _run(registers: str):
    # stable fast/slow paths provoke FIFO reorderings on one register;
    # high per-message jitter provokes LWW write reorderings across two
    delay = DelaySpec("per-link" if len(registers) == 1 else "uniform",
                      (0.2, 40.0))
    return session_guarantee_rates(
        runs=30, n=4, ops_per_process=8, registers=registers, seed=2026,
        delay=delay,
    )


def test_session_guarantees(benchmark):
    single, double = benchmark.pedantic(
        lambda: (_run("a"), _run("ab")), rounds=1, iterations=1
    )
    text = (
        "single contended register (MR anomalies under FIFO):\n"
        + format_session_table(single)
        + "\n\ntwo registers (MW anomalies under LWW):\n"
        + format_session_table(double)
    )
    emit("session_guarantees", text)
    # causal algorithms: violation-free in every configuration
    for reports in (single, double):
        for report in reports:
            if report.algorithm.startswith(("CC(", "CCv(")):
                for guarantee in GUARANTEES:
                    assert report.rate(guarantee) == 0.0, (
                        report.algorithm,
                        guarantee,
                    )
    # baselines: at least one violation somewhere across configurations
    baseline_rates = [
        report.rate(g)
        for reports in (single, double)
        for report in reports
        if report.algorithm.startswith(("PC(", "EC("))
        for g in GUARANTEES
    ]
    assert any(rate > 0 for rate in baseline_rates)
