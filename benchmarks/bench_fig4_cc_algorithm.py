"""E4 — the Fig. 4 algorithm: throughput, message cost, wait-freedom.

Measures simulated-operation throughput (host-seconds per simulated op),
messages per operation with and without reliability flooding, and
model-checks a sampled run against the exact CC checker (Prop. 6).

Every experiment is a :class:`ScenarioSpec` run: the model-check and
wait-freedom experiments draw their scripts from the spec (including a
partition thrown mid-run); the throughput/message-cost experiments hand
:meth:`Scenario.run` explicit scripts over the default delay model.
"""

import random
from dataclasses import replace

import pytest

from repro.adts import WindowStreamArray
from repro.algorithms import CCWindowArray
from repro.criteria import check
from repro.scenarios import (
    DelaySpec,
    FaultEvent,
    Scenario,
    ScenarioSpec,
    WorkloadSpec,
    window_script,
)

from _util import emit

#: the declarative model-check condition: 3 processes, wide random delays
FIG4_SCENARIO = ScenarioSpec(
    name="fig4-model-check",
    n=3,
    streams=2,
    k=2,
    delay=DelaySpec("uniform", (0.5, 10.0)),
    workload=WorkloadSpec(ops_per_process=4),
    quiescence_reads=False,
)


def _scripts(seed, n, length, streams):
    return [
        window_script(random.Random(seed + pid), length, streams)
        for pid in range(n)
    ]


def _scripted(n):
    """``n`` processes on a 2-stream, k=2 array, default delays, no
    reads at quiescence: the condition the explicit scripts run under."""
    return Scenario(ScenarioSpec(
        name="fig4-scripted", n=n, streams=2, k=2, quiescence_reads=False,
    ))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_fig4_throughput(benchmark, n):
    """Host cost of simulating the CC algorithm as processes scale."""
    scripts = _scripts(11, n, 30, 2)

    def run():
        return _scripted(n).run(
            CCWindowArray, seed=n, scripts=scripts, streams=2, k=2,
            flood=False,
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.ops == 30 * n
    assert result.mean_latency == 0.0  # wait-free


def test_fig4_message_cost(benchmark):
    rows = ["messages per operation, write ratio 0.5 (reads are local):",
            f"{'n':>3s} {'direct':>8s} {'flooded':>8s}"]
    for n in (2, 4, 8):
        per = {}
        for flood in (False, True):
            scripts = _scripts(13, n, 20, 2)
            result = _scripted(n).run(
                CCWindowArray, seed=5, scripts=scripts, streams=2, k=2,
                flood=flood,
            )
            per[flood] = result.messages_per_op
        rows.append(f"{n:>3d} {per[False]:8.2f} {per[True]:8.2f}")
    benchmark.pedantic(lambda: _scripted(4).run(
        CCWindowArray, seed=5, scripts=_scripts(13, 4, 20, 2), streams=2,
        k=2, flood=False), rounds=1, iterations=1)
    rows.append("\ndirect ~ (n-1)/2 per op; flooding pays ~(n-1)^2 for crash-"
                "tolerant agreement")
    emit("fig4_message_cost", "\n".join(rows))


def test_fig4_model_checked(benchmark):
    """End-to-end: simulate a declarative scenario, then verify CC with
    the exact checker."""
    scenario = Scenario(FIG4_SCENARIO)

    def run_and_check():
        result = scenario.run(CCWindowArray, seed=9, streams=2, k=2)
        return check(result.history, scenario.adt(), "CC")

    verdict = benchmark.pedantic(run_and_check, rounds=2, iterations=1)
    assert verdict.ok


def test_fig4_latency_independent_of_delay(benchmark):
    """Wait-freedom across delay regimes *and* under a mid-run partition:
    latency is identically 0 everywhere (the spec sweep replaces the old
    hand-wired delay loop)."""
    lines = ["mean operation latency (simulated time units) vs mean delay:"]
    base = replace(
        FIG4_SCENARIO,
        workload=WorkloadSpec(ops_per_process=10),
        faults=(FaultEvent.partition(1.5, (0, 1), (2,)), FaultEvent.heal(8.0)),
    )
    for d in (1.0, 10.0, 100.0):
        spec = replace(base, delay=DelaySpec("uniform", (0.5 * d, 1.5 * d)))
        result = Scenario(spec).run(CCWindowArray, seed=2, streams=2, k=2)
        lines.append(f"  delay~{d:6.1f}: latency={result.mean_latency}")
        assert result.mean_latency == 0.0
        assert result.blocked == 0  # available throughout the partition
    benchmark.pedantic(
        lambda: Scenario(base).run(CCWindowArray, seed=2, streams=2, k=2),
        rounds=1, iterations=1)
    lines.append("wait-freedom: latency is identically 0 at every delay, "
                 "partition included")
    emit("fig4_wait_freedom", "\n".join(lines))
