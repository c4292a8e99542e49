"""E5 — the Fig. 5 algorithm: convergence, model-check, and the ablation
against the generic log-replay CCv construction.

The model-check/convergence experiment is specified declaratively as a
:class:`ScenarioSpec` (quiescence reads come from the spec, and the same
condition is re-checked under a mid-run partition).  Also regenerates the
transcription-note artifact: the pseudocode as printed
(``paper_literal=True``) fails the sequential window semantics, the
corrected insertion does not (the transcription note in
``repro/algorithms/ccv_window.py``).
"""

import random

import pytest

from repro.adts import WindowStreamArray
from repro.algorithms import CCvWindowArray, GenericCCv
from repro.core.operations import Invocation
from repro.criteria import check, check_update_consistency
from repro.runtime import Network, Simulator
from repro.scenarios import (
    FaultEvent,
    Scenario,
    ScenarioSpec,
    WorkloadSpec,
    window_script,
)

from _util import emit

#: the declarative model-check condition, with stable quiescence reads
FIG5_SCENARIO = ScenarioSpec(
    name="fig5-model-check",
    n=3,
    streams=2,
    k=2,
    workload=WorkloadSpec(ops_per_process=4),
    quiescence_reads=True,
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
        name="fig5-scripted", n=n, streams=2, k=2, quiescence_reads=False,
    ))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_fig5_throughput(benchmark, n):
    scripts = _scripts(23, n, 30, 2)

    def run():
        return _scripted(n).run(
            CCvWindowArray, seed=n, scripts=scripts, streams=2, k=2
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.ops == 30 * n
    assert result.mean_latency == 0.0


def test_fig5_model_checked_and_convergent(benchmark):
    scenario = Scenario(FIG5_SCENARIO)

    def run_and_check():
        result = scenario.run(CCvWindowArray, seed=4, streams=2, k=2)
        adt = scenario.adt()
        ccv = check(result.history, adt, "CCV")
        uc = check_update_consistency(result.history, adt, result.stable)
        return ccv, uc

    ccv, uc = benchmark.pedantic(run_and_check, rounds=2, iterations=1)
    assert ccv.ok and uc.ok


def test_fig5_convergent_across_partition(benchmark):
    """The same condition with a partition thrown mid-run: CCv still
    holds and the post-heal stable reads agree on every replica."""
    from dataclasses import replace

    spec = replace(
        FIG5_SCENARIO,
        name="fig5-partition",
        faults=(FaultEvent.partition(1.0, (0, 1), (2,)), FaultEvent.heal(6.0)),
    )
    scenario = Scenario(spec)

    def run_and_check():
        result = scenario.run(CCvWindowArray, seed=7, streams=2, k=2)
        adt = scenario.adt()
        ccv = check(result.history, adt, "CCV")
        stable_reads = {
            (result.history.event(e).invocation.args, result.history.event(e).output)
            for e in result.stable
        }
        return ccv, stable_reads

    ccv, stable_reads = benchmark.pedantic(run_and_check, rounds=2, iterations=1)
    assert ccv.ok
    # one read per stream per process, all agreeing: 2 distinct pairs
    assert len(stable_reads) == 2


def test_fig5_ablation_specialised_vs_generic(benchmark):
    """Fig. 5's window insertion is O(k) per delivery; the generic CCv
    construction replays a growing log.  Compare host cost on identical
    workloads."""
    import time

    n, length = 4, 60
    adt = WindowStreamArray(2, 2)
    scripts = _scripts(31, n, length, 2)
    timings = {}
    for name, cls, kwargs in (
        ("Fig.5 window insertion", CCvWindowArray, {"streams": 2, "k": 2}),
        ("generic log replay", GenericCCv, {"adt": adt}),
    ):
        t0 = time.perf_counter()
        result = _scripted(n).run(cls, seed=6, scripts=scripts, **kwargs)
        timings[name] = (time.perf_counter() - t0, result.ops)
    lines = ["host cost, identical workload (4 procs x 60 ops):"]
    for name, (seconds, ops) in timings.items():
        lines.append(f"  {name:26s}: {seconds*1e6/ops:8.1f} us/op")
    emit("fig5_ablation_insertion", "\n".join(lines))

    def run_specialised():
        return _scripted(n).run(
            CCvWindowArray, seed=6, scripts=scripts, streams=2, k=2
        )

    benchmark.pedantic(run_specialised, rounds=3, iterations=1)


def test_fig5_paper_literal_regression(benchmark):
    """The printed pseudocode drops values (off-by-one); corrected doesn't."""
    lines = ["sequential write sequence 1,2,3 on one process, k=2:"]
    for literal in (False, True):
        sim = Simulator(seed=0)
        net = Network(sim, 1)
        obj = CCvWindowArray(sim, net, None, streams=1, k=2, paper_literal=literal)
        for v in (1, 2, 3):
            obj.invoke(0, Invocation("w", (0, v)))
        sim.run()
        tag = "as printed " if literal else "corrected  "
        lines.append(f"  {tag}: window = {obj.window(0, 0)}  "
                     f"(sequential spec says (2, 3))")
    emit("fig5_transcription_note", "\n".join(lines))

    def run_corrected():
        sim = Simulator(seed=0)
        net = Network(sim, 1)
        obj = CCvWindowArray(sim, net, None, streams=1, k=2)
        for v in (1, 2, 3):
            obj.invoke(0, Invocation("w", (0, v)))
        sim.run()
        return obj.window(0, 0)

    assert benchmark.pedantic(run_corrected, rounds=3, iterations=1) == (2, 3)
