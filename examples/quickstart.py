#!/usr/bin/env python
"""Quickstart: specify an object, check histories, run an algorithm.

Walks through the four layers of the library on the paper's guideline
example, the window stream W_2 (Def. 3):

1. sequential specification — replaying words on the transducer;
2. consistency criteria — classifying the history of Fig. 3d;
3. replication — running the causally consistent algorithm of Fig. 4 on
   the simulated asynchronous system and model-checking the run;
4. scenarios — the same run specified declaratively, with a network
   partition thrown mid-run (``python -m repro explore`` sweeps the full
   scenario × algorithm matrix).
"""

from repro import History, WindowStream, check
from repro.algorithms import CCWindowArray
from repro.adts import WindowStreamArray
from repro.core import accepts, inv
from repro.criteria import verify_certificate
from repro.scenarios import (
    FaultEvent,
    Scenario,
    ScenarioSpec,
    WorkloadSpec,
)


def sequential_specification() -> None:
    print("=== 1. the sequential specification L(W_2) ===")
    w2 = WindowStream(2)
    word = [w2.write(1), w2.read(0, 1), w2.write(2), w2.read(1, 2)]
    print(f"  word  : {word}")
    print(f"  in L? : {accepts(w2, word)}")
    bad = [w2.write(1), w2.read(9, 9)]
    print(f"  word  : {bad}")
    print(f"  in L? : {accepts(w2, bad)}")


def consistency_criteria() -> None:
    print("\n=== 2. classifying a distributed history (Fig. 3d) ===")
    w2 = WindowStream(2)
    history = History.from_processes(
        [
            [w2.write(1), w2.read(0, 1)],
            [w2.write(2), w2.read(1, 2)],
        ]
    )
    print(f"  history: {history}")
    for criterion in ("SC", "CC", "CCV", "PC", "WCC"):
        result = check(history, w2, criterion)
        print(f"  {criterion:4s}: {'yes' if result.ok else 'no'}")


def replication() -> None:
    print("\n=== 3. running the Fig. 4 algorithm (3 processes) ===")
    scripts = [
        [inv("w", 0, 10 + pid), inv("r", 0), inv("r", 0)] for pid in range(3)
    ]
    spec = ScenarioSpec(name="quickstart-fig4", n=3, streams=1,
                        quiescence_reads=False)
    result = Scenario(spec).run(CCWindowArray, seed=1, scripts=scripts,
                                streams=1, k=2)
    print(f"  observed history: {result.history}")
    print(f"  operations      : {result.ops}, "
          f"mean latency {result.mean_latency} (wait-free!)")
    adt = WindowStreamArray(1, 2)
    verdict = check(result.history, adt, "CC")
    print(f"  causally consistent? {verdict.ok}")
    verify_certificate(result.history, adt, verdict.certificate)
    print("  certificate independently verified.")


def scenarios() -> None:
    print("\n=== 4. a declarative fault scenario ===")
    spec = ScenarioSpec(
        name="quickstart-partition",
        n=3,
        streams=1,
        faults=(
            FaultEvent.partition(1.0, (0, 1), (2,)),
            FaultEvent.heal(6.0),
        ),
        workload=WorkloadSpec(ops_per_process=4, write_ratio=0.6),
    )
    print(f"  spec (JSON-round-trippable): {spec.name}")
    print(f"    faults   : {[f.action for f in spec.faults]}")
    scenario = Scenario(spec)
    result = scenario.run(CCWindowArray, seed=3, streams=1, k=2)
    print(f"  ops={result.ops}, blocked={result.blocked}, "
          f"mean latency {result.mean_latency} — available during the split")
    verdict = check(result.history, scenario.adt(), "CC")
    print(f"  causally consistent across the partition? {verdict.ok}")
    print("  (sweep every scenario x algorithm: python -m repro explore)")


if __name__ == "__main__":
    sequential_specification()
    consistency_criteria()
    replication()
    scenarios()
