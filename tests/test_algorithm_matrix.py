"""The algorithm x criterion matrix — the paper's placement of every
implementation on the Fig. 1 map, end to end.

Rows: the replication algorithms.  Columns: the criteria each run's
observed history is checked against.  Upper bounds ("always satisfies")
are asserted over several seeds; strictness witnesses ("does not satisfy
the stronger criterion") are found within a seed budget — together they
pin each algorithm to its place on the map.
"""

import random

import pytest

from repro.adts import WindowStreamArray
from repro.algorithms import (
    CCWindowArray,
    CCvWindowArray,
    LwwReplication,
    PramReplication,
    ScSequencer,
)
from repro.criteria import check
from repro.runtime import DelayModel
from repro.scenarios import DelaySpec, Scenario, ScenarioSpec, window_script


def _check(history, criterion):
    kwargs = {"max_nodes": 500_000} if criterion in ("WCC", "CC", "CCV") else {}
    return check(history, ADT, criterion, **kwargs)

ADT = WindowStreamArray(2, 2)

#: algorithm -> (constructor kwargs, criteria always satisfied)
GUARANTEES = {
    CCWindowArray: ({"streams": 2, "k": 2}, ("CC", "PC", "WCC")),
    CCvWindowArray: ({"streams": 2, "k": 2}, ("CCV", "WCC")),
    PramReplication: ({"adt": ADT}, ("PC",)),
    ScSequencer: ({"adt": ADT}, ("SC", "CC", "CCV", "PC", "WCC")),
}

#: algorithm -> criteria it must fail on SOME *scripted* schedule.
#: PRAM and LWW are not here: with scripted (non-reactive) clients their
#: window-array histories stay causally consistent — their weakness only
#: shows on read-then-write chains, witnessed by the reactive forum
#: scenario below.
STRICTNESS = {
    CCWindowArray: ("SC",),
    CCvWindowArray: ("SC",),
}


def _run(cls, kwargs, seed, jitter=20.0):
    scripts = [
        window_script(random.Random(seed * 31 + pid), 4, 2) for pid in range(3)
    ]
    spec = ScenarioSpec(
        name="matrix", n=3, delay=DelaySpec("uniform", (0.2, jitter)),
        quiescence_reads=False,
    )
    return Scenario(spec).run(
        cls, seed=seed, scripts=scripts, **kwargs
    )


@pytest.mark.parametrize(
    "cls", sorted(GUARANTEES, key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_upper_bounds_hold_on_every_seed(cls):
    kwargs, criteria = GUARANTEES[cls]
    for seed in range(4):
        result = _run(cls, kwargs, seed)
        for criterion in criteria:
            verdict = _check(result.history, criterion)
            assert verdict.ok, (cls.__name__, criterion, seed, result.history)


@pytest.mark.parametrize(
    "cls", sorted(STRICTNESS, key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_strictness_witness_found(cls):
    """Each weak algorithm must be *observed* failing the criterion just
    above its guarantee — otherwise our baselines would secretly be
    stronger than claimed and the comparisons meaningless."""
    kwargs = GUARANTEES.get(cls, ({"adt": ADT},))[0]
    if cls is LwwReplication:
        kwargs = {"adt": ADT, "clock_skew": 3.0}
    criteria = STRICTNESS[cls]
    found = {criterion: False for criterion in criteria}
    for seed in range(40):
        result = _run(cls, kwargs, seed, jitter=40.0)
        for criterion in criteria:
            if not found[criterion]:
                if not _check(result.history, criterion).ok:
                    found[criterion] = True
        if all(found.values()):
            break
    assert all(found.values()), (cls.__name__, found)


@pytest.mark.parametrize(
    "cls", [PramReplication, LwwReplication], ids=lambda c: c.__name__
)
def test_reactive_wcc_violation_witness(cls):
    """PRAM and LWW sit strictly below WCC: the question/answer chain
    (Sec. 3.2) is reordered by FIFO-only / unordered delivery on some
    schedule, and the recorded history then fails the exact WCC checker."""
    from repro.adts import MemoryADT
    from repro.core.operations import Invocation
    from repro.runtime import HistoryRecorder, Network, Simulator

    mem = MemoryADT("qa")
    witnessed = False
    for seed in range(60):
        sim = Simulator(seed=seed)
        net = Network(sim, 3, delay=DelayModel.uniform(0.5, 25.0))
        rec = HistoryRecorder(3)
        kwargs = {"clock_skew": 3.0} if cls is LwwReplication else {}
        obj = cls(sim, net, rec, adt=mem, **kwargs)
        obj.invoke(0, Invocation("w", ("q", 1)))

        def answer() -> None:
            if obj.invoke(1, Invocation("r", ("q",))) == 1:
                obj.invoke(1, Invocation("w", ("a", 2)))
            else:
                sim.schedule(1.0, answer)

        sim.schedule(1.0, answer)

        def browse() -> None:
            obj.invoke(2, Invocation("r", ("a",)))
            obj.invoke(2, Invocation("r", ("q",)))

        sim.schedule(8.0, browse)
        sim.run()
        if not check(rec.to_history(), mem, "WCC", max_nodes=500_000).ok:
            witnessed = True
            break
    assert witnessed, f"{cls.__name__}: no WCC violation in 60 seeds"
