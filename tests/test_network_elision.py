"""Send-time dedup on the simulated network, against the network before it.

``Network`` honours the broadcast layer's "seen?" predicate
(``Transport.attach_dedup``) when a copy is *sent*: a copy whose
destination already holds the message id makes every rng draw and every
``stats`` count it always made, and is never scheduled.  The behaviour
before that — every copy scheduled and delivered, the offer ignored —
lives on only here, as :class:`ScheduleEveryCopy`, swapped in for
``repro.scenarios.scenario.Network``.  The property requires both to
record the same run — history fingerprint with every time, duration,
send-side counters, per-replica seen-sets and runtime-monitor results —
under random fault schedules, every broadcast family, sizes and seeds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import DelayModel, Network, Simulator
from repro.runtime.transport import Transport
from repro.scenarios import (
    ALGORITHMS,
    DelaySpec,
    FaultEvent,
    Scenario,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.scenarios import scenario as scenario_module
from repro.scenarios.matrix import build_post_setup

F = FaultEvent

#: the counters a copy moves when it is sent, elided or not
SEND_SIDE = ("sent", "lost", "duplicated", "held", "reordered")

#: the inlined uniform draw, and two models that take the sampled path
#: (per-link draws a base per directed link on first use)
DELAYS = (
    DelaySpec(),
    DelaySpec("per-link", (0.5, 3.0, 0.2)),
    DelaySpec("exponential", (1.0,)),
)


class ScheduleEveryCopy(Network):
    """The simulated network before send-time dedup: the offered
    predicate is ignored, so every copy is scheduled and delivered."""

    attach_dedup = Transport.attach_dedup


def run_cell(network_cls, spec, key, seed):
    entry = ALGORITHMS[key]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_module, "Network", network_cls)
        return Scenario(spec).run(
            entry.cls,
            seed=seed,
            post_setup=build_post_setup(entry, spec),
            **entry.kwargs(spec.streams, spec.k),
        )


@st.composite
def fault_schedules(draw, n):
    """0–4 faults over the vocabulary: loss, duplication, reorder,
    partition + heal, crash + recover, repair."""
    times = st.floats(0.5, 8.0).map(lambda t: round(t, 2))
    events = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            ("loss", "duplicate", "reorder", "partition", "crash", "repair")
        ))
        at = draw(times)
        if kind == "loss":
            events.append(F.loss(at, draw(st.sampled_from((0.1, 0.3, 0.6)))))
            events.append(F.loss(at + draw(times), 0.0))
        elif kind == "duplicate":
            events.append(F.duplicate(at, draw(st.sampled_from((0.2, 0.5, 1.0)))))
            events.append(F.duplicate(at + draw(times), 0.0))
        elif kind == "reorder":
            events.append(F.reorder(at, draw(st.floats(0.5, 3.0))))
        elif kind == "partition":
            cut = draw(st.integers(1, n - 1))
            pids = draw(st.permutations(range(n)))
            events.append(F.partition(at, pids[:cut], pids[cut:]))
            events.append(F.heal(at + draw(times)))
        elif kind == "crash":
            pid = draw(st.integers(0, n - 1))
            events.append(F.crash(at, pid))
            if draw(st.booleans()):
                events.append(F.recover(at + draw(times), pid))
        else:
            events.append(F.repair(at))
    return tuple(sorted(events, key=lambda e: e.time))


@st.composite
def cells(draw):
    n = draw(st.integers(2, 6))
    spec = ScenarioSpec(
        "elision",
        n=n,
        streams=2,
        k=2,
        delay=draw(st.sampled_from(DELAYS)),
        faults=draw(fault_schedules(n)),
        workload=WorkloadSpec(
            ops_per_process=draw(st.integers(1, 8)), write_ratio=0.6
        ),
    )
    return spec, draw(st.integers(0, 10_000))


def seen_sets(result):
    broadcast = result.algorithm.broadcast
    if not hasattr(broadcast, "seen_ids"):
        return None
    return [broadcast.seen_ids(pid) for pid in range(result.spec.n)]


def monitor_results(result):
    monitor = result.monitor
    return None if monitor is None else (monitor.violations, monitor.stats())


@pytest.mark.parametrize("key", sorted(ALGORITHMS))
@given(cell=cells())
@settings(max_examples=20, deadline=None)
def test_elision_records_the_run_the_reference_records(key, cell):
    spec, seed = cell
    ref = run_cell(ScheduleEveryCopy, spec, key, seed)
    new = run_cell(Network, spec, key, seed)

    assert new.fingerprint() == ref.fingerprint()
    assert new.duration == ref.duration
    for name in SEND_SIDE:
        assert getattr(new.network_stats, name) == getattr(ref.network_stats, name)
    assert seen_sets(new) == seen_sets(ref)
    assert monitor_results(new) == monitor_results(ref)
    # an elided copy is one the reference delivered (or dropped at a
    # crashed destination) for nothing
    ref_stats, new_stats = ref.network_stats, new.network_stats
    assert ref_stats.elided == 0
    assert (
        new_stats.delivered + new_stats.dropped_to_crashed + new_stats.elided
        == ref_stats.delivered + ref_stats.dropped_to_crashed
    )


# ----------------------------------------------------------------------
# The clock at drain
# ----------------------------------------------------------------------
HELD = {"id": (0, 0), "origin": 0, "payload": "held"}
FRESH = {"id": (0, 1), "origin": 0, "payload": "fresh"}


def last_copy_elided(network_cls):
    """Two copies to pid 1: a fresh one arriving at 1.0, then one pid 1
    already holds arriving at 3.0 — the last copy of the run."""
    sim = Simulator(seed=0)
    net = network_cls(sim, 2, delay=DelayModel.constant(1.0))
    inbox = []
    net.attach(1, lambda src, payload: inbox.append((sim.now, payload["id"])))
    net.attach_dedup(1, {(0, 0)}.__contains__)
    net.send(0, 1, FRESH)
    net.set_delay_scale(3.0)
    net.send(0, 1, HELD)
    return sim, net, inbox


def test_the_drained_clock_ends_at_the_elided_arrival():
    sim, net, inbox = last_copy_elided(Network)
    sim.run()
    assert inbox == [(1.0, (0, 1))]
    assert net.stats.elided == 1 and net.stats.sent == 2
    assert sim.events_executed == 1 and sim.now == 3.0
    ref_sim, ref_net, ref_inbox = last_copy_elided(ScheduleEveryCopy)
    ref_sim.run()
    assert ref_sim.now == sim.now and ref_net.stats.elided == 0
    assert ref_inbox == [(1.0, (0, 1)), (3.0, (0, 0))]


@pytest.mark.parametrize("until", [0.5, 2.0, 3.0, 4.0])
def test_run_until_then_continue_reads_the_reference_clock(until):
    clocks = []
    for network_cls in (Network, ScheduleEveryCopy):
        sim, _net, _inbox = last_copy_elided(network_cls)
        sim.run(until=until)
        stopped = sim.now
        sim.run()
        clocks.append((stopped, sim.now))
    assert clocks[0] == clocks[1]
    assert clocks[0] == (until, max(until, 3.0))
