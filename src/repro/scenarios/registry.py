"""Built-in scenario registry: the named fault/workload scenarios.

Each entry is a :class:`ScenarioSpec`; ``python -m repro explore`` and the
matrix runner resolve scenarios by name, and tests pin their semantics.
Timings assume the default closed-loop pace (think 0.1–1.0, delays around
one time unit): faults land while the workload is in flight, and every
scenario restores full connectivity/membership before quiescence so the
convergence-class criteria are decidable at the stable reads.

Design notes:

- partitions always heal, crashes always recover (crash-*stop* forever is
  covered by ``run_workload``'s ``crash_plan`` shim and the dedicated
  fault tests);
- lossy phases end with ``n - 1`` spaced ``repair`` sweeps, which
  guarantee full dissemination for op-based broadcast algorithms (the
  state-based gossip algorithm needs no repair — that is its point);
- scenario sizes stay small enough for the exact checkers: histories of
  a few dozen events.  The two update-heavy scenarios
  (``partition-during-writes``, ``hot-key-contention``) run at ``n = 4``
  with up to ~14 concurrent updates — sizes the CCv search could not
  decide within budget before its conflict-driven cut, which is why they
  used to be capped at ``n = 3`` (see :mod:`repro.criteria.causal_search`).
"""

from __future__ import annotations

from typing import Dict, List

from .spec import DelaySpec, FaultEvent, ScenarioSpec, WorkloadSpec

F = FaultEvent


def _builtin() -> List[ScenarioSpec]:
    return [
        ScenarioSpec(
            name="partition-during-writes",
            description="two-by-two split while both sides keep writing; "
            "heals before quiescence (the CAP motivation of Sec. 1)",
            n=4,
            faults=(F.partition(1.5, (0, 1), (2, 3)), F.heal(8.0)),
            workload=WorkloadSpec(ops_per_process=5, write_ratio=0.6),
        ),
        ScenarioSpec(
            name="partition-minority",
            description="the sequencer's side is a singleton: SC blocks "
            "for everyone else, wait-free algorithms keep serving",
            n=4,
            faults=(F.partition(1.5, (0,), (1, 2, 3)), F.heal(8.0)),
            workload=WorkloadSpec(ops_per_process=6),
        ),
        ScenarioSpec(
            name="flaky-link",
            description="a 25% loss burst mid-run, then anti-entropy "
            "repair sweeps (gossip shrugs; op-based needs the repairs)",
            n=4,
            faults=(
                F.loss(1.0, 0.25),
                F.loss(6.0, 0.0),
                F.repair(10.0),
                F.repair(13.0),
                F.repair(16.0),
            ),
            workload=WorkloadSpec(ops_per_process=6),
        ),
        ScenarioSpec(
            name="rolling-crashes",
            description="one process at a time crashes and recovers with "
            "anti-entropy state rejoin",
            n=4,
            faults=(
                F.crash(2.0, 1),
                F.recover(6.0, 1),
                F.crash(7.0, 2),
                F.recover(11.0, 2),
                F.crash(12.0, 3),
                F.recover(16.0, 3),
            ),
            workload=WorkloadSpec(ops_per_process=6),
        ),
        ScenarioSpec(
            name="churn",
            description="processes leave and rejoin while the partition "
            "layout shifts underneath (repartition without heal)",
            n=4,
            faults=(
                F.crash(1.5, 3),
                F.recover(5.0, 3),
                F.partition(6.0, (0, 1), (2, 3)),
                F.partition(9.0, (0, 2), (1, 3)),
                F.heal(12.0),
                F.crash(13.0, 1),
                F.recover(15.5, 1),
            ),
            workload=WorkloadSpec(ops_per_process=6),
        ),
        ScenarioSpec(
            name="hot-key-contention",
            description="update-heavy traffic piling onto stream 0 "
            "(85% hot-key skew): maximal write-write concurrency",
            n=4,
            streams=4,
            workload=WorkloadSpec(
                ops_per_process=5, write_ratio=0.6, hot_key_weight=0.85
            ),
        ),
        ScenarioSpec(
            name="open-loop-overload",
            description="Poisson arrivals faster than the round trip: "
            "open-loop load does not slow down for the sequencer",
            n=3,
            delay=DelaySpec("uniform", (1.0, 3.0)),
            workload=WorkloadSpec(
                kind="open", ops_per_process=8, rate=3.0
            ),
        ),
        ScenarioSpec(
            name="long-fat-network",
            description="heterogeneous high-delay links (stable fast and "
            "slow paths): maximal reordering pressure",
            n=4,
            delay=DelaySpec("per-link", (2.0, 12.0, 0.2)),
            workload=WorkloadSpec(ops_per_process=6),
        ),
        ScenarioSpec(
            name="delay-spike",
            description="a 6x congestion spike mid-run, then back to "
            "normal",
            n=4,
            faults=(F.delay_spike(2.0, 6.0), F.delay_spike(7.0, 1.0)),
            workload=WorkloadSpec(ops_per_process=6),
        ),
        ScenarioSpec(
            name="quiet-then-burst",
            description="cyclic phases: long quiet trickle, then a dense "
            "burst of traffic",
            n=4,
            workload=WorkloadSpec(
                ops_per_process=6, phases=((5.0, 0.25), (2.0, 5.0))
            ),
        ),
    ]


def _scale() -> List[ScenarioSpec]:
    """The scale-up tier: ≥10k-op open-loop hot-key workloads at n=8 and
    n=12.  These exist to exercise the runtime plane (indexed causal
    delivery, tuple-heap scheduler, causal-stability GC) at a volume the
    pre-PR 5 runtime could not finish in reasonable time; they are kept
    out of the *default* sweep because exact history checkers (CC/CCv/SC)
    are hopeless at 10k events — run them with the convergence-checkable
    algorithms (``lww``, ``gossip``), whose CONV verdict is a state
    comparison and stays conclusive at any scale (``repro explore
    --scenario scale-n8-hotkey`` routes them there)."""
    return [
        ScenarioSpec(
            name="scale-n8-hotkey",
            description="10,400 Poisson ops over 8 replicas, 80% of the "
            "writes piling onto stream 0 — the runtime-plane volume test",
            n=8,
            streams=4,
            workload=WorkloadSpec(
                kind="open", ops_per_process=1300, rate=4.0,
                write_ratio=0.5, hot_key_weight=0.8,
            ),
        ),
        ScenarioSpec(
            name="scale-n12-hotkey",
            description="10,800 Poisson ops over 12 replicas with a "
            "mid-run two-by-two split that heals — held-flush and "
            "causal buffering at volume",
            n=12,
            streams=4,
            faults=(
                F.partition(60.0, (0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11)),
                F.heal(160.0),
            ),
            workload=WorkloadSpec(
                kind="open", ops_per_process=900, rate=4.0,
                write_ratio=0.5, hot_key_weight=0.8,
            ),
        ),
        # the PR 8 fan-out tiers: at n=32 the eager flood costs 992
        # sends per broadcast, at n=64 it is 4032 — these cells default
        # to the lazy-push algorithm family (see
        # ``matrix.SCALE_TIER_ALGORITHMS``); their CC/CCv verdicts come
        # from the streaming monitor (search cannot start at 10k ops)
        # and CONV from the live-state comparison
        ScenarioSpec(
            name="scale-n32-hotkey",
            description="10,240 Poisson ops over 32 replicas, hot-key "
            "contention — the relay-suppression tier: runs on the "
            "push/lazy-push broadcast family",
            n=32,
            streams=4,
            workload=WorkloadSpec(
                kind="open", ops_per_process=320, rate=4.0,
                write_ratio=0.5, hot_key_weight=0.8,
            ),
        ),
        ScenarioSpec(
            name="scale-n64-hotkey",
            description="10,240 Poisson ops over 64 replicas — the "
            "eager flood would cost 4032 sends per broadcast here; "
            "only the lazy family finishes inside a CI wall cap",
            n=64,
            streams=4,
            workload=WorkloadSpec(
                kind="open", ops_per_process=160, rate=4.0,
                write_ratio=0.5, hot_key_weight=0.8,
            ),
        ),
    ]


def _chaos() -> List[ScenarioSpec]:
    """The chaos tier: hand-picked demonstrations of the extended fault
    vocabulary (PR 6) — asymmetric partitions, flapping links, duplicate
    storms, reorder bursts and correlated crash storms.  Kept out of the
    *default* sweep so its verdict baselines stay comparable across
    versions; the chaos driver (``python -m repro chaos``) explores the
    same vocabulary randomly."""
    return [
        ScenarioSpec(
            name="asymmetric-oneway",
            description="one-way partition: (0,1) can hear (2,3) but not "
            "the reverse — acks flow, updates do not, until the heal",
            n=4,
            faults=(
                F.partition_oneway(1.5, (0, 1), (2, 3)),
                F.heal(7.0),
            ),
            workload=WorkloadSpec(ops_per_process=5, write_ratio=0.6),
        ),
        ScenarioSpec(
            name="dup-storm-flap",
            description="a retransmission storm (30% duplicates) over a "
            "flapping link, then a two-replica crash storm and a reorder "
            "burst — the full chaos vocabulary in one run",
            n=4,
            faults=(
                F.duplicate(0.5, 0.3),
                F.flap(2.0, 0, 3, cycles=2, period=1.0),
                F.crash_storm(5.0, (1, 2), downtime=2.5),
                F.reorder(9.0, 1.5),
                F.duplicate(12.0, 0.0),
                F.heal(12.5),
            ),
            workload=WorkloadSpec(ops_per_process=6, write_ratio=0.6),
        ),
    ]


SCENARIOS: Dict[str, ScenarioSpec] = {spec.name: spec for spec in _builtin()}

#: scale-up tier, resolvable by name but excluded from the default sweep
SCALE_SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec for spec in _scale()
}

#: chaos tier, resolvable by name but excluded from the default sweep
CHAOS_SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec for spec in _chaos()
}


def scenario_names(
    include_scale: bool = False, include_chaos: bool = False
) -> List[str]:
    names = list(SCENARIOS)
    if include_scale:
        names.extend(SCALE_SCENARIOS)
    if include_chaos:
        names.extend(CHAOS_SCENARIOS)
    return names


def get_scenario(name: str) -> ScenarioSpec:
    for tier in (SCENARIOS, SCALE_SCENARIOS, CHAOS_SCENARIOS):
        try:
            return tier[name]
        except KeyError:
            continue
    known = ", ".join(scenario_names(include_scale=True, include_chaos=True))
    raise KeyError(f"unknown scenario {name!r}; known: {known}")
