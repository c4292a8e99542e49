"""Heartbeat-digest repair on the simulated plane.

A reliable broadcast sends each message once per peer from its origin,
on both planes.  Where one service
hosts every process — the simulator — the service beats every
``HB_INTERVAL``: each live process's digest reaches every live peer it
is not separated from, whose endpoint runs the repair a live node runs
on a heartbeat, and the repairs travel as ordinary network copies.  The
chain of beats ends once no live, connected pair can repair anything,
and the next broadcast starts it again.
"""

import json

import pytest
from oracles import flooded, flooded_chaos_trial

from repro.algorithms import CCvWindowArray
from repro.chaos import make_spec, replay_file, run_chaos_trial
from repro.chaos.driver import ChaosFailure, save_repro
from repro.core.operations import Invocation
from repro.runtime import ReliableBroadcast, Simulator
from repro.runtime.transport import Transport
from repro.scenarios import ALGORITHMS, FaultEvent, Scenario, ScenarioSpec, WorkloadSpec
from repro.service.node import build_algorithm

F = FaultEvent

#: the registry rows over a reliable broadcast
DIRECT_ROWS = sorted(
    key
    for key, entry in ALGORITHMS.items()
    if issubclass(entry.cls.broadcast_cls or object, ReliableBroadcast)
)


def lossdup(ops=150, faults=()):
    """The ``sim_faults`` benchmark's ``lossdup`` cell without its repair
    sweeps: n=8, 5% loss and 5% duplication until t=200."""
    return ScenarioSpec(
        "lossdup-no-sweeps",
        n=8,
        streams=4,
        k=2,
        faults=(
            F.loss(0.0, 0.05),
            F.duplicate(0.0, 0.05),
            F.loss(200.0, 0.0),
            F.duplicate(200.0, 0.0),
            *faults,
        ),
        workload=WorkloadSpec(ops_per_process=ops, write_ratio=0.5),
    )


def run(spec, seed=1, cls=CCvWindowArray, **kwargs):
    return Scenario(spec).run(cls, seed=seed, streams=spec.streams, k=spec.k, **kwargs)


def broadcasts(service):
    return sum(endpoint.frontier[pid] for pid, endpoint in service.endpoints.items())


@pytest.mark.parametrize("key", DIRECT_ROWS)
def test_a_fault_free_run_repairs_nothing(key):
    spec = ScenarioSpec("quiet", n=6, workload=WorkloadSpec(ops_per_process=40))
    result = ALGORITHMS[key].run(spec, 3)
    service = result.algorithm.broadcast
    assert service.repairs_sent == 0
    # each broadcast crosses each of the n-1 links once, and that is all
    assert result.network_stats.sent == broadcasts(service) * (spec.n - 1)
    assert result.network_stats.elided == 0
    assert not result.sim.pending and service._hb is None


def test_lossdup_without_its_repair_sweeps_converges():
    result = run(lossdup())
    service = result.algorithm.broadcast
    assert result.network_stats.lost > 0
    assert service.repairs_sent > 0
    assert result.algorithm.converged()
    assert result.monitor.ok, result.monitor.violations
    assert not any(service.pending_messages(pid) for pid in range(8))
    seen = [service.seen_ids(pid) for pid in range(8)]
    assert all(ids == seen[0] for ids in seen)
    assert not result.sim.pending and service._hb is None


def test_the_flood_needs_no_repair_for_the_same_run():
    result = run(lossdup(), cls=flooded(CCvWindowArray))
    assert result.algorithm.broadcast.repairs_sent == 0
    assert result.algorithm.converged() and result.monitor.ok


def test_the_same_seed_records_the_same_run():
    spec = lossdup(ops=60, faults=(F.reorder(20.0, 40.0),))
    first, second = run(spec, seed=7), run(spec, seed=7)
    assert first.fingerprint() == second.fingerprint()
    assert first.algorithm.broadcast.repairs_sent == (
        second.algorithm.broadcast.repairs_sent
    ) > 0
    assert first.network_stats == second.network_stats


def test_a_permanent_partition_drains():
    """Loss before the cut leaves holes across it that no digest can
    reach: the chain stops once each side holds what its side holds."""
    spec = lossdup(ops=60, faults=(F.partition(30.0, range(4), range(4, 8)),))
    result = run(spec)
    service = result.algorithm.broadcast
    assert not result.sim.pending and service._hb is None
    assert service.repairs_sent > 0
    for side in (range(4), range(4, 8)):
        seen = [service.seen_ids(pid) for pid in side]
        assert all(ids == seen[0] for ids in seen)
    assert service.seen_ids(0) != service.seen_ids(4)


def test_a_crash_that_never_recovers_drains():
    spec = lossdup(ops=60, faults=(F.crash(20.0, 7),))
    result = run(spec)
    service = result.algorithm.broadcast
    assert not result.sim.pending and service._hb is None
    assert result.algorithm.converged()  # among the live replicas
    assert result.monitor.ok, result.monitor.violations


def test_a_gap_no_log_holds_drains():
    """The ``gc-frontier`` planted bug prunes what a crashed replica has
    not seen; recovered, it lacks messages no live peer retains.  Its
    frontier differs from its peers' for good, and the chain stops."""
    spec = make_spec("gc-gap", 4, 12, [F.crash(0.6, 3), F.recover(4.0, 3)])
    outcome = run_chaos_trial(spec, "ccv-fig5", 0, "gc-frontier", check_criterion=False)
    assert "gc-frontier" in outcome.kinds
    result = outcome.result
    service = result.algorithm.broadcast
    assert service.endpoints[3].frontier != service.endpoints[0].frontier
    assert not result.sim.pending and service._hb is None


class OnePeer(Transport):
    """Hosts pid 0 of 3, as a live node's transport does."""

    n = 3
    hosted = (0,)

    def attach(self, pid, handler):
        pass

    def attach_dedup(self, pid, seen):
        pass

    def attach_control(self, pid, handler):
        pass

    def multicast(self, src, payload):
        pass

    def is_crashed(self, pid):
        return False


@pytest.mark.parametrize("key", DIRECT_ROWS)
def test_a_live_node_sends_directly_and_beats_on_its_own(key):
    """The live node builds every reliable row over direct sends; its
    broadcast path is the plain multicast, since the node's own
    heartbeat carries digests."""
    _, algorithm = build_algorithm(key, Simulator(seed=0), OnePeer(), None, 2, 2)
    service = algorithm.broadcast
    endpoint = service.endpoints[0]
    assert isinstance(service, ReliableBroadcast)
    assert "_relay" not in vars(endpoint)
    algorithm.invoke(0, Invocation("w", (0, 1)))
    assert endpoint.frontier[0] == 1 and service._hb is None


def test_a_repro_with_a_stray_relay_key_replays_over_direct_sends(tmp_path):
    """The repro format names no dissemination: a ``relay`` key, which
    older documents carry, is not read, and the replay is the run a
    fresh trial of the same spec records."""
    spec = make_spec("stray-key", 4, 6, [F.crash(1.0, 3)])
    failure = ChaosFailure(
        trial=0, algorithm="ccv-fig5", run_seed=1, kinds=["divergence"],
        details=[], original_events=1, minimized=list(spec.faults), spec=spec,
    )
    path = save_repro(failure, "none", str(tmp_path))
    with open(path) as handle:
        doc = json.load(handle)
    assert "relay" not in doc
    doc["relay"] = "flood"
    with open(path, "w") as handle:
        json.dump(doc, handle)
    outcome, _ = replay_file(path)
    direct = run_chaos_trial(spec, "ccv-fig5", 1).result
    flood = flooded_chaos_trial(spec, "ccv-fig5", 1).result
    assert outcome.result.fingerprint() == direct.fingerprint()
    assert outcome.result.network_stats == direct.network_stats
    assert direct.network_stats.sent < flood.network_stats.sent
