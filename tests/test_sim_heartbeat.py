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
import math
import pathlib
import sys

import pytest
from oracles import flooded, flooded_chaos_trial

from repro.algorithms import CCvWindowArray
from repro.chaos import make_spec, replay_file, run_chaos_trial
from repro.chaos.driver import ChaosFailure, save_repro
from repro.core.operations import Invocation
from repro.runtime import DelayModel, Network, ReliableBroadcast, Simulator
from repro.runtime.broadcast import ReliableEndpoint
from repro.runtime.monitors import RuntimeMonitor
from repro.runtime.transport import Transport
from repro.scenarios import (
    ALGORITHMS,
    FaultEvent,
    Scenario,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
)
from repro.scenarios.spec import DelaySpec
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
    assert service.repairs_sent == 0 and service.nacks_sent == 0
    # each broadcast crosses each of the n-1 links once, and that is all
    assert result.network_stats.sent == broadcasts(service) * (spec.n - 1)
    assert result.network_stats.elided == 0
    assert not result.sim.pending and service._hb is None


@pytest.mark.parametrize("key", DIRECT_ROWS)
def test_copies_that_overtake_one_another_are_not_nacked(key, monkeypatch):
    """Per-link delays of 2–12 with 20% jitter let a copy arrive up to
    4.8 after one sent later on its link: gaps open, and none is old
    enough to be taken for loss."""
    spec = ScenarioSpec(
        "quiet-per-link",
        n=6,
        delay=DelaySpec("per-link", (2.0, 12.0, 0.2)),
        workload=WorkloadSpec(ops_per_process=40),
    )
    gaps = []
    on_gap = ReliableEndpoint._on_gap

    def counted(endpoint, origin, seq):
        gaps.append(seq)
        on_gap(endpoint, origin, seq)

    monkeypatch.setattr(ReliableEndpoint, "_on_gap", counted)
    result = ALGORITHMS[key].run(spec, 3)
    service = result.algorithm.broadcast
    assert gaps and service.nacks_sent == 0 and service.repairs_sent == 0
    assert service.network.overtake == pytest.approx(4.8)


def test_where_no_copy_is_ever_proven_lost_no_gap_is_kept(monkeypatch):
    """Exponential delays bound no overtaking: a gap in an origin's
    copies is never taken for loss, so nothing is kept about it either
    (kept, a run's arrivals would grow with it), and the loss is
    repaired from digests alone."""
    spec = lossdup(
        ops=100, faults=(F.reorder(20.0, 30.0), F.reorder(120.0, 30.0))
    )
    spec = ScenarioSpec(
        "lossdup-exponential",
        n=spec.n,
        streams=spec.streams,
        k=spec.k,
        delay=DelaySpec("exponential", (1.0,)),
        faults=spec.faults,
        workload=spec.workload,
    )
    gaps = []
    on_gap = ReliableEndpoint._on_gap

    def counted(endpoint, origin, seq):
        gaps.append(seq)
        on_gap(endpoint, origin, seq)

    monkeypatch.setattr(ReliableEndpoint, "_on_gap", counted)
    result = run(spec)
    service = result.algorithm.broadcast
    assert service.network.overtake == math.inf
    assert gaps and result.network_stats.lost > 0
    assert all(not endpoint._gaps for endpoint in service.endpoints.values())
    assert service.nacks_sent == 0 and service.repairs_sent > 0
    assert result.monitor.ok and result.blocked == 0
    assert result.algorithm.converged()


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


# ----------------------------------------------------------------------
# One repair per lost copy: the benchmark's sim_faults cells, counted
# ----------------------------------------------------------------------
BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

from suite import sim as sim_faults  # noqa: E402


@pytest.fixture(scope="module")
def sim_faults_cells():
    """Each ``sim_faults`` cell at seed 1, as the benchmark runs it, with
    every broadcast's visibility: from its delivery at its origin to its
    delivery at the last of the other replicas, in simulated time."""
    inputs = sim_faults.make_inputs(1)
    scripts = [
        [Invocation(op[0], tuple(op[1:])) for op in row] for row in inputs["scripts"]
    ]
    delivered = {}
    hook = RuntimeMonitor.on_causal_deliver

    def observe(monitor, pid, mid, origin, stamp):
        delivered.setdefault(mid, {})[pid] = monitor.sim.now
        return hook(monitor, pid, mid, origin, stamp)

    cells = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RuntimeMonitor, "on_causal_deliver", observe)
        for doc in inputs["specs"]:
            spec = ScenarioSpec.from_dict(doc)
            delivered.clear()
            result = Scenario(spec).run(
                CCvWindowArray, seed=1, scripts=scripts, streams=spec.streams, k=spec.k
            )
            visibility = sorted(
                max(at for pid, at in times.items() if pid != mid[0]) - times[mid[0]]
                for mid, times in delivered.items()
                if mid[0] in times and len(times) > 1
            )
            cells[spec.name] = (result, visibility)
    return cells


def percentile(ordered, q):
    return ordered[round(q * (len(ordered) - 1))]


def test_lossdup_repairs_each_lost_copy_about_once_and_soon(sim_faults_cells):
    """Every holder resent a lost copy a heartbeat late: 687 lost copies
    drew 3,575 repairs, and visibility was 31.8 / 48.0 at p50 / p99."""
    result, visibility = sim_faults_cells["lossdup"]
    service = result.algorithm.broadcast
    lost = result.network_stats.lost
    assert lost > 0 and service.nacks_sent > 0
    assert service.repairs_sent <= 1.2 * lost
    assert percentile(visibility, 0.50) < 31.8
    assert percentile(visibility, 0.99) <= 48.0
    assert result.monitor.ok and result.blocked == 0


def test_reorder_repairs_no_more_than_every_holder_did(sim_faults_cells):
    result, _ = sim_faults_cells["reorder"]
    assert result.algorithm.broadcast.repairs_sent <= 1162
    assert result.network_stats.lost == 0 and result.monitor.ok


def test_a_partition_without_loss_asks_for_nothing(sim_faults_cells):
    result, _ = sim_faults_cells["partition"]
    service = result.algorithm.broadcast
    assert service.nacks_sent == 0 and service.repairs_sent == 0
    assert result.monitor.ok and result.blocked == 0


def test_a_recovered_replica_nacks_what_it_dropped_while_down(sim_faults_cells):
    """Copies that reached the crashed replica were dropped: after its
    recovery the next copy from their origin shows the gap."""
    result, _ = sim_faults_cells["crash"]
    service = result.algorithm.broadcast
    assert result.network_stats.lost == 0
    assert result.network_stats.dropped_to_crashed > 0
    assert service.nacks_sent > 0 and result.monitor.ok and result.blocked == 0


def test_the_network_bounds_how_far_a_copy_is_overtaken():
    net = Network(Simulator(seed=0), 4)  # uniform(0.5, 1.5)
    assert net.overtake == pytest.approx(1.0)
    net.set_delay_scale(3.0)  # a copy sent now may take 4.5, a later one 0.5
    net.set_delay_scale(1.0)
    assert net.overtake == pytest.approx(4.0)
    net.set_delay_scale(0.5)
    assert net.overtake == pytest.approx(4.25)
    net.start_reorder(10.0)
    for i in range(100):
        net.send(0, 1, {"id": (0, i), "origin": 0, "payload": i})
    net.sim.run()  # the release hands the first copy in last, 5.0 on
    assert net.overtake == pytest.approx(5.0)
    assert Network(Simulator(), 2, DelayModel.exponential(1.0)).overtake == math.inf


def test_a_delay_spike_without_loss_is_not_taken_for_loss():
    result = ALGORITHMS["ccv-fig5"].run(get_scenario("delay-spike"), 1)
    assert result.network_stats.lost == 0
    assert result.algorithm.broadcast.nacks_sent == 0


@pytest.mark.parametrize(
    "delay, faults",
    [
        (DelaySpec("per-link", (2.0, 12.0, 0.2)), ()),
        (DelaySpec(), (F.delay_spike(20.0, 6.0), F.delay_spike(60.0, 1.0))),
    ],
    ids=["per-link", "delay-spike"],
)
def test_a_nacked_copy_is_not_asked_for_again_before_its_repair_is_due(
    delay, faults
):
    """A repair is overdue only after the longest delay plus the
    overtaking bound: asked again sooner, a repair still in flight is
    sent twice (a fixed grace of 3 units drew 1.85 repairs per lost
    copy here on per-link delays of 2–12, 1.30 under a 6x spike)."""
    spec = lossdup(faults=faults)
    spec = ScenarioSpec(
        "lossy-" + spec.name,
        n=spec.n,
        streams=spec.streams,
        k=spec.k,
        delay=delay,
        faults=spec.faults,
        workload=spec.workload,
    )
    result = run(spec)
    service = result.algorithm.broadcast
    lost = result.network_stats.lost
    assert lost > 0 and service.nacks_sent > 0
    assert service.repairs_sent <= 1.2 * lost
    assert result.monitor.ok and result.blocked == 0
    assert result.algorithm.converged()
