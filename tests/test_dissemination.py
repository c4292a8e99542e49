"""The reliable broadcast's two relays deliver the same world.

``relay="direct"`` (the default: each message sent once per peer, from
its origin, loss repaired from heartbeat digests) and ``relay="flood"``
(each process relays a message the first time it sees it) are two ways
to spread the same reliable broadcast.  Over randomized fault schedules
they must leave every replica with the same seen-set, and on a dense
fault-free workload the direct run must deliver what the recorded flood
run delivered, with n-1 copies per broadcast instead of ~n(n-1).  Each
relay also delivers every broadcast once everywhere, in causal order
under ``CausalBroadcast``; a direct copy only ever crosses an
origin -> peer link, once per peer.  The scale tiers that exercise the
fan-out are registered here too.
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.chaos import make_spec, random_fault_events, run_chaos_trial
from repro.runtime import (
    CausalBroadcast,
    DelayModel,
    FifoBroadcast,
    Network,
    ReliableBroadcast,
    RuntimeMonitor,
    Simulator,
)
from repro.scenarios import (
    SCALE_SCENARIOS,
    Scenario,
    ScenarioSpec,
    get_scenario,
    scenario_names,
)
from repro.scenarios.matrix import (
    ALGORITHMS,
    SCALE_TIER_ALGORITHMS,
    default_algorithms,
)

#: the dense fan-out cells of the retired ``bench_runtime.py --fanout
#: --smoke --baseline`` gate, recorded under the flood (values carried
#: over, not re-recorded)
FANOUT_GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "goldens" / "runtime.json").read_text()
)["fanout"]


def _seen_sets(service):
    """Per-replica set of seen message ids (frontier + spill)."""
    return [frozenset(service.seen_ids(pid)) for pid in range(service.n)]


def _broadcasts_issued(service):
    """Original broadcasts: each endpoint's own next sequence number."""
    return sum(e.frontier[pid] for pid, e in service.endpoints.items())


class LinkLog(Network):
    """A :class:`Network` that records every copy handed to it as
    ``(src, dst, message id)``, before any fault or dedup acts on it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.copies = []

    def send(self, src, dst, payload):
        self.copies.append((src, dst, payload["id"]))
        super().send(src, dst, payload)

    def multicast(self, src, payload):
        self.copies.extend(
            (src, dst, payload["id"]) for dst in range(self.n) if dst != src
        )
        super().multicast(src, payload)


def _rig(relay, cls=ReliableBroadcast, n=6, seed=0, delay=None):
    """A bare broadcast service over ``relay``: endpoints record
    (origin, payload) per replica, a runtime monitor is attached."""
    sim = Simulator(seed=seed)
    net = LinkLog(sim, n, delay=delay or DelayModel.constant(1.0))
    svc = cls(net, relay=relay)
    svc.monitor = RuntimeMonitor(n, sim=sim)
    delivered = [[] for _ in range(n)]
    endpoints = [
        svc.endpoint(
            pid,
            lambda origin, payload, me=pid: delivered[me].append(
                (origin, payload)
            ),
        )
        for pid in range(n)
    ]
    return sim, net, svc, endpoints, delivered


RELAY_NAMES = ("direct", "flood")


# ----------------------------------------------------------------------
# Full delivery over either relay
# ----------------------------------------------------------------------
class TestDelivery:
    @pytest.mark.parametrize(
        "cls", [ReliableBroadcast, FifoBroadcast, CausalBroadcast]
    )
    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("relay", RELAY_NAMES)
    def test_everyone_delivers_everything_exactly_once(self, relay, n, cls):
        sim, net, svc, eps, delivered = _rig(relay, cls, n=n, seed=2)
        expected = set()
        for pid in range(n):
            for i in range(5):
                eps[pid].broadcast(("m", pid, i))
                expected.add((pid, ("m", pid, i)))
        sim.run()
        for pid in range(n):
            assert set(delivered[pid]) == expected
            assert len(delivered[pid]) == len(expected)  # dedup
        assert svc.monitor.ok
        assert _seen_sets(svc) == [frozenset(
            {(p, s) for p in range(n) for s in range(5)}
        )] * n
        if isinstance(svc, CausalBroadcast):
            assert not any(svc.pending_messages(pid) for pid in range(n))
        assert svc.repairs_sent == 0  # nothing was lost

    @pytest.mark.parametrize(
        "cls", [ReliableBroadcast, FifoBroadcast, CausalBroadcast]
    )
    @pytest.mark.parametrize("n", [4, 8])
    def test_direct_sends_lost_in_a_burst_are_repaired(self, n, cls):
        """No relay covers a lost direct copy: the heartbeat digests do.
        A fifth of the copies sent while the burst lasts are lost; every
        replica still delivers every broadcast once, in per-origin
        order, and the repair chain ends."""
        sim, net, svc, eps, delivered = _rig("direct", cls, n=n, seed=3)
        net.set_loss_rate(0.2)
        sim.schedule(5.0, net.set_loss_rate, 0.0)
        for pid in range(n):
            for i in range(5):
                eps[pid].broadcast((pid, i))
        sim.run(until=20 * svc.HB_INTERVAL)  # a chain that never ends fails
        assert not sim.pending and svc._hb is None
        assert net.stats.lost > 0 and svc.repairs_sent > 0
        for log in delivered:
            assert sorted(log) == sorted(
                (p, (p, i)) for p in range(n) for i in range(5)
            )
            if cls is not ReliableBroadcast:
                for origin in range(n):
                    seqs = [i for o, (_, i) in log if o == origin]
                    assert seqs == list(range(5))
        assert svc.monitor.ok

    @pytest.mark.parametrize("relay", RELAY_NAMES)
    def test_causal_order_preserved_per_origin(self, relay):
        n = 8
        sim, net, svc, eps, delivered = _rig(
            relay, CausalBroadcast, n=n, seed=4,
            delay=DelayModel.uniform(0.5, 5.0),
        )
        for i in range(6):
            for pid in range(n):
                eps[pid].broadcast((pid, i))
        sim.run()
        for pid in range(n):
            for origin in range(n):
                seqs = [i for o, (_, i) in delivered[pid] if o == origin]
                assert seqs == list(range(6))  # FIFO per origin (⊆ causal)
        assert svc.monitor.ok

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_the_flood_costs_n_times_the_direct_sends(self, n):
        """Fault-free, a direct broadcast is n-1 copies; the flood adds
        each receiver's first-sight relay to its n-1 peers: n(n-1)."""
        sent = {}
        for relay in RELAY_NAMES:
            sim, net, svc, eps, delivered = _rig(relay, n=n, seed=0)
            for pid in range(n):
                for i in range(8):
                    eps[pid].broadcast((pid, i))
            sim.run()
            broadcasts = _broadcasts_issued(svc)
            assert broadcasts == 8 * n
            assert all(len(log) == broadcasts for log in delivered)
            sent[relay] = net.stats.sent
            assert len(net.copies) == sent[relay]
        assert sent["direct"] == broadcasts * (n - 1)
        assert sent["flood"] == n * sent["direct"]


# ----------------------------------------------------------------------
# The direct fan-out: origin -> peer, once per peer
# ----------------------------------------------------------------------
class TestDirectFanout:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 12, 32, 64])
    @pytest.mark.parametrize("seed", [0, 1, 5, 99])
    def test_well_formed(self, seed, n):
        """A seeded burst of broadcasts, interleaved with partial runs
        over random delays: every copy leaves its message's origin, goes
        to each other process exactly once and never to the origin
        itself; nothing is relayed, nothing repaired, all delivered."""
        rng = random.Random(seed)
        sim, net, svc, eps, delivered = _rig(
            "direct", CausalBroadcast, n=n, seed=seed,
            delay=DelayModel.uniform(0.5, 5.0),
        )
        for step in range(2 * n):
            pid = rng.randrange(n)
            eps[pid].broadcast((pid, step))
            if rng.random() < 0.3:
                sim.run(until=sim.now + rng.uniform(0.0, 3.0))
        sim.run()
        mids = {mid for _src, _dst, mid in net.copies}
        assert len(net.copies) == len(mids) * (n - 1)
        per_link = {}
        for src, dst, mid in net.copies:
            assert src == mid[0] != dst
            per_link[(mid, dst)] = per_link.get((mid, dst), 0) + 1
        assert set(per_link.values()) == {1}
        assert all(len(log) == 2 * n for log in delivered)
        assert svc.repairs_sent == 0 and svc.monitor.ok


# ----------------------------------------------------------------------
# Registry integration
# ----------------------------------------------------------------------
class TestRegistryIntegration:
    def test_scale_tier_grouping(self):
        assert set(SCALE_TIER_ALGORITHMS) == set(SCALE_SCENARIOS)
        for name in ("scale-n8-hotkey", "scale-n12-hotkey"):
            assert default_algorithms(name) == ("lww", "gossip")
        for name in ("scale-n32-hotkey", "scale-n64-hotkey"):
            assert default_algorithms(name) == ("lww", "ccv-fig5")
        # a default scenario runs every registry row
        assert default_algorithms("churn") == tuple(ALGORITHMS)

    def test_fanout_tier_scenarios_registered(self):
        assert get_scenario("scale-n32-hotkey").n == 32
        assert get_scenario("scale-n64-hotkey").n == 64
        assert "scale-n32-hotkey" not in scenario_names()
        assert "scale-n32-hotkey" in scenario_names(include_scale=True)


# ----------------------------------------------------------------------
# The equivalence property: flood and direct see the same world
# ----------------------------------------------------------------------
class TestFloodDirectEquivalence:
    """Over randomized fault schedules (loss, partitions, crash storms,
    flapping, duplication, reorder — with repair sweeps), direct sends
    deliver exactly the flood's per-replica message sets, neither run
    fails the chaos predicate (convergence, runtime monitors), and the
    streaming CCv monitor finds no bad pattern in the direct run."""

    SCHEDULES = 32

    @pytest.mark.parametrize("schedule_seed", range(SCHEDULES))
    def test_same_delivery_sets_and_clean_monitors(self, schedule_seed):
        from repro.criteria.streaming_monitor import replay_history

        rng = random.Random(schedule_seed)
        faults = random_fault_events(rng, 6)
        spec = make_spec(f"prop-{schedule_seed}", 6, 5, faults, repairs=True)
        run_seed = 1000 + schedule_seed
        outcomes = {}
        seen = {}
        for relay in ("flood", None):
            outcome = run_chaos_trial(
                spec, "ccv-fig5", run_seed, "none", check_criterion=False,
                relay=relay,
            )
            assert not outcome.failed, (relay, outcome.failures)
            outcomes[relay] = outcome
            seen[relay] = _seen_sets(outcome.result.algorithm.broadcast)
        assert outcomes[None].result.algorithm.broadcast.relay == "direct"
        assert seen["flood"] == seen[None]
        verdicts = replay_history(
            outcomes[None].result.history,
            Scenario(spec).adt(),
            criteria=("CCV",),
        )
        assert verdicts["CCV"].ok is not False

    @pytest.mark.parametrize(
        "golden", FANOUT_GOLDENS, ids=lambda g: g["spec"]["name"]
    )
    def test_dense_fanout_matches_goldens(self, golden):
        """One dense hot-key workload under the flood (as recorded) and
        under direct sends: complete and equal delivered-id sets,
        convergence, clean monitors; the flood's message count and
        delivered digest as recorded, the direct run's digest equal to
        it at n-1 copies per broadcast — ≥4x fewer at n >= 32."""
        spec = ScenarioSpec.from_dict(golden["spec"])
        recorded = golden["ccv-fig5"]
        entry = ALGORITHMS["ccv-fig5"]
        seen, sent = {}, {}
        for relay in ("flood", "direct"):
            result = Scenario(spec).run(
                entry.cls, seed=golden["seed"],
                **entry.with_relay(relay).kwargs(spec.streams, spec.k),
            )
            service = result.algorithm.broadcast
            seen[relay] = _seen_sets(service)
            sent[relay] = result.network_stats.sent
            broadcasts = _broadcasts_issued(service)
            assert result.algorithm.converged(), relay
            assert result.monitor.ok, (relay, result.monitor.violations)
            assert not any(
                service.pending_messages(pid) for pid in range(spec.n)
            ), relay
            assert all(len(mids) == broadcasts for mids in seen[relay]), relay
            assert broadcasts == recorded["broadcasts"], relay
            digest = hashlib.sha256(
                repr([sorted(mids) for mids in seen[relay]]).encode()
            ).hexdigest()
            assert digest == recorded["delivered_digest"], relay
        assert sent["flood"] == recorded["messages_sent"]
        assert sent["direct"] == recorded["broadcasts"] * (spec.n - 1)
        assert seen["flood"] == seen["direct"]
        if spec.n >= 32:
            assert sent["flood"] >= 4 * sent["direct"]
