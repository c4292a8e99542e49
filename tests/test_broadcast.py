"""Broadcast-primitive properties: reliability, FIFO, causal and total
order (Sec. 6.1, [10])."""

import itertools
import random

import pytest
from oracles import flooding

from repro.adts import Counter
from repro.algorithms import CCvWindowArray, CCWindowArray, GenericCausal, GenericCCv
from repro.runtime import (
    CausalBroadcast,
    DelayModel,
    FifoBroadcast,
    Network,
    ReliableBroadcast,
    Simulator,
    TotalOrderBroadcast,
)


def _setup(service_cls, n, seed=0, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, n, delay=DelayModel.uniform(0.5, 5.0))
    service = service_cls(net, **kwargs)
    logs = [[] for _ in range(n)]
    endpoints = [
        service.endpoint(pid, lambda origin, payload, p=pid: logs[p].append((origin, payload)))
        for pid in range(n)
    ]
    return sim, net, service, endpoints, logs


class TestReliableBroadcast:
    def test_everyone_delivers_everything(self):
        sim, _, _, endpoints, logs = _setup(ReliableBroadcast, 3, seed=1)
        endpoints[0].broadcast("a")
        endpoints[1].broadcast("b")
        sim.run()
        for log in logs:
            assert sorted(p for _, p in log) == ["a", "b"]

    @pytest.mark.parametrize("relay", ["eager", "", None, "flood", "direct"])
    def test_an_unknown_relay_is_refused(self, relay):
        """A reliable broadcast spreads a write one way, direct sends and
        digest repair, so no service and no replica takes a ``relay``
        keyword, the names it once knew included."""
        sim = Simulator(seed=0)
        net = Network(sim, 3)
        knob = {"relay": relay}
        with pytest.raises(TypeError, match="relay"):
            ReliableBroadcast(net, **knob)
        for cls in (CCWindowArray, CCvWindowArray):
            with pytest.raises(TypeError, match="relay"):
                cls(sim, net, **knob)
        for cls in (GenericCausal, GenericCCv):
            with pytest.raises(TypeError, match="relay"):
                cls(sim, net, adt=Counter(), **knob)

    def test_local_delivery_immediate(self):
        sim, _, _, endpoints, logs = _setup(ReliableBroadcast, 2)
        endpoints[0].broadcast("x")
        # before running the simulation, the broadcaster has delivered
        assert logs[0] == [(0, "x")] and logs[1] == []
        sim.run()
        assert logs[1] == [(0, "x")]

    def test_a_mid_broadcast_crash_is_repaired_from_digests(self):
        """Agreement under crash: if any correct process delivers, all do.
        The broadcaster crashes right after one unicast leg landed, its
        other leg still slow on the wire; the survivor that holds the
        message resends it on the heartbeat, before the slow copy."""
        sim = Simulator(seed=2)

        # p0 -> p1 fast, p0 -> p2 slow: crash p0 in between
        class SplitDelay(DelayModel):
            def sample(self, rng, src, dst):
                return 200.0 if (src == 0 and dst == 2) else 1.0

        net = Network(sim, 3, delay=SplitDelay())
        service = ReliableBroadcast(net)
        logs = [[] for _ in range(3)]
        for pid in range(3):
            service.endpoint(pid, lambda o, p, i=pid: logs[i].append(p))
        service.broadcast(0, "m")
        sim.schedule(2.0, lambda: net.crash(0))
        sim.run(until=100.0)
        assert logs[1] == ["m"]
        assert logs[2] == ["m"], "the repair must out-run the slow direct leg"
        assert service.repairs_sent == 1


    def test_flooding_survives_mid_broadcast_crash(self):
        """The reference flood (``oracles.flooding``) reaches agreement
        the other way: the survivor that holds the message passes it on
        at first sight, before the slow direct leg and with no repair."""
        sim = Simulator(seed=2)

        class SplitDelay(DelayModel):
            def sample(self, rng, src, dst):
                return 50.0 if (src == 0 and dst == 2) else 1.0

        net = Network(sim, 3, delay=SplitDelay())
        service = flooding(ReliableBroadcast)(net)
        logs = [[] for _ in range(3)]
        for pid in range(3):
            service.endpoint(pid, lambda o, p, i=pid: logs[i].append(p))
        service.broadcast(0, "m")
        sim.schedule(2.0, lambda: net.crash(0))
        sim.run(until=10.0)
        assert logs[1] == ["m"]
        assert logs[2] == ["m"], "flooding must out-run the slow direct leg"
        assert service.repairs_sent == 0

    def test_without_flooding_crash_loses_agreement(self):
        """Direct sends alone do not give agreement: with the leg to p2
        blocked and the broadcaster crashed, only digest repair carries
        the message on.  A service whose heartbeat is never armed leaves
        p2 without it for good; the real one repairs it."""

        class Unrepaired(ReliableBroadcast):
            def arm_heartbeat(self):
                pass

        def run(service_cls):
            sim = Simulator(seed=2)
            net = Network(sim, 3, delay=DelayModel.constant(1.0))
            service = service_cls(net)
            logs = [[] for _ in range(3)]
            for pid in range(3):
                service.endpoint(pid, lambda o, p, i=pid: logs[i].append(p))
            net.block_links([(0, 2)])
            service.broadcast(0, "m")
            sim.schedule(2.0, lambda: net.crash(0))
            sim.run()
            return service, logs

        service, logs = run(Unrepaired)
        assert logs[1] == ["m"] and logs[2] == []
        assert service.repairs_sent == 0
        service, logs = run(ReliableBroadcast)
        assert logs[1] == ["m"] and logs[2] == ["m"]
        assert service.repairs_sent == 1


class TestFifoBroadcast:
    def test_per_sender_order(self):
        sim, _, _, endpoints, logs = _setup(FifoBroadcast, 3, seed=7)
        for i in range(5):
            endpoints[0].broadcast(("m", i))
        sim.run()
        for log in logs:
            from_p0 = [p for o, p in log if o == 0]
            assert from_p0 == [("m", i) for i in range(5)]

    def test_interleaving_across_senders_unconstrained(self):
        sim, _, _, endpoints, logs = _setup(FifoBroadcast, 2, seed=9)
        endpoints[0].broadcast("a0")
        endpoints[1].broadcast("b0")
        sim.run()
        assert {p for _, p in logs[0]} == {"a0", "b0"}


class TestCausalBroadcast:
    def test_causal_delivery_order(self):
        """If p1 broadcasts after delivering p0's message, nobody delivers
        p1's before p0's (the [10] property)."""
        for seed in range(10):
            sim, _, service, endpoints, logs = _setup(CausalBroadcast, 3, seed=seed)
            endpoints[0].broadcast("question")

            # p1 answers as soon as it sees the question
            def check_p1(origin, payload):
                if payload == "question":
                    endpoints[1].broadcast("answer")

            service.delivery_handlers[1] = lambda o, p: (
                logs[1].append((o, p)),
                check_p1(o, p),
            )
            sim.run()
            for log in logs:
                payloads = [p for _, p in log]
                if "answer" in payloads:
                    assert payloads.index("question") < payloads.index("answer")

    def test_buffered_until_dependencies(self):
        sim, _, service, endpoints, logs = _setup(CausalBroadcast, 2, seed=3)
        endpoints[0].broadcast("m1")
        endpoints[0].broadcast("m2")
        sim.run()
        assert [p for _, p in logs[1]] == ["m1", "m2"]

    def test_all_delivered_eventually(self):
        sim, _, service, endpoints, logs = _setup(CausalBroadcast, 4, seed=11)
        for pid in range(4):
            endpoints[pid].broadcast(f"m{pid}")
        sim.run()
        for pid, log in enumerate(logs):
            assert len(log) == 4
            assert service.pending_messages(pid) == 0


class TestTotalOrderBroadcast:
    def test_same_delivery_order_everywhere(self):
        sim = Simulator(seed=13)
        net = Network(sim, 3, delay=DelayModel.uniform(0.5, 4.0))
        service = TotalOrderBroadcast(net)
        logs = [[] for _ in range(3)]
        for pid in range(3):
            service.endpoint(
                pid, lambda o, m, i=pid: logs[i].append(m["payload"])
            )
        for pid in range(3):
            service.broadcast(pid, f"op-{pid}")
            service.broadcast(pid, f"op-{pid}'")
        sim.run()
        assert logs[0] == logs[1] == logs[2]
        assert len(logs[0]) == 6

    def test_sequence_numbers_dense(self):
        sim = Simulator(seed=13)
        net = Network(sim, 2)
        service = TotalOrderBroadcast(net)
        seqs = []
        service.endpoint(0, lambda o, m: seqs.append(m["seq"]))
        service.endpoint(1, lambda o, m: None)
        for i in range(4):
            service.broadcast(1, i)
        sim.run()
        assert seqs == [0, 1, 2, 3]
