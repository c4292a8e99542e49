"""Unit tests for the simulation substrate (Sec. 6.1)."""

import random

import pytest

from repro.adts import Counter
from repro.algorithms import GenericCCv, LwwReplication
from repro.runtime import (
    CausalBroadcast,
    DelayModel,
    HistoryRecorder,
    Network,
    Simulator,
)
from repro.core import inv


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator(seed=1)
        trace = []
        sim.schedule(2.0, lambda: trace.append("b"))
        sim.schedule(1.0, lambda: trace.append("a"))
        sim.schedule(3.0, lambda: trace.append("c"))
        sim.run()
        assert trace == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator(seed=1)
        trace = []
        sim.schedule(1.0, lambda: trace.append(1))
        sim.schedule(1.0, lambda: trace.append(2))
        sim.run()
        assert trace == [1, 2]

    def test_determinism_across_runs(self):
        def run(seed):
            sim = Simulator(seed=seed)
            values = []
            for _ in range(10):
                sim.schedule(sim.rng.random(), lambda: values.append(sim.now))
            sim.run()
            return values

        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_run_until(self):
        sim = Simulator()
        trace = []
        sim.schedule(1.0, lambda: trace.append(1))
        sim.schedule(5.0, lambda: trace.append(2))
        sim.run(until=2.0)
        assert trace == [1] and sim.now == 2.0
        sim.run()
        assert trace == [1, 2]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_event_budget(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)


class TestNetwork:
    def test_message_delivered_with_delay(self):
        sim = Simulator(seed=3)
        net = Network(sim, 2, delay=DelayModel.constant(2.5))
        inbox = []
        net.attach(1, lambda src, payload: inbox.append((sim.now, src, payload)))
        net.send(0, 1, "hello")
        sim.run()
        assert inbox == [(2.5, 0, "hello")]
        assert net.stats.sent == 1 and net.stats.delivered == 1

    def test_crashed_destination_drops(self):
        sim = Simulator()
        net = Network(sim, 2, delay=DelayModel.constant(1.0))
        inbox = []
        net.attach(1, lambda src, payload: inbox.append(payload))
        net.send(0, 1, "m1")
        net.crash(1)
        sim.run()
        assert inbox == [] and net.stats.dropped_to_crashed == 1

    def test_a_copy_is_dropped_only_if_it_arrives_while_its_destination_is_down(self):
        """Sent while pid 1 is down: "early" arrives before the recover
        and is dropped, "late" arrives after it and is delivered."""
        sim = Simulator()
        net = Network(sim, 2, delay=DelayModel.constant(2.0))
        inbox = []
        net.attach(1, lambda src, payload: inbox.append((sim.now, payload)))
        net.crash(1)
        net.send(0, 1, "early")  # arrives at 2.0
        sim.schedule(1.5, net.send, 0, 1, "late")  # arrives at 3.5
        sim.schedule(3.0, net.recover, 1)
        sim.run()
        assert inbox == [(3.5, "late")]
        assert net.stats.dropped_to_crashed == 1 and net.stats.delivered == 1

    def test_crashed_source_sends_nothing(self):
        sim = Simulator()
        net = Network(sim, 2)
        net.crash(0)
        net.send(0, 1, "m")
        assert net.stats.sent == 0

    def test_delay_models_statistics(self):
        sim = Simulator(seed=5)
        for model, lo, hi in [
            (DelayModel.constant(2.0), 2.0, 2.0),
            (DelayModel.uniform(1.0, 3.0), 1.0, 3.0),
            (DelayModel.exponential(1.0), 0.01, float("inf")),
        ]:
            samples = [model.sample(sim.rng, 0, 1) for _ in range(200)]
            assert all(lo <= s <= hi for s in samples)

    def test_per_link_stable_base(self):
        model = DelayModel.per_link(1.0, 10.0, jitter=0.0)
        rng = random.Random(0)
        first = model.sample(rng, 0, 1)
        assert all(model.sample(rng, 0, 1) == first for _ in range(5))

    def test_per_link_refuses_jitter_above_one(self):
        with pytest.raises(ValueError, match="'jitter' must be in"):
            DelayModel.per_link(0.5, 3.0, jitter=1.5)
        model = DelayModel.per_link(0.5, 3.0, jitter=1.0)
        rng = random.Random(0)
        assert all(model.sample(rng, 0, 1) >= 0 for _ in range(200))


class _CausalDeliveries:
    """A broadcast monitor recording each causal delivery as ``(pid, mid,
    origin, stamp, receiver's vector just before)``; other hooks no-op."""

    def __init__(self, service):
        self.service = service
        self.seen = []
        service.monitor = self

    def on_causal_deliver(self, pid, mid, origin, stamp):
        vc = list(self.service.endpoints[pid].vc)
        self.seen.append((pid, mid, origin, stamp, vc))

    def __getattr__(self, name):
        return lambda *args: None


class TestClocks:
    """The clocks the runtime keeps: the generic CCv replica's Lamport
    ``vtime`` and the causal endpoint's delivery vector ``vc``."""

    @staticmethod
    def _ccv(n):
        sim = Simulator(seed=1)
        net = Network(sim, n, delay=DelayModel.constant(1.0))
        return sim, GenericCCv(sim, net, adt=Counter())

    def test_lamport_tick_and_merge(self):
        _, obj = self._ccv(2)
        replica = obj.replicas[1]
        obj.invoke(1, inv("inc"))  # delivered locally at once
        assert replica.log[-1][0] == (1, 1, 0) and replica.vtime == 1
        replica.on_deliver(0, ((10, 0, 0), "inc", ()))
        obj.invoke(1, inv("inc"))
        assert replica.log[-1][0] == (11, 1, 1)

    def test_lamport_stamps_totally_ordered(self):
        sim, obj = self._ccv(2)
        obj.invoke(1, inv("inc"))
        obj.invoke(0, inv("inc"))  # concurrent: equal times, broken by pid
        sim.run()
        logs = [[key for key, _ in obj.replicas[pid].log] for pid in (0, 1)]
        assert logs[0] == logs[1] == [(1, 0, 0), (1, 1, 0)]

    def test_physical_stamp_ignores_the_lamport_clock(self):
        """LWW keeps ``vtime`` but stamps with the run's time (no skew
        here): a merged-in large timestamp does not feed the next stamp."""
        sim = Simulator(seed=1)
        obj = LwwReplication(sim, Network(sim, 2), adt=Counter())
        replica = obj.replicas[1]
        replica.on_deliver(0, ((10, 0, 0), "inc", ()))
        sim.schedule(2.5, obj.invoke, 1, inv("inc"))
        sim.run()
        assert replica.vtime == 10
        assert [key for key, _ in replica.log] == [(2.5, 1, 0), (10, 0, 0)]

    def test_stamp_counts_the_message_itself(self):
        sim = Simulator(seed=1)
        service = CausalBroadcast(Network(sim, 3))
        deliveries = _CausalDeliveries(service)
        endpoint = service.endpoint(1, lambda origin, payload: None)
        endpoint.vc[:] = [4, 0, 2]
        endpoint.broadcast("m")  # delivered at its origin at once
        assert [(pid, stamp) for pid, _, _, stamp, _ in deliveries.seen] == [
            (1, (4, 1, 2))
        ]
        assert endpoint.vc == [4, 1, 2]

    def test_vector_clock_causal_delivery_condition(self):
        sim = Simulator(seed=1)
        service = CausalBroadcast(Network(sim, 4))
        got = []
        endpoint = service.endpoint(3, lambda origin, payload: got.append(payload))

        def arrive(origin, seq, stamp):
            payload = f"p{origin}#{seq + 1}"
            message = {"id": (origin, seq), "origin": origin,
                       "payload": payload, "stamp": stamp}
            endpoint.receive(origin, message)

        arrive(0, 0, (1, 0, 0, 0))  # no dependencies
        arrive(1, 0, (1, 1, 0, 0))  # depends on p0's first message
        arrive(2, 0, (0, 2, 1, 0))  # depends on an unseen p1 message
        arrive(0, 2, (3, 0, 0, 0))  # p0's third before its second
        assert got == ["p0#1", "p1#1"] and endpoint.vc == [1, 1, 0, 0]
        assert endpoint.pending() == 2
        arrive(0, 1, (2, 0, 0, 0))
        arrive(1, 1, (1, 2, 0, 0))
        assert got[2:] == ["p0#2", "p0#3", "p1#2", "p2#1"]
        assert endpoint.vc == [3, 2, 1, 0] and endpoint.pending() == 0

    def test_vector_clock_dominates(self):
        """At each delivery the receiver's vector dominates the message's
        causal past: its stamp less the message itself."""
        sim = Simulator(seed=2)
        service = CausalBroadcast(
            Network(sim, 3, delay=DelayModel.uniform(0.5, 5.0))
        )
        deliveries = _CausalDeliveries(service)

        def echo(pid):
            # a delivered k > 0 makes the receiver broadcast k - 1
            return lambda origin, k: k and service.broadcast(pid, k - 1)

        for pid in range(3):
            service.endpoint(pid, echo(pid))
        for pid in range(3):
            sim.schedule(0.1 * pid, service.broadcast, pid, 2)
        sim.run()
        mids = [mid for _, mid, _, _, _ in deliveries.seen]
        assert len(mids) == 3 * len(set(mids)) == 3 * 39  # all, everywhere
        for _, _, origin, stamp, vc in deliveries.seen:
            past = list(stamp)
            past[origin] -= 1
            assert all(v >= p for v, p in zip(vc, past)), (vc, stamp)
            assert vc[origin] == past[origin]
        assert all(
            service.endpoints[pid].vc == service.endpoints[0].vc
            for pid in range(3)
        )


class TestRecorder:
    def test_rows_to_history(self):
        rec = HistoryRecorder(2)
        rec.record(0, inv("w", 1), None, 0.0, 0.0)
        rec.record(1, inv("r"), (0, 1), 1.0, 2.0)
        h = rec.to_history()
        assert len(h) == 2
        assert h.event(0).process == 0 and h.event(1).process == 1

    def test_empty_rows_dropped(self):
        rec = HistoryRecorder(3)
        rec.record(2, inv("w", 1), None, 0.0, 0.0)
        h = rec.to_history()
        assert len(h) == 1 and h.event(0).process == 0

    def test_stable_marking(self):
        rec = HistoryRecorder(1)
        rec.record(0, inv("w", 1), None, 0.0, 0.0)
        rec.mark_quiescent()
        rec.record(0, inv("r"), (0, 1), 1.0, 1.0)
        assert rec.stable_eids() == {1}

    def test_latency_accounting(self):
        rec = HistoryRecorder(1)
        rec.record(0, inv("w", 1), None, 0.0, 3.0)
        rec.record(0, inv("r"), 0, 4.0, 5.0)
        assert rec.mean_latency() == 2.0
        assert rec.count() == 2
