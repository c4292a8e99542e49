"""Unit tests for the simulation substrate (Sec. 6.1)."""

import pytest

from repro.runtime import (
    DelayModel,
    HistoryRecorder,
    LamportClock,
    Network,
    Simulator,
    VectorClock,
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

    def test_cancel(self):
        sim = Simulator()
        trace = []
        entry = sim.schedule(1.0, lambda: trace.append("x"))
        sim.cancel(entry)
        sim.run()
        assert trace == []

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


class TestClocks:
    def test_lamport_tick_and_merge(self):
        clock = LamportClock(pid=2)
        assert clock.tick() == (1, 2)
        clock.merge(10)
        assert clock.tick() == (11, 2)

    def test_lamport_stamps_totally_ordered(self):
        a, b = LamportClock(0), LamportClock(1)
        assert a.tick() < b.tick()  # equal times broken by pid

    def test_vector_clock_causal_delivery_condition(self):
        vc = VectorClock(3)
        # message 1 from p0 with no dependencies
        assert vc.can_deliver(0, (1, 0, 0))
        vc.deliver(0)
        # message from p1 depending on p0's first message
        assert vc.can_deliver(1, (1, 1, 0))
        # message from p2 depending on an unseen p1 message
        assert not vc.can_deliver(2, (0, 2, 1))
        # out-of-order from p0 (its message 3 before 2)
        assert not vc.can_deliver(0, (3, 0, 0))

    def test_vector_clock_dominates(self):
        vc = VectorClock(2)
        vc.deliver(0)
        assert vc.dominates((1, 0)) and not vc.dominates((1, 1))


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
