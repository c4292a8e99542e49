"""The simulated network's send path, against the networks before it.

``Network`` honours the broadcast layer's "seen?" predicate
(``Transport.attach_dedup``) when a copy is *sent*: a copy whose
destination already holds the message id makes every rng draw and every
``stats`` count it always made, and is never scheduled.  The behaviour
before that — every copy scheduled and delivered, the offer ignored —
lives on only here, as :class:`ScheduleEveryCopy`, swapped in for
``repro.scenarios.scenario.Network``.  The property requires both to
record the same run — history fingerprint with every time, duration,
send-side counters, per-replica seen-sets and runtime-monitor results —
under random fault schedules, every broadcast family (each reliable one
over both relays), sizes and seeds.

``Network`` also folds a copy into an earlier-arriving copy of the same
id already in flight to the same destination, and puts the earliest
folded copy back, under its own arrival time and sequence number, when
that earlier copy does not make the id seen.  Folding moves
``events_executed``, ``delivered``, ``dropped_to_crashed`` and ``elided``
on purpose, so against the references those are compared as sums with
``elided``; deterministic cases pin a fold, an earlier copy taking over,
a put-back after a crash drop and tie order.

``Network`` routes every copy through one method and draws it in one
loop.  The send path before that — a unicast through a per-copy
``_transmit`` that drew the duplicate, a multicast over precomputed
in-group / cross-group lists or per-destination ``send`` — lives on only
here, as :class:`TwoPathNetwork`.  The same property requires it to
leave the simulator where ``Network`` leaves it: fingerprint, clock,
send-side counters, the sums above and the next rng draw; one
deterministic case per routing branch pins every field exactly.
"""

import dataclasses
from heapq import heappush
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import CCvWindowArray
from repro.analysis import convergence
from repro.runtime import DelayModel, Network, Simulator
from repro.runtime.network import _message_id, _Uniform
from repro.runtime.transport import Transport
from repro.scenarios import (
    ALGORITHMS,
    DelaySpec,
    FaultEvent,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.scenarios import scenario as scenario_module

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


class TwoPathNetwork(Network):
    """The simulated network before its send path was folded into one
    route and one loop: a unicast (and a held-message flush) goes through
    ``_transmit``, which draws the duplicate; ``multicast`` fans out over
    the in-group destinations after holding the cross-group ones, or
    detours through per-destination ``send`` while a chaos fault is on;
    flushes and reorder releases open-code ``Simulator.schedule``."""

    def _end_reorder(self, end: float) -> None:
        if self._reorder_until != end:
            return
        self._reorder_until = None
        buf, self._reorder_buf = self._reorder_buf, {}
        sim = self.sim
        spacing = self.REORDER_SPACING
        for (src, dst), payloads in buf.items():
            if self._separated(src, dst):
                self.stats.held += len(payloads)
                self._held.extend(
                    (src, dst, payload) for payload in reversed(payloads)
                )
                continue
            for k, payload in enumerate(reversed(payloads)):
                delay = spacing * (k + 1)
                self.stats.sent += 1
                if self._holds(dst, payload):
                    self._elide(sim.now + delay)
                    continue
                seq = sim._next_seq
                sim._next_seq = seq + 1
                sim._events[seq] = (self._deliver, (src, dst, payload, delay))
                heappush(sim._heap, (sim.now + delay, seq))

    def _flush_held(self) -> None:
        held, self._held = self._held, []
        for src, dst, payload in held:
            if self._separated(src, dst):
                self._held.append((src, dst, payload))
            else:
                self._transmit(src, dst, payload, lossy=False)

    def send(self, src: int, dst: int, payload: Any) -> None:
        if src in self.crashed:
            return
        if (self._group_of is not None or self._blocked) and self._separated(
            src, dst
        ):
            self.stats.held += 1
            self._held.append((src, dst, payload))
            return
        if self._reorder_until is not None:
            self.stats.reordered += 1
            self._reorder_buf.setdefault((src, dst), []).append(payload)
            return
        self._transmit(src, dst, payload, lossy=True)

    def multicast(self, src: int, payload: Any) -> None:
        if src in self.crashed:
            return
        if (
            self._blocked
            or self._reorder_until is not None
            or self.duplicate_rate
        ):
            for dst in self._peers[src]:
                self.send(src, dst, payload)
            return
        if self._group_of is None:
            self._fan_out(src, self._peers[src], payload)
            return
        group = self._group_of.get
        mine = group(src, -1)
        cross = tuple(d for d in self._peers[src] if group(d, -1) != mine)
        if cross:
            self.stats.held += len(cross)
            for dst in cross:
                self._held.append((src, dst, payload))
        self._fan_out(
            src, tuple(d for d in self._peers[src] if group(d, -1) == mine), payload
        )

    def _fan_out(self, src, dsts, payload) -> None:
        stats = self.stats
        sim = self.sim
        rng = sim.rng
        model = self.delay
        scale = self.delay_scale
        loss_rate = self.loss_rate
        deliver = self._deliver
        stats.sent += len(dsts)
        events = sim._events
        heap = sim._heap
        now = sim.now
        seq = sim._next_seq
        mid = _message_id(payload)
        dedup = self._dedup
        elided = 0
        last = sim.elided_until
        if (
            type(model) is _Uniform
            and scale == 1.0
            and not loss_rate
            and model.low >= 0.0
            and model.high >= 0.0
        ):
            low = model.low
            width = model.high - low
            random = rng.random
            for dst in dsts:
                delay = low + width * random()
                if mid is not None:
                    seen = dedup[dst]
                    if seen is not None and seen(mid):
                        elided += 1
                        if now + delay > last:
                            last = now + delay
                        continue
                events[seq] = (deliver, (src, dst, payload, delay))
                heappush(heap, (now + delay, seq))
                seq += 1
        else:
            sample = model.sample
            for dst in dsts:
                if loss_rate and rng.random() < loss_rate:
                    stats.lost += 1
                    continue
                delay = sample(rng, src, dst) * scale
                if delay < 0:
                    raise ValueError("cannot schedule in the past")
                if mid is not None:
                    seen = dedup[dst]
                    if seen is not None and seen(mid):
                        elided += 1
                        if now + delay > last:
                            last = now + delay
                        continue
                events[seq] = (deliver, (src, dst, payload, delay))
                heappush(heap, (now + delay, seq))
                seq += 1
        sim._next_seq = seq
        if elided:
            stats.elided += elided
            sim.elided_until = last

    def _transmit(self, src: int, dst: int, payload: Any, lossy: bool) -> None:
        self.stats.sent += 1
        sim = self.sim
        rng = sim.rng
        if lossy and self.loss_rate and rng.random() < self.loss_rate:
            self.stats.lost += 1
            return
        held = self._holds(dst, payload)
        model = self.delay
        if type(model) is _Uniform and self.delay_scale == 1.0:
            delay = model.low + (model.high - model.low) * rng.random()
        else:
            delay = model.sample(rng, src, dst) * self.delay_scale
        if delay < 0:
            raise ValueError("cannot schedule in the past")
        if held:
            self._elide(sim.now + delay)
        else:
            seq = sim._next_seq
            sim._next_seq = seq + 1
            sim._events[seq] = (self._deliver, (src, dst, payload, delay))
            heappush(sim._heap, (sim.now + delay, seq))
        if self.duplicate_rate and rng.random() < self.duplicate_rate:
            self.stats.duplicated += 1
            if type(model) is _Uniform and self.delay_scale == 1.0:
                dup = model.low + (model.high - model.low) * rng.random()
            else:
                dup = model.sample(rng, src, dst) * self.delay_scale
            if dup < 0:
                raise ValueError("cannot schedule in the past")
            if held:
                self._elide(sim.now + dup)
                return
            seq = sim._next_seq
            sim._next_seq = seq + 1
            sim._events[seq] = (self._deliver, (src, dst, payload, dup))
            heappush(sim._heap, (sim.now + dup, seq))

    def _holds(self, dst: int, payload: Any) -> bool:
        seen = self._dedup[dst]
        if seen is None:
            return False
        mid = _message_id(payload)
        return mid is not None and seen(mid)

    def _elide(self, arrival: float) -> None:
        self.stats.elided += 1
        sim = self.sim
        if arrival > sim.elided_until:
            sim.elided_until = arrival


#: every registry row as registered, then each row over a reliable
#: broadcast once more under the flood, whose relays are most of the
#: copies that fold into an earlier one in flight
ROWS = [(key, None) for key in sorted(ALGORITHMS)] + [
    (key, "flood")
    for key, entry in sorted(ALGORITHMS.items())
    if entry.with_relay("flood") is not entry
]
ROW_IDS = [key if relay is None else f"{key}-{relay}" for key, relay in ROWS]


def run_cell(network_cls, spec, key, seed, relay=None):
    entry = ALGORITHMS[key]
    if relay is not None:
        entry = entry.with_relay(relay)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_module, "Network", network_cls)
        return entry.run(spec, seed)


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


@pytest.mark.parametrize("key,relay", ROWS, ids=ROW_IDS)
@given(cell=cells())
@settings(max_examples=20, deadline=None)
def test_elision_records_the_run_the_reference_records(key, relay, cell):
    spec, seed = cell
    ref = run_cell(ScheduleEveryCopy, spec, key, seed, relay)
    new = run_cell(Network, spec, key, seed, relay)

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
    # one route and one loop draw and count what the two paths did; a
    # copy the two paths scheduled and ``Network`` folded moves one event
    # (and one delivery or crash drop) into ``elided``, so those fields
    # are compared as sums
    two_paths = run_cell(TwoPathNetwork, spec, key, seed, relay)
    assert where_it_ends(new) == where_it_ends(two_paths)


def where_it_ends(result):
    """Everything a send path leaves behind in a finished run, with the
    counters folding moves on purpose summed with ``elided``."""
    sim = result.sim
    stats = result.network_stats
    return (
        result.fingerprint(),
        sim.now,
        sim.events_executed + stats.elided,
        stats.delivered + stats.dropped_to_crashed + stats.elided,
        {name: getattr(stats, name) for name in SEND_SIDE},
        sim.rng.random(),
    )


# ----------------------------------------------------------------------
# One case per branch of the route
# ----------------------------------------------------------------------
def msg(origin, seq):
    return {"id": (origin, seq), "origin": origin, "payload": seq}


def multicast_under_duplication_and_partition(sim, net):
    net.delay = DelayModel.per_link(0.5, 3.0, 0.2)
    net.set_duplicate_rate(0.5)
    net.partition([0, 1], [2, 3])
    for seq in range(6):
        net.multicast(0, msg(0, seq))
        net.multicast(3, msg(3, seq))
    sim.schedule(2.0, net.heal)


def heal_flush_while_duplicating(sim, net):
    net.partition([0, 1], [2, 3])
    for seq in range(6):
        net.multicast(0, msg(0, seq))
        net.send(2, 1, msg(2, seq))
    net.set_duplicate_rate(1.0)
    net.heal()


def unicast_during_reorder_burst(sim, net):
    net.start_reorder(1.0)
    for seq in range(4):
        net.send(0, 1, msg(0, seq))
        net.send(0, 2, msg(0, seq))
        net.send(3, 1, msg(3, seq))
    sim.schedule(0.5, net.block_links, [(3, 1)])
    sim.schedule(2.0, net.unblock_links, [(3, 1)])


def flush_under_loss(sim, net):
    net.delay = DelayModel.exponential(1.0)
    net.partition([0], [1, 2, 3])
    for seq in range(8):
        net.multicast(0, msg(0, seq))
    net.set_loss_rate(0.9)
    net.heal()


#: what each case must have exercised, read off its final stats
BRANCH = {
    multicast_under_duplication_and_partition: lambda s: (
        s["held"] and s["duplicated"] and s["elided"]
    ),
    heal_flush_while_duplicating: lambda s: s["held"] == s["duplicated"] == 18,
    unicast_during_reorder_burst: lambda s: s["reordered"] == 12 and s["held"] == 4,
    # the flush ignores the loss dial: every held copy arrives or is elided
    flush_under_loss: lambda s: (
        s["held"] == 24 and s["lost"] == 0 and s["delivered"] + s["elided"] == 24
    ),
}


def observe(network_cls, drive):
    sim = Simulator(seed=7)
    net = network_cls(sim, 4)
    inbox = []
    for pid in range(4):
        net.attach(
            pid,
            lambda src, payload, pid=pid: inbox.append(
                (sim.now, src, pid, payload["id"])
            ),
        )
    # pid 1 already holds (0, 0): its copies are drawn, counted and elided
    net.attach_dedup(1, {(0, 0)}.__contains__)
    drive(sim, net)
    sim.run()
    stats = dataclasses.asdict(net.stats)
    return inbox, stats, sim.now, sim.events_executed, sim.rng.random()


@pytest.mark.parametrize("drive", list(BRANCH), ids=lambda f: f.__name__)
def test_each_route_matches_the_two_paths(drive):
    new = observe(Network, drive)
    assert BRANCH[drive](new[1]), new[1]
    assert new == observe(TwoPathNetwork, drive)


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


# ----------------------------------------------------------------------
# Arrival-time folding
# ----------------------------------------------------------------------
A = {"id": (0, 0), "origin": 0, "payload": "a"}
B = {"id": (0, 1), "origin": 0, "payload": "b"}


class Scripted(DelayModel):
    """The given delays, in order; draws nothing from the rng."""

    def __init__(self, *delays: float) -> None:
        self.delays = list(delays)

    def sample(self, rng, src, dst):
        return self.delays.pop(0)


def first_seen(network_cls, n, delay):
    """A network whose processes keep a seen-set, offer it as their
    dedup predicate and record first arrivals only, like a broadcast
    endpoint's ``receive``."""
    sim = Simulator(seed=0)
    net = network_cls(sim, n, delay=delay)
    inbox = []
    for pid in range(n):
        seen = set()

        def receive(src, payload, pid=pid, seen=seen):
            if payload["id"] in seen:
                return
            seen.add(payload["id"])
            inbox.append((sim.now, src, pid, payload["id"]))

        net.attach(pid, receive)
        net.attach_dedup(pid, seen.__contains__)
    return sim, net, inbox


def both(n, delays, drive):
    """Run ``drive`` on ``Network`` and on the every-copy reference."""
    runs = []
    for network_cls in (Network, ScheduleEveryCopy):
        sim, net, inbox = first_seen(network_cls, n, Scripted(*delays))
        drive(sim, net)
        sim.run()
        runs.append((inbox, sim.now, sim.events_executed, net.stats))
    return runs


def test_a_later_copy_is_folded_and_delivered_once():
    def drive(sim, net):
        net.send(0, 2, A)
        net.send(1, 2, A)  # arrives after the first: folded

    (inbox, now, events, stats), (ref_inbox, ref_now, ref_events, _) = both(
        3, (1.0, 2.0), drive
    )
    assert inbox == ref_inbox == [(1.0, 0, 2, (0, 0))]
    assert now == ref_now == 2.0
    assert (events, ref_events) == (1, 2)
    assert stats.elided == 1 and stats.delivered == 1 and stats.sent == 2


def test_an_earlier_arriving_copy_becomes_the_one_folded_into():
    def drive(sim, net):
        net.send(0, 3, A)  # arrives at 3.0
        net.send(1, 3, A)  # arrives at 1.0: scheduled, now the earliest
        net.send(2, 3, A)  # arrives at 2.0: folded into the 1.0 copy

    (inbox, now, events, stats), (ref_inbox, ref_now, ref_events, _) = both(
        4, (3.0, 1.0, 2.0), drive
    )
    assert inbox == ref_inbox == [(1.0, 1, 3, (0, 0))]
    assert now == ref_now == 3.0
    assert (events, ref_events) == (2, 3)
    assert stats.elided == 1 and stats.delivered == 2


def test_a_crash_drop_puts_the_folded_copy_back_at_its_own_place():
    def drive(sim, net):
        net.crash(2)
        net.send(0, 2, A)  # arrives at 1.0, while 2 is down
        net.send(1, 2, A)  # arrives at 3.0: folded, then put back
        net.send(0, 2, B)  # arrives at 3.0 too, after A's folded copy
        sim.schedule(2.0, net.recover, 2)

    (inbox, now, events, stats), (ref_inbox, ref_now, ref_events, ref_stats) = both(
        3, (1.0, 3.0, 3.0), drive
    )
    assert inbox == ref_inbox == [(3.0, 1, 2, (0, 0)), (3.0, 0, 2, (0, 1))]
    assert now == ref_now == 3.0
    assert events == ref_events == 4
    assert dataclasses.asdict(stats) == dataclasses.asdict(ref_stats)
    assert stats.elided == 0 and stats.dropped_to_crashed == 1


def flood(sim, net):
    """An eager flood: each process relays an id the first time it sees
    it.  Under a constant delay every relay ties with others."""
    seen = [set() for _ in range(net.n)]
    order = []

    def receive(src, payload, pid):
        mid = payload["id"]
        if mid in seen[pid]:
            return
        seen[pid].add(mid)
        order.append((sim.now, src, pid, mid))
        net.multicast(pid, payload)

    for pid in range(net.n):
        net.attach(pid, lambda src, payload, pid=pid: receive(src, payload, pid))
        net.attach_dedup(pid, seen[pid].__contains__)

    def originate(pid, k):
        payload = {"id": (pid, k), "origin": pid, "payload": k}
        seen[pid].add(payload["id"])
        net.multicast(pid, payload)

    for k, (at, pid) in enumerate([(0.0, 0), (0.0, 1), (0.5, 2), (1.0, 3), (1.0, 0)]):
        sim.schedule(at, originate, pid, k)
    sim.schedule(1.5, net.crash, 3)
    sim.schedule(2.5, net.recover, 3)
    return order


def test_constant_delay_ties_keep_the_reference_order():
    runs = []
    for network_cls in (Network, ScheduleEveryCopy):
        sim = Simulator(seed=3)
        net = network_cls(sim, 5, delay=DelayModel.constant(1.0))
        order = flood(sim, net)
        sim.run()
        runs.append((order, sim.now, sim.rng.random(), sim.events_executed, net.stats))
    (order, now, draw, events, stats), (ref_order, ref_now, ref_draw, ref_events, ref) = runs
    assert (order, now, draw) == (ref_order, ref_now, ref_draw)
    assert stats.elided > 0 and events < ref_events
    assert events + stats.elided == ref_events
    assert (
        stats.delivered + stats.dropped_to_crashed + stats.elided
        == ref.delivered + ref.dropped_to_crashed
    )


def test_a_raising_draw_leaves_no_sequence_number_reused():
    """A delay model whose second draw is negative raises mid-multicast;
    the copy already scheduled must still be delivered."""
    sim = Simulator(seed=0)
    net = Network(sim, 3, delay=Scripted(1.0, -1.0))
    inbox = []
    net.attach(1, lambda src, payload: inbox.append((sim.now, src, payload)))
    with pytest.raises(ValueError, match="in the past"):
        net.multicast(0, "hello")
    ran = []
    sim.schedule(0.5, ran.append, "timer")
    sim.run()
    assert ran == ["timer"]
    assert inbox == [(1.0, 0, "hello")]


@pytest.mark.parametrize("seed", range(4))
def test_convergence_sampling_reads_the_reference_samples(seed):
    """``measure_convergence`` samples while traffic is in flight; the
    copies ``Network`` elided or folded count as traffic until they
    arrive, so the measured time is the every-copy reference's."""
    times = []
    for network_cls in (Network, ScheduleEveryCopy):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(convergence, "Network", network_cls)
            result = convergence.measure_convergence(
                CCvWindowArray, n=4, streams=2, k=2, seed=seed
            )
        times.append(result.convergence_time)
    assert times[0] == times[1]
