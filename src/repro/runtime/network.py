"""Asynchronous reliable point-to-point network with crash-stop faults.

Models the communication assumptions of Sec. 6.1: messages between correct
processes are eventually delivered after an arbitrary finite delay; there
is no global clock; processes may crash (stop executing).  Delay models
are pluggable so the latency experiments (E6) can sweep them.

This is the paper's only non-algorithmic dependency we *simulate* rather
than deploy: a seeded pseudo-random delay preserves the relevant behaviour
(asynchrony and unbounded skew) while making every run reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappush
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .simulator import Simulator
from .transport import ControlHandler, Transport


class DelayModel:
    """Distribution of point-to-point message delays."""

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        raise NotImplementedError

    def overtake(self, slow: float, fast: float) -> float:
        """The most a copy can arrive after one sent later on the same
        link, when the first was sent at delay scale ``slow`` and the
        second at ``fast`` (``slow >= fast``); unbounded unless a model
        says otherwise, so that no gap is taken for loss and digests
        repair alone."""
        return math.inf

    def longest(self, scale: float) -> float:
        """The longest delay a copy can draw at delay scale ``scale``;
        unbounded unless a model says otherwise."""
        return math.inf

    # Named constructors ------------------------------------------------
    @staticmethod
    def constant(delay: float) -> "DelayModel":
        return _Constant(delay)

    @staticmethod
    def uniform(low: float, high: float) -> "DelayModel":
        return _Uniform(low, high)

    @staticmethod
    def exponential(mean: float, floor: float = 0.01) -> "DelayModel":
        return _Exponential(mean, floor)

    @staticmethod
    def per_link(low: float, high: float, jitter: float = 0.1) -> "DelayModel":
        """Heterogeneous topology: each directed link gets a base delay
        drawn once (uniformly in [low, high]) and keeps it for the whole
        run (the model holds them: one model serves one run), plus a
        small multiplicative jitter per message.  Stable
        fast/slow paths are what make reordering anomalies (FIFO vs
        causal delivery) statistically visible.  ``jitter`` must lie in
        [0, 1]: above 1 the factor can go negative, and a negative delay
        would schedule a delivery in the past."""
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(
                f"per-link delay parameter 'jitter' must be in [0, 1], "
                f"got {jitter!r}"
            )
        return _PerLink(low, high, jitter)


@dataclass
class _Constant(DelayModel):
    delay: float

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return self.delay

    def overtake(self, slow: float, fast: float) -> float:
        return (slow - fast) * self.delay

    def longest(self, scale: float) -> float:
        return scale * self.delay


@dataclass
class _Uniform(DelayModel):
    low: float
    high: float

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        # open-coded rng.uniform (same expression, so the same draw):
        # this is the hottest rng call in the simulator
        return self.low + (self.high - self.low) * rng.random()

    def overtake(self, slow: float, fast: float) -> float:
        return slow * self.high - fast * self.low

    def longest(self, scale: float) -> float:
        return scale * self.high


@dataclass
class _Exponential(DelayModel):
    mean_delay: float
    floor: float

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return self.floor + rng.expovariate(1.0 / self.mean_delay)


class _PerLink(DelayModel):
    def __init__(self, low: float, high: float, jitter: float) -> None:
        self.low = low
        self.high = high
        self.jitter = jitter
        self._base: Dict[Tuple[int, int], float] = {}

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        base = self._base.get((src, dst))
        if base is None:
            base = rng.uniform(self.low, self.high)
            self._base[(src, dst)] = base
        return base * (1.0 + rng.uniform(-self.jitter, self.jitter))

    def overtake(self, slow: float, fast: float) -> float:
        # within one link only the jitter differs: base * (1 +- jitter)
        return self.high * (slow * (1.0 + self.jitter) - fast * (1.0 - self.jitter))

    def longest(self, scale: float) -> float:
        return scale * self.high * (1.0 + self.jitter)


@dataclass
class NetworkStats:
    sent: int = 0
    delivered: int = 0
    dropped_to_crashed: int = 0
    lost: int = 0
    held: int = 0
    duplicated: int = 0
    reordered: int = 0
    #: copies drawn and counted but never scheduled: their destination
    #: already held the message id when they were sent (the simulated
    #: twin of the live transport's ``dups_dropped``; a live transport
    #: leaves it 0), or they were folded into an earlier-arriving copy of
    #: the same id to the same destination.  A folded copy put back on
    #: the heap (the copy it was folded into did not make the id seen)
    #: leaves this count.
    #: So ``delivered`` counts first arrivals, and at quiescence with
    #: nothing held, ``sent + duplicated - lost == delivered +
    #: dropped_to_crashed + elided``
    elided: int = 0
    total_delay: float = 0.0
    #: payload bytes handed to the wire; only the live transport counts
    #: them (the simulated network has no wire format and leaves it 0)
    payload_bytes: int = 0

    @property
    def mean_delay(self) -> float:
        return self.total_delay / self.delivered if self.delivered else 0.0


def _message_id(payload: Any) -> Any:
    """The broadcast id a payload carries — ``payload["id"]``, the shape
    ``ReliableEndpoint._new_message`` builds — or None.  The only place
    the network reads into a payload (for dedup and folding)."""
    return payload.get("id") if type(payload) is dict else None


class Network(Transport):
    """Reliable asynchronous unicast between ``n`` processes — the
    simulated :class:`~repro.runtime.transport.Transport` (re-exported as
    ``SimTransport``): clock and timers delegate to the discrete-event
    :class:`~repro.runtime.simulator.Simulator`.

    ``attach(pid, handler)`` registers the message handler of process
    ``pid``; :meth:`send` schedules its invocation after a sampled delay.
    Crashed processes neither send nor receive; :meth:`recover` lets a
    crashed process rejoin.  Whether a copy is lost to a crash is decided
    when it *arrives*: one that arrives while its destination is down is
    dropped, one sent to a down process that arrives after the
    :meth:`recover` is delivered.  State catch-up for what was dropped is
    the algorithm's job, see
    :meth:`repro.algorithms.base.ReplicatedObject.on_recover`.

    Send-time dedup: the broadcast layer offers each endpoint's "seen?"
    predicate through :meth:`attach_dedup`.  A copy whose destination's
    predicate already holds the copy's ``message["id"]`` when it is sent
    is drawn from the rng and counted in ``stats`` exactly like any other
    copy, then *elided* (``stats.elided``) instead of scheduled: seen-sets
    only grow and a seen message's receive returns before touching state,
    so delivering it would have been a no-op.  The simulator's clock at
    drain still advances to the latest elided arrival, which keeps every
    recorded history, ``RunResult.duration`` and the quiescence reads'
    times exactly as if the copy had been delivered.  Payloads without an
    id (total order, gossip) and destinations that offered no predicate
    are scheduled as always.

    Arrival-time folding: per destination that offered a predicate, the
    network tracks the earliest copy of each id in flight.  A copy that
    would arrive no earlier than it is *folded* into it: drawn and
    counted like an elided copy, given its simulator sequence number (so
    every scheduled event keeps its heap position), and not scheduled —
    by its arrival the destination holds the id, since the earlier copy
    landed first.  When that earlier copy is not what makes the id seen
    (its destination is down when it arrives, or the handler leaves the
    id unseen), the earliest folded copy is put back on the heap under
    its own arrival time and sequence number
    (:meth:`~repro.runtime.simulator.Simulator.restore`), and the rest
    stay folded into it.  Histories, the clock and the rng stream are
    those of a network that schedules every copy; ``delivered``,
    ``dropped_to_crashed`` and ``total_delay`` count first arrivals only.

    The fault surface is event-driven: :meth:`partition`/:meth:`heal`,
    :meth:`crash`/:meth:`recover`, :meth:`set_loss_rate` (loss bursts),
    :meth:`set_delay_scale` (delay spikes), :meth:`set_duplicate_rate`
    (retransmission storms), :meth:`block_links`/:meth:`unblock_links`
    (asymmetric partitions and link flapping) and :meth:`start_reorder`
    (per-link delivery-order inversion bursts) may all be invoked from
    simulator callbacks, which is how
    :class:`repro.scenarios.faults.FaultSchedule` drives them.

    Chaos-fault semantics: a *blocked* directed link holds its messages
    exactly like a partition (delay, never lose; :meth:`heal` clears
    blocks too); during a *reorder burst* each link's sends are captured
    and released in reverse send order when the burst ends (held-message
    flushes bypass the capture, preserving the pinned heal semantics);
    *duplication* delivers an independently delayed second copy of a
    message with probability ``duplicate_rate``.  All three features draw
    nothing from the rng while inactive, so runs without chaos faults are
    bit-identical to pre-chaos runs.

    One send path: :meth:`send` and :meth:`multicast` route every copy
    through :meth:`_route`, which drops a crashed sender's copies, *holds*
    a copy whose link is partitioned or blocked, *captures* one during a
    reorder burst, and hands the rest to :meth:`_fan_out` — the one loop
    that draws a copy's loss and delay (and, with the duplication dial
    on, its duplicate) and puts it in flight.  Held-message flushes go
    through that loop too, past its loss gate.  Holding and capturing
    draw nothing, so a multicast is draw-for-draw a loop of :meth:`send`,
    and every unicast still samples its own delay — the asynchrony model
    is unchanged.
    """

    def __init__(
        self,
        sim: Simulator,
        n: int,
        delay: Optional[DelayModel] = None,
        loss_rate: float = 0.0,
    ) -> None:
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError("loss rate must be in [0, 1)")
        self.sim = sim
        self.n = n
        self.delay = delay or DelayModel.uniform(0.5, 1.5)
        self.loss_rate = loss_rate
        self.delay_scale = 1.0
        #: the most a copy can arrive after one its sender sent later to
        #: the same destination, over the run so far: the delay model's
        #: spread at the widest and narrowest delay scales used, or a
        #: reorder burst's release, whichever is longer.  A gap in one
        #: sender's copies older than this is loss
        self.overtake = self.delay.overtake(1.0, 1.0)
        #: the longest a copy can take, at the widest delay scale so far
        self.latency = self.delay.longest(1.0)
        self._scales = (1.0, 1.0)
        self.handlers: Dict[int, Callable[[int, Any], None]] = {}
        #: per pid, the "already seen this id?" predicate it offered
        #: through :meth:`attach_dedup` (None: no offer)
        self._dedup: List[Optional[Callable[[Tuple[int, int]], bool]]] = [
            None
        ] * n
        #: per pid that offered a predicate, message id -> the copies of
        #: it in flight there: ``[arrival of the earliest scheduled copy,
        #: *folded copies as (arrival, seq, src, delay, payload)]``
        self._flight: List[Optional[Dict[Any, List[Any]]]] = [None] * n
        #: one Network carries every process (see ``Transport.hosted``)
        self.hosted = range(n)
        self._control: Dict[int, ControlHandler] = {}
        self.crashed: Set[int] = set()
        self.stats = NetworkStats()
        #: all other processes, per source — the broadcast fan-out order
        self._peers: List[Tuple[int, ...]] = [
            tuple(d for d in range(n) if d != p) for p in range(n)
        ]
        # partition support (the CAP motivation of Sec. 1): while two
        # processes are in different groups, messages between them are
        # *held*, not lost — the network stays reliable-eventual
        self._group_of: Optional[Dict[int, int]] = None
        self._held: List[tuple] = []
        # chaos fault state: directed blocked links (asymmetric
        # partitions, flapping), message duplication, reorder bursts
        self.duplicate_rate = 0.0
        self._blocked: Set[Tuple[int, int]] = set()
        self._reorder_until: Optional[float] = None
        self._reorder_buf: Dict[Tuple[int, int], List[Any]] = {}

    #: delivery spacing of a reorder-burst flush: each captured link
    #: releases its messages back-to-front at these deterministic gaps
    REORDER_SPACING = 0.05

    def attach(self, pid: int, handler: Callable[[int, Any], None]) -> None:
        if not (0 <= pid < self.n):
            raise ValueError(f"process id {pid} out of range")
        self.handlers[pid] = handler

    def attach_dedup(
        self, pid: int, seen: Callable[[Tuple[int, int]], bool]
    ) -> None:
        """Honoured at send time: a copy for ``pid`` whose id ``seen``
        already holds is drawn, counted and elided, and one that arrives
        no earlier than a copy of its id already in flight to ``pid`` is
        folded into that copy (see the class docstring)."""
        if not (0 <= pid < self.n):
            raise ValueError(f"process id {pid} out of range")
        self._dedup[pid] = seen
        if self._flight[pid] is None:
            self._flight[pid] = {}

    def attach_control(self, pid: int, handler: ControlHandler) -> None:
        self._control[pid] = handler

    def control(self, src: int, dst: int, body: Any) -> Any:
        """In-line call of ``dst``'s control sink: no delay, no rng draw,
        no ``stats`` entry, blind to partitions and crashes (what the
        sink *sends* in response goes through :meth:`send` as usual)."""
        return self._control[dst](src, body)

    def repair(self, src: int, dst: int, message: Any) -> None:
        """A repair is an ordinary copy of ``message``: drawn, delayed,
        lost, held and elided like any other (and, unlike a ``repair``
        control body, not counted by the receiver's ``repairs_received``)."""
        self.send(src, dst, message)

    def crash(self, pid: int) -> None:
        """Crash-stop ``pid``: it stops sending and receiving immediately."""
        self.crashed.add(pid)

    def recover(self, pid: int) -> None:
        """Undo :meth:`crash`: ``pid`` resumes sending and receiving.

        A copy is dropped only if it arrives while ``pid`` is down: one
        sent to ``pid`` during the crash that arrives after this call is
        delivered.  Only the network membership is restored; replica
        state that missed deliveries while down must be rejoined by the
        algorithm (e.g. via broadcast-level anti-entropy,
        ``ReliableBroadcast.resync``)."""
        self.crashed.discard(pid)

    def is_crashed(self, pid: int) -> bool:
        return pid in self.crashed

    # ------------------------------------------------------------------
    # Transport interface: clock, timers, reachability
    # ------------------------------------------------------------------
    # The broadcast layers reach the simulator only through these
    # delegates, so they run unchanged over a live transport.  Pure
    # pass-throughs — no extra rng draws, no event reordering — which is
    # what keeps recorded histories bit-identical across the refactor.
    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay: float, cb: Callable, *args: Any) -> Any:
        return self.sim.schedule(delay, cb, *args)

    def separated(self, src: int, dst: int) -> bool:
        return self._separated(src, dst)

    # ------------------------------------------------------------------
    # Fault dials (loss bursts, delay spikes)
    # ------------------------------------------------------------------
    def set_loss_rate(self, rate: float) -> None:
        if not (0.0 <= rate < 1.0):
            raise ValueError("loss rate must be in [0, 1)")
        self.loss_rate = rate

    def set_delay_scale(self, factor: float) -> None:
        """Scale every sampled delay by ``factor`` (congestion spike)."""
        if factor <= 0:
            raise ValueError("delay scale must be positive")
        self.delay_scale = factor
        slow, fast = self._scales = (
            max(self._scales[0], factor), min(self._scales[1], factor)
        )
        self.overtake = max(self.overtake, self.delay.overtake(slow, fast))
        self.latency = self.delay.longest(slow)

    def set_duplicate_rate(self, rate: float) -> None:
        """Deliver a second, independently delayed copy of each message
        with probability ``rate`` (a retransmission storm).  Duplication
        is a *delivery* fault: the extra copy goes through the normal
        delivery path, so dedup layers above must absorb it.

        Unlike the loss dial, the closed bound 1.0 is valid: a full
        duplication storm still delivers every message (twice), so
        progress is preserved — loss must stay < 1 to keep delivery
        eventually possible, duplication need not."""
        if not (0.0 <= rate <= 1.0):
            raise ValueError("duplicate rate must be in [0, 1]")
        self.duplicate_rate = rate

    # ------------------------------------------------------------------
    # Directed link blocking (asymmetric partitions, flapping)
    # ------------------------------------------------------------------
    def block_links(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Block the directed links ``(src, dst)``: their messages are
        held (like a partition's) until :meth:`unblock_links` or
        :meth:`heal`.  Blocking only one direction of a link is an
        asymmetric partition; alternately blocking and unblocking both
        directions is link flapping."""
        self._blocked.update(pairs)

    def unblock_links(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Undo :meth:`block_links` for ``pairs`` and flush any held
        messages whose endpoints became reconnected, in send order."""
        self._blocked.difference_update(pairs)
        self._flush_held()

    def start_reorder(self, duration: float) -> None:
        """Begin a reorder burst: until ``duration`` time units from now,
        every unicast send is captured instead of transmitted; when the
        burst ends, each directed link releases its captured messages in
        *reverse* send order (per-link delivery inversion) at small
        deterministic spacings — no rng draws, no loss.  Overlapping
        bursts merge into one ending at the latest end time."""
        if duration <= 0:
            raise ValueError("reorder burst duration must be positive")
        end = self.sim.now + duration
        if self._reorder_until is not None and end <= self._reorder_until:
            return  # already covered by a burst that ends later
        self._reorder_until = end
        self.sim.schedule(duration, self._end_reorder, end)

    def _end_reorder(self, end: float) -> None:
        if self._reorder_until != end:
            return  # superseded by a burst that extended the window
        self._reorder_until = None
        buf, self._reorder_buf = self._reorder_buf, {}
        sim = self.sim
        spacing = self.REORDER_SPACING
        for (src, dst), payloads in buf.items():
            if self._separated(src, dst):
                # the link got partitioned/blocked mid-burst: hold the
                # whole capture (in its inverted order) for the heal
                self.stats.held += len(payloads)
                self._held.extend(
                    (src, dst, payload) for payload in reversed(payloads)
                )
                continue
            # the first captured copy lands last, behind all the others
            self.overtake = max(self.overtake, spacing * len(payloads))
            seen = self._dedup[dst]
            for k, payload in enumerate(reversed(payloads)):
                delay = spacing * (k + 1)
                self.stats.sent += 1
                mid = _message_id(payload)
                if seen is not None and mid is not None and seen(mid):
                    self.stats.elided += 1
                    sim.elided_until = max(sim.elided_until, sim.now + delay)
                else:
                    sim.schedule(delay, self._deliver, src, dst, payload, delay)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, *groups: Iterable[int]) -> None:
        """Split the network into disjoint groups; cross-group messages
        are held until :meth:`heal` (reliability is preserved: partitions
        delay, they do not lose).  Repartitioning without an intervening
        heal releases exactly the held messages whose endpoints the new
        groups reunite."""
        sets = [set(g) for g in groups]
        seen: Set[int] = set()
        for g in sets:
            if g & seen:
                raise ValueError("partition groups must be disjoint")
            seen |= g
        # processes not mentioned in any group form an implicit last group
        self._group_of = {
            pid: i for i, group in enumerate(sets) for pid in group
        }
        self._flush_held()

    def heal(self) -> None:
        """Remove the partition (and any directed link blocks) and
        release all held messages."""
        self._group_of = None
        self._blocked.clear()
        self._flush_held()

    def _flush_held(self) -> None:
        """Transmit held messages whose endpoints are reconnected, in the
        order they were sent.  Held traffic never goes through the loss
        gate: partitions delay, they do not lose."""
        held, self._held = self._held, []
        for src, dst, payload in held:
            if self._separated(src, dst):
                self._held.append((src, dst, payload))
            else:
                self._fan_out(src, (dst,), payload, lossy=False)

    def _separated(self, src: int, dst: int) -> bool:
        if self._blocked and (src, dst) in self._blocked:
            return True
        if self._group_of is None:
            return False
        return self._group_of.get(src, -1) != self._group_of.get(dst, -1)

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any) -> None:
        """Asynchronously deliver ``payload`` from ``src`` to ``dst``."""
        self._route(src, (dst,), payload)

    def multicast(self, src: int, payload: Any) -> None:
        """Send ``payload`` from ``src`` to every other process, in pid
        order — exactly a loop of :meth:`send`, one sampled delay per
        destination."""
        self._route(src, self._peers[src], payload)

    def _route(self, src: int, dsts: Sequence[int], payload: Any) -> None:
        """Hold or capture the copies a fault stops (drawing nothing) and
        put the rest in flight, in ``dsts`` order."""
        if src in self.crashed:
            return
        if (
            self._group_of is not None
            or self._blocked
            or self._reorder_until is not None
        ):
            stats = self.stats
            flying = []
            for dst in dsts:
                if self._separated(src, dst):
                    stats.held += 1
                    self._held.append((src, dst, payload))
                elif self._reorder_until is not None:
                    stats.reordered += 1
                    self._reorder_buf.setdefault((src, dst), []).append(payload)
                else:
                    flying.append(dst)
            dsts = flying
        self._fan_out(src, dsts, payload, lossy=True)

    def _fan_out(
        self, src: int, dsts: Sequence[int], payload: Any, lossy: bool
    ) -> None:
        """Put one copy per destination in flight: a loss draw (``lossy``
        and the dial on), a sampled delay and a scheduled delivery, then,
        with probability ``duplicate_rate``, a second independently
        delayed copy — the runtime's hottest loop, with Simulator.schedule
        open-coded.  Every copy keeps its draws and its counts.  Where
        the destination offered a "seen?" predicate, a copy that arrives
        no earlier than the earliest copy of its id in flight there is
        folded into it (a sequence number, no event), else one whose
        destination already holds the id is elided (no event), else it
        is scheduled as the new earliest copy in flight."""
        stats = self.stats
        sim = self.sim
        rng = sim.rng
        model = self.delay
        scale = self.delay_scale
        loss_rate = self.loss_rate if lossy else 0.0
        dup_rate = self.duplicate_rate
        deliver = self._deliver
        stats.sent += len(dsts)
        events = sim._events
        heap = sim._heap
        now = sim.now
        seq = sim._next_seq
        mid = _message_id(payload)
        flights = self._flight
        dedup = self._dedup
        elided = 0
        last = sim.elided_until
        random = rng.random
        # written back even when a delay draw raises mid-multicast: a
        # sequence number left behind would be drawn again and overwrite
        # a copy already in flight
        try:
            if (
                type(model) is _Uniform
                and scale == 1.0
                and not loss_rate
                and not dup_rate
                and model.low >= 0.0
                and model.high >= 0.0
            ):
                # the default configuration: draw rng.uniform inline (the
                # expression below is _Uniform.sample verbatim, so the rng
                # stream and every produced bit are unchanged); with both
                # bounds non-negative the draw cannot be negative, so
                # Simulator.schedule's past-guard is enforced by the branch
                # condition instead of a per-message check
                low = model.low
                width = model.high - low
                for dst in dsts:
                    delay = low + width * random()
                    arrival = now + delay
                    flight = flights[dst] if mid is not None else None
                    if flight is not None:
                        entry = flight.get(mid)
                        if entry is not None and arrival >= entry[0]:
                            entry.append((arrival, seq, src, delay, payload))
                            seq += 1
                            elided += 1
                            if arrival > last:
                                last = arrival
                            continue
                        if dedup[dst](mid):
                            elided += 1
                            if arrival > last:
                                last = arrival
                            continue
                        if entry is None:
                            flight[mid] = [arrival]
                        else:
                            entry[0] = arrival
                    events[seq] = (deliver, (src, dst, payload, delay))
                    heappush(heap, (arrival, seq))
                    seq += 1
            else:
                sample = model.sample
                for dst in dsts:
                    if loss_rate and random() < loss_rate:
                        # a lossy fair link: the copy silently disappears
                        # (the paper's reliable channel is the loss_rate=0
                        # case)
                        stats.lost += 1
                        continue
                    flight = flights[dst] if mid is not None else None
                    # the copy, then maybe its duplicate, whose draws
                    # follow the copy's
                    for duplicate in (False, True):
                        if duplicate:
                            if not dup_rate or random() >= dup_rate:
                                break
                            stats.duplicated += 1
                        delay = sample(rng, src, dst) * scale
                        if delay < 0:  # preserve Simulator.schedule's guard
                            raise ValueError("cannot schedule in the past")
                        arrival = now + delay
                        if flight is not None:
                            entry = flight.get(mid)
                            if entry is not None and arrival >= entry[0]:
                                entry.append((arrival, seq, src, delay, payload))
                                seq += 1
                                elided += 1
                                if arrival > last:
                                    last = arrival
                                continue
                            if dedup[dst](mid):
                                elided += 1
                                if arrival > last:
                                    last = arrival
                                continue
                            if entry is None:
                                flight[mid] = [arrival]
                            else:
                                entry[0] = arrival
                        events[seq] = (deliver, (src, dst, payload, delay))
                        heappush(heap, (arrival, seq))
                        seq += 1
        finally:
            sim._next_seq = seq
            if elided:
                stats.elided += elided
                sim.elided_until = last

    def _deliver(self, src: int, dst: int, payload: Any, delay: float) -> None:
        folded = None
        flight = self._flight[dst]
        if flight:
            mid = _message_id(payload)
            entry = flight.get(mid)
            if entry is not None and entry[0] == self.sim.now:
                # the earliest copy in flight: the copies folded into it
                # need no delivery once it has made mid seen
                del flight[mid]
                if len(entry) > 1:
                    folded = entry
        if dst in self.crashed:
            self.stats.dropped_to_crashed += 1
        else:
            self.stats.delivered += 1
            self.stats.total_delay += delay
            handler = self.handlers.get(dst)
            if handler is not None:
                handler(src, payload)
            if folded is None or self._dedup[dst](mid):
                return
        if folded is not None:
            self._unfold(dst, mid, folded)

    def _unfold(self, dst: int, mid: Any, entry: List[Any]) -> None:
        """The copy ``entry`` tracked did not make ``mid`` seen at
        ``dst``: put back the earliest copy folded into it, under that
        copy's own arrival time and sequence number, as the earliest copy
        in flight with the rest still folded into it."""
        folded = entry[1:]
        first = min(folded)
        folded.remove(first)
        arrival, seq, src, delay, payload = first
        self.stats.elided -= 1
        self.sim.restore(arrival, seq, self._deliver, src, dst, payload, delay)
        # the handler may have put another copy of mid in flight to dst:
        # track the earlier of the two; the rest, ordered after the
        # put-back copy, stay folded
        current = self._flight[dst].setdefault(mid, [arrival])
        current[0] = min(current[0], arrival)
        current.extend(folded)


#: the simulated :class:`Transport` under its interface-role name — the
#: live counterpart is ``repro.service.AsyncioTransport``
SimTransport = Network
