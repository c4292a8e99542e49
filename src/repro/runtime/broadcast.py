"""Broadcast primitives over the asynchronous network (Sec. 6.1).

The paper's algorithms assume a *reliable causal broadcast* [10]:

- validity/integrity: delivered messages were broadcast;
- agreement: if any process delivers ``m``, all non-faulty processes do;
- local delivery: a broadcaster delivers its own message immediately;
- causal order: if ``m`` was broadcast after delivering ``m'``, no process
  delivers ``m`` before ``m'``.

We provide the full lattice used by the algorithms and baselines:

``ReliableBroadcast``
    agreement via eager flooding (every first-seen message is relayed),
    which tolerates the broadcaster crashing mid-send; no ordering.
``FifoBroadcast``
    adds per-sender FIFO order (sequence numbers) — the substrate of the
    PRAM baseline.
``CausalBroadcast``
    adds vector-clock causal order — the substrate of Figs. 4 and 5.
``TotalOrderBroadcast``
    a sequencer-based total order.  *Not* wait-free: a broadcast is only
    delivered after a round trip through the sequencer, which is exactly
    why sequentially consistent objects cannot have latency independent of
    the network (Sec. 1, [3, 16]); the latency experiment E6 measures it.
``LazyReliableBroadcast`` / ``LazyCausalBroadcast``
    the push/lazy-push hybrid family (PR 8): full bodies are pushed to a
    deterministic per-seed relay subset of ~log2(n) peers, bare message
    ids are advertised (batched) to the rest, and receivers pull missing
    bodies with supervised timeout/failover.  ~n·log n messages per
    broadcast instead of n(n-1) — the scale-n32/n64 tiers run on it.
    Delivery schedules differ from the eager classes, so it is a
    side-by-side registry family, not a replacement (the bit-identity
    baseline stays on the eager flood).

Throughput notes (PR 5).  Dedup bookkeeping is a per-(receiver, origin)
*contiguous frontier* — pid has seen every message of ``origin`` below
``_frontier[pid][origin]`` — plus a small spill set for out-of-order ids,
so membership tests are O(1) without hashing on the common path and the
seen-set no longer grows with the run.  A causal-stability sweep
(:meth:`ReliableBroadcast._gc`) prunes from the anti-entropy logs every
message whose id lies below *every* replica's frontier: such a message
can never be resent by :meth:`ReliableBroadcast.resync` (the recovering
replica has provably seen it), so long runs keep a bounded log.  Crashed
replicas freeze their frontier, which automatically retains exactly the
messages a recovering replica may still need.  Causal delivery is indexed
(:class:`CausalBroadcast`): per-receiver deficit counters replace the
quadratic re-scan, with the old drain kept as the executable spec
(:class:`ReferenceCausalBroadcast`) for equivalence tests.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .clocks import VectorClock
from .transport import Transport

Handler = Callable[[int, Any], None]  # (origin pid, payload)


class _Endpoint:
    """Per-process endpoint of a broadcast service."""

    def __init__(self, service: "BroadcastService", pid: int) -> None:
        self.service = service
        self.pid = pid

    def broadcast(self, payload: Any) -> None:
        self.service.broadcast(self.pid, payload)


class BroadcastService:
    """Base class: one instance per run, one endpoint per process."""

    name = "broadcast"

    def __init__(self, network: Transport) -> None:
        self.network = network
        self.n = network.n
        self.delivery_handlers: Dict[int, Handler] = {}
        self.delivered_count = 0
        #: optional :class:`repro.runtime.monitors.RuntimeMonitor`;
        #: delivery paths call its hooks when set.  Monitors are
        #: read-only observers (no rng draws, no scheduling), so runs
        #: are bit-identical with and without one attached.
        self.monitor: Optional[Any] = None

    def endpoint(self, pid: int, handler: Handler) -> _Endpoint:
        """Register ``handler`` as process ``pid``'s deliver callback."""
        self.delivery_handlers[pid] = handler
        return _Endpoint(self, pid)

    def broadcast(self, pid: int, payload: Any) -> None:
        raise NotImplementedError

    def _deliver(self, pid: int, origin: int, payload: Any) -> None:
        if self.network.is_crashed(pid):
            return
        self.delivered_count += 1
        handler = self.delivery_handlers.get(pid)
        if handler is not None:
            handler(origin, payload)


class ReliableBroadcast(BroadcastService):
    """Eager reliable broadcast (flooding).

    Every process relays each message the first time it sees it, so a
    message delivered anywhere reaches every non-faulty process even if
    the broadcaster crashes mid-broadcast.  ``flood=False`` degrades to
    best-effort direct sends (n-1 messages instead of O(n^2)); the fault
    injection tests exercise the difference.

    Memory stays bounded on long runs through causal-stability GC: every
    ``GC_INTERVAL`` first-seen notes, messages below the *stability
    frontier* (the per-origin minimum of all replicas' contiguous seen
    frontiers — crashed replicas' frontiers freeze, so nothing a downed
    replica still needs is touched) are pruned from the anti-entropy
    logs.  :meth:`resync` is unaffected: a pruned message is, by
    construction, already seen by every possible resync target.
    """

    name = "reliable"

    #: first-seen notes between causal-stability GC sweeps
    GC_INTERVAL = 1024

    #: supervised-resync parameters: first verification check after
    #: RESYNC_TIMEOUT, backing off geometrically, giving up after
    #: RESYNC_MAX_ATTEMPTS catch-up attempts
    RESYNC_TIMEOUT = 6.0
    RESYNC_BACKOFF = 1.6
    RESYNC_MAX_ATTEMPTS = 8

    #: chaos sentinel switch: ``False`` degrades :meth:`start_resync` to
    #: the pre-supervision one-shot catch-up (``--inject oneshot-resync``)
    supervised_resync = True
    #: chaos sentinel bug: mis-handle crashed replicas' frozen frontiers
    #: in :meth:`_gc` (``--inject gc-frontier``); the invariant monitors
    #: must catch the resulting premature prune
    gc_frontier_bug = False

    def __init__(self, network: Transport, flood: bool = True) -> None:
        super().__init__(network)
        self.flood = flood
        n = self.n
        # supervised-resync bookkeeping: epoch per target (a re-crash +
        # re-recover orphans the old supervision chain) and stats
        self._resync_epoch: Dict[int, int] = {}
        self.resync_attempts = 0
        self.resync_retries = 0
        self.resync_converged = 0
        self.resync_gave_up = 0
        # dedup state: contiguous per-origin frontier + out-of-order spill
        self._frontier: List[List[int]] = [[0] * n for _ in range(n)]
        self._seen: List[Set[Tuple[int, int]]] = [set() for _ in range(n)]
        # every message each process has seen, in seen order — the
        # substrate of crash-recovery anti-entropy (see resync), pruned
        # below the stability frontier by _gc
        self._log: List[List[Any]] = [[] for _ in range(n)]
        self._stable: List[int] = [0] * n
        self._notes_since_gc = 0
        self.gc_runs = 0
        self.gc_pruned = 0
        self._next_id: List[int] = [0] * n
        for pid in range(n):
            # partial dispatches through C, one frame cheaper than a
            # per-pid closure on the hottest call path in the simulator
            network.attach(pid, partial(self._receive, pid))
            network.attach_dedup(pid, partial(self._is_seen, pid))

    # ------------------------------------------------------------------
    # Dedup bookkeeping
    # ------------------------------------------------------------------
    def _is_seen(self, pid: int, mid: Tuple[int, int]) -> bool:
        return mid[1] < self._frontier[pid][mid[0]] or mid in self._seen[pid]

    def _note_seen(self, pid: int, message: Any) -> None:
        mid = message["id"]
        origin, seq = mid
        frontier = self._frontier[pid]
        if seq == frontier[origin]:
            nxt = seq + 1
            spill = self._seen[pid]
            if spill:
                while (origin, nxt) in spill:
                    spill.discard((origin, nxt))
                    nxt += 1
            frontier[origin] = nxt
        else:
            self._seen[pid].add(mid)
        self._log[pid].append(message)
        self._notes_since_gc += 1
        if self._notes_since_gc >= self.GC_INTERVAL:
            self._gc()

    def _gc(self) -> None:
        """Causal-stability sweep: prune log entries below every
        replica's seen frontier (see class docstring)."""
        self._notes_since_gc = 0
        self.gc_runs += 1
        n = self.n
        frontiers = self._frontier
        stable = [
            min(frontiers[pid][origin] for pid in range(n))
            for origin in range(n)
        ]
        # membership through the Transport contract — `.crashed` is a
        # Network implementation detail the live transport doesn't have
        crashed = {pid for pid in range(n) if self.network.is_crashed(pid)}
        if self.gc_frontier_bug and crashed:
            # chaos sentinel (--inject gc-frontier): pretend every
            # crashed replica has seen one message more per origin than
            # its frozen frontier records — an off-by-one that can prune
            # a message a downed replica still needs
            stable = [
                min(
                    frontiers[pid][origin] + (1 if pid in crashed else 0)
                    for pid in range(n)
                )
                for origin in range(n)
            ]
        if stable == self._stable:
            return
        monitor = self.monitor
        if monitor is not None:
            monitor.on_gc(stable, frontiers, crashed)
        self._stable = stable
        for pid in range(n):
            log = self._log[pid]
            kept = [m for m in log if m["id"][1] >= stable[m["id"][0]]]
            if len(kept) != len(log):
                self.gc_pruned += len(log) - len(kept)
                self._log[pid] = kept

    def log_sizes(self) -> List[int]:
        """Retained anti-entropy log entries per replica (observability:
        the causal-stability GC keeps these bounded on long runs)."""
        return [len(log) for log in self._log]

    # ------------------------------------------------------------------
    def broadcast(self, pid: int, payload: Any) -> None:
        if self.network.is_crashed(pid):
            return
        mid = (pid, self._next_id[pid])
        self._next_id[pid] += 1
        message = {"id": mid, "origin": pid, "payload": payload}
        # immediate local delivery (Sec. 6.1, third bullet)
        self._note_seen(pid, message)
        monitor = self.monitor
        if monitor is not None:
            monitor.on_deliver(pid, mid)
        self._deliver(pid, pid, payload)
        self._relay(pid, message)

    def _relay(self, pid: int, message: Any) -> None:
        self.network.multicast(pid, message)

    def _receive(self, pid: int, src: int, message: Any) -> None:
        mid = message["id"]
        # inlined _is_seen (hot path) — keep in sync with that helper
        if mid[1] < self._frontier[pid][mid[0]] or mid in self._seen[pid]:
            return
        self._note_seen(pid, message)
        monitor = self.monitor
        if monitor is not None:
            monitor.on_deliver(pid, mid)
        self._deliver(pid, message["origin"], message["payload"])
        if self.flood:
            self._relay(pid, message)

    # ------------------------------------------------------------------
    def resync(self, target: int, helper: Optional[int] = None) -> int:
        """Anti-entropy catch-up for a crash-recovered process.

        A live ``helper`` (lowest live pid by default) re-sends the
        messages it has seen but ``target`` has not (the digest exchange
        of a real anti-entropy session, read off the seen frontiers
        directly here) over the network.  The ordering layers (FIFO
        sequence numbers, causal vector clocks) buffer and deliver them
        in the right order, so the recovered replica replays exactly the
        deliveries it missed.  Messages pruned by the stability GC never
        need resending: they were seen by every replica — ``target``
        included — before pruning.  Returns the number of messages
        re-sent."""
        if helper is None:
            live = [
                pid
                for pid in range(self.n)
                if pid != target and not self.network.is_crashed(pid)
            ]
            if not live:
                return 0
            helper = live[0]
        missing = [
            message
            for message in self._log[helper]
            if not self._is_seen(target, message["id"])
        ]
        for message in missing:
            self.network.send(helper, target, message)
        return len(missing)

    # ------------------------------------------------------------------
    # Supervised resync: timeout + exponential backoff + helper failover
    # ------------------------------------------------------------------
    def start_resync(self, target: int) -> None:
        """Supervised anti-entropy catch-up for a recovered process.

        The one-shot :meth:`resync` silently strands ``target`` when its
        helper crashes mid-catch-up, the catch-up messages are lost, or
        the helper is on the wrong side of a partition.  This wrapper
        supervises it: the first attempt is byte-identical to the
        one-shot (lowest live helper), then a verification check fires
        ``RESYNC_TIMEOUT`` later — if any live peer still holds a
        message ``target`` has not seen (restricted to messages that
        existed when the attempt started, so fresh traffic never fakes a
        gap), the catch-up is retried against the next reachable helper
        with geometric backoff, up to ``RESYNC_MAX_ATTEMPTS``.

        A re-crash orphans the supervision chain (epoch bump on the next
        recovery); the chain draws nothing from the rng unless an actual
        retry re-sends messages, so runs whose first attempt succeeds
        deliver the identical values in the identical order as the
        pre-supervision one-shot (the pending verification check does
        extend simulated quiescence by the timeout tail)."""
        if not self.supervised_resync:
            self.resync(target)
            return
        epoch = self._resync_epoch.get(target, 0) + 1
        self._resync_epoch[target] = epoch
        self._resync_attempt(target, epoch, 0, self.RESYNC_TIMEOUT)

    def _resync_helper(self, target: int, attempt: int) -> Optional[int]:
        network = self.network
        live = [
            pid
            for pid in range(self.n)
            if pid != target and not network.is_crashed(pid)
        ]
        if not live:
            return None
        if attempt == 0:
            # the pre-supervision one-shot choice, preserved exactly so
            # recorded-history fingerprints only move when a retry fires
            return live[0]
        reachable = [
            pid for pid in live if not network.separated(pid, target)
        ]
        pool = reachable or live
        return pool[attempt % len(pool)]

    def _resync_attempt(
        self, target: int, epoch: int, attempt: int, timeout: float
    ) -> None:
        if self._resync_epoch.get(target) != epoch:
            return  # orphaned: target re-crashed and re-recovered
        network = self.network
        if network.is_crashed(target):
            return  # re-crashed: the next recover starts a fresh epoch
        helper = self._resync_helper(target, attempt)
        if helper is not None:
            self.resync_attempts += 1
            if attempt:
                self.resync_retries += 1
            self.resync(target, helper=helper)
        # verification cutoff: only messages that already exist count as
        # missing at the check, so traffic broadcast after this attempt
        # can never turn a complete catch-up into a spurious retry
        cutoff = tuple(self._next_id)
        network.schedule(
            timeout, self._resync_check, target, epoch, attempt, timeout, cutoff
        )

    def _resync_check(
        self,
        target: int,
        epoch: int,
        attempt: int,
        timeout: float,
        cutoff: Tuple[int, ...],
    ) -> None:
        if self._resync_epoch.get(target) != epoch:
            return
        if self.network.is_crashed(target):
            return
        if not self._catchup_missing(target, cutoff):
            self.resync_converged += 1
            return
        if attempt + 1 >= self.RESYNC_MAX_ATTEMPTS:
            self.resync_gave_up += 1
            monitor = self.monitor
            if monitor is not None:
                monitor.on_resync_stranded(target, attempt + 1)
            return
        self._resync_attempt(
            target, epoch, attempt + 1, timeout * self.RESYNC_BACKOFF
        )

    def _catchup_missing(self, target: int, cutoff: Tuple[int, ...]) -> bool:
        """Does any live peer's log hold a message (below ``cutoff``)
        that ``target`` has not seen?  Also monitors stability-frontier
        soundness: a gap *below* the stability frontier is unrepairable
        (the message is pruned from every log), which a sound GC makes
        impossible — flagged as ``pruned-gap`` when it happens."""
        monitor = self.monitor
        if monitor is not None:
            frontier = self._frontier[target]
            spill = self._seen[target]
            for origin in range(self.n):
                limit = min(self._stable[origin], cutoff[origin])
                seq = frontier[origin]
                while seq < limit:
                    if (origin, seq) not in spill:
                        monitor.on_pruned_gap(target, origin, seq)
                        break
                    seq += 1
        network = self.network
        for helper in range(self.n):
            if helper == target or network.is_crashed(helper):
                continue
            for message in self._log[helper]:
                mid = message["id"]
                if mid[1] < cutoff[mid[0]] and not self._is_seen(target, mid):
                    return True
        return False


class FifoBroadcast(ReliableBroadcast):
    """Reliable broadcast + per-sender FIFO delivery order."""

    name = "fifo"

    def __init__(self, network: Transport, flood: bool = True) -> None:
        super().__init__(network, flood)
        # next expected sequence number per (receiver, origin)
        self._expected: List[List[int]] = [[0] * self.n for _ in range(self.n)]
        self._pending: List[Dict[Tuple[int, int], Any]] = [
            {} for _ in range(self.n)
        ]

    def broadcast(self, pid: int, payload: Any) -> None:
        if self.network.is_crashed(pid):
            return
        mid = (pid, self._next_id[pid])
        self._next_id[pid] += 1
        message = {"id": mid, "origin": pid, "payload": payload}
        self._note_seen(pid, message)
        self._fifo_accept(pid, message)
        self._relay(pid, message)

    def _receive(self, pid: int, src: int, message: Any) -> None:
        mid = message["id"]
        # inlined _is_seen (hot path) — keep in sync with that helper
        if mid[1] < self._frontier[pid][mid[0]] or mid in self._seen[pid]:
            return
        self._note_seen(pid, message)
        if self.flood:
            self._relay(pid, message)
        self._fifo_accept(pid, message)

    def _fifo_accept(self, pid: int, message: Any) -> None:
        origin, seq = message["id"]
        self._pending[pid][(origin, seq)] = message
        # deliver as many in-order messages as possible
        monitor = self.monitor
        while True:
            nxt = self._expected[pid][origin]
            key = (origin, nxt)
            if key not in self._pending[pid]:
                break
            queued = self._pending[pid].pop(key)
            self._expected[pid][origin] += 1
            if monitor is not None:
                monitor.on_fifo_deliver(pid, origin, nxt)
            self._deliver(pid, origin, queued["payload"])


class CausalBroadcast(ReliableBroadcast):
    """Reliable broadcast + vector-clock causal delivery order.

    A message is stamped with the broadcaster's delivery vector (after
    counting the message itself); a receiver delays it until it has
    delivered every causally preceding message.  Local delivery is
    immediate, matching the paper's primitive.

    Delivery is *indexed*: a buffered message registers, per vector
    component it still lacks, in a wait table keyed by ``(component,
    threshold)`` with a deficit counter; advancing the receiver's clock
    pops exactly the entries whose threshold was reached, so each message
    is touched O(n) times total instead of being re-scanned on every
    arrival (the quadratic reference drain below).  The cascade delivers
    unblocked messages in *pass order* — ascending arrival index within a
    pass, wrapped passes for entries whose index the cursor already
    passed — which is exactly the order of the reference drain's repeated
    in-order re-scans, so the two implementations are delivery-for-
    delivery identical (property-tested in ``tests/test_runtime_perf.py``).
    """

    name = "causal"

    def __init__(self, network: Transport, flood: bool = True) -> None:
        super().__init__(network, flood)
        n = self.n
        self._vc: List[VectorClock] = [VectorClock(n) for _ in range(n)]
        # indexed pending state, per receiver: arrival counter, wait
        # table {(component, threshold): [entry]}, blocked count; an
        # entry is [arrival_index, message, deficit]
        self._arrivals: List[int] = [0] * n
        self._wait: List[Dict[Tuple[int, int], List[List[Any]]]] = [
            {} for _ in range(n)
        ]
        self._npending: List[int] = [0] * n

    def broadcast(self, pid: int, payload: Any) -> None:
        if self.network.is_crashed(pid):
            return
        mid = (pid, self._next_id[pid])
        self._next_id[pid] += 1
        vc = self._vc[pid]
        vc.deliver(pid)  # local delivery counts first
        message = {
            "id": mid,
            "origin": pid,
            "payload": payload,
            "stamp": vc.snapshot(),
        }
        self._note_seen(pid, message)
        monitor = self.monitor
        if monitor is not None:
            monitor.on_causal_deliver(pid, mid, pid, message["stamp"])
        self._deliver(pid, pid, payload)
        # no buffered message at pid can be waiting on pid's own
        # component (pid's own-broadcast count is maximal at pid), so the
        # local clock advance cannot unblock anything — no cascade here,
        # matching the reference semantics
        self._relay(pid, message)

    def _receive(self, pid: int, src: int, message: Any) -> None:
        mid = message["id"]
        # inlined _is_seen (hot path) — keep in sync with that helper
        if mid[1] < self._frontier[pid][mid[0]] or mid in self._seen[pid]:
            return
        self._note_seen(pid, message)
        if self.flood:
            self._relay(pid, message)
        self._accept(pid, message)

    # ------------------------------------------------------------------
    def _accept(self, pid: int, message: Any) -> None:
        """A first-seen message enters the delivery layer."""
        idx = self._arrivals[pid]
        self._arrivals[pid] = idx + 1
        self._npending[pid] += 1
        v = self._vc[pid].v
        origin = message["origin"]
        wait = self._wait[pid]
        entry = None
        deficit = 0
        j = 0
        for required in message["stamp"]:
            if j == origin:
                required -= 1  # the message itself was counted in the stamp
            if v[j] < required:
                if entry is None:
                    entry = [idx, message, 0]
                deficit += 1
                key = (j, required)
                bucket = wait.get(key)
                if bucket is None:
                    wait[key] = [entry]
                else:
                    bucket.append(entry)
            j += 1
        if entry is None:
            self._cascade(pid, idx, message)
        else:
            entry[2] = deficit

    def _cascade(self, pid: int, idx: int, message: Any) -> None:
        """Deliver ``message`` and everything it transitively unblocks,
        in reference pass order (see class docstring)."""
        v = self._vc[pid].v
        wait = self._wait[pid]
        npending = self._npending
        monitor = self.monitor
        cur: List[Tuple[int, Any]] = [(idx, message)]
        nxt: List[Tuple[int, Any]] = []
        while cur:
            idx, message = heappop(cur)
            origin = message["origin"]
            if monitor is not None:
                monitor.on_causal_deliver(
                    pid, message["id"], origin, message["stamp"]
                )
            v[origin] += 1
            npending[pid] -= 1
            self._deliver(pid, origin, message["payload"])
            unblocked = wait.pop((origin, v[origin]), None)
            if unblocked:
                for entry in unblocked:
                    entry[2] -= 1
                    if entry[2] == 0:
                        if entry[0] > idx:
                            heappush(cur, (entry[0], entry[1]))
                        else:
                            heappush(nxt, (entry[0], entry[1]))
            if not cur and nxt:
                cur = nxt
                nxt = []

    def pending_messages(self, pid: int) -> int:
        """Messages buffered awaiting causal predecessors (observability)."""
        return self._npending[pid]


class ReferenceCausalBroadcast(CausalBroadcast):
    """The pre-indexing causal delivery drain, kept as executable spec.

    Delivery re-scans the whole pending buffer (in arrival order) after
    every arrival until a full pass makes no progress — obviously
    correct, quadratic in the buffer size.  The equivalence property
    tests replay identical runs through this class and through
    :class:`CausalBroadcast` and assert delivery-for-delivery identical
    logs (the same pattern as the PR 1 ``_propagate`` reference
    fixpoint).
    """

    name = "causal-reference"

    def __init__(self, network: Transport, flood: bool = True) -> None:
        super().__init__(network, flood)
        self._buffer: List[List[Any]] = [[] for _ in range(self.n)]

    def _accept(self, pid: int, message: Any) -> None:
        self._buffer[pid].append(message)
        self._drain(pid)

    def _drain(self, pid: int) -> None:
        vc = self._vc[pid]
        monitor = self.monitor
        progress = True
        while progress:
            progress = False
            for message in list(self._buffer[pid]):
                if vc.can_deliver(message["origin"], message["stamp"]):
                    self._buffer[pid].remove(message)
                    vc.deliver(message["origin"])
                    if monitor is not None:
                        monitor.on_causal_deliver(
                            pid,
                            message["id"],
                            message["origin"],
                            message["stamp"],
                        )
                    self._deliver(pid, message["origin"], message["payload"])
                    progress = True

    def pending_messages(self, pid: int) -> int:
        return len(self._buffer[pid])


class _LazyTransport:
    """Mixin: push/lazy-push hybrid transport (Plumtree-style) replacing
    the eager flood's relay.

    Every first-seen message is *pushed* (full body) to a small
    deterministic per-seed relay subset — exponential ring offsets
    ``pid+1, pid+2, pid+4, ...`` rotated by the run's seed, so the eager
    overlay has out-degree ~log2(n) and diameter O(log n) — and
    *advertised* (bare ``(origin, seq)`` id) to every other peer.
    Advertisements are batched: ids accumulate per sender and flush as
    one ``adv`` message per lazy peer when ``ADV_BATCH`` ids are pending
    or ``ADV_FLUSH_DELAY`` elapses, and any outgoing pull/pull-reply to
    a lazy peer piggybacks the pending ids for free.  A receiver that
    holds an advertised id without the body *pulls* it: after a grace
    period (the body is usually still in flight through the push
    overlay), a pull request goes to an advertiser, with timeout,
    geometric backoff and holder failover mirroring the supervised
    resync of PR 6 — so loss, partitions, crash storms, flapping and
    GC-pruned bodies (answered with an explicit ``pull-miss``) are all
    handled.  Exhausted attempts flag ``pull-stranded`` on the runtime
    monitor.

    Message complexity per broadcast drops from the flood's n(n-1) to
    ~n·log2(n) bodies plus ~n²/ADV_BATCH batched advertisements — at
    n=32 that is ≥4× fewer messages, at n=64 ~7× (the fan-out benchmark
    records the exact numbers).  Delivery *schedules* necessarily differ
    from the eager classes, which is why the lazy family is registered
    beside them and benchmarked side by side instead of replacing the
    bit-identity baseline.

    Cooperates with :class:`ReliableBroadcast`'s machinery unchanged:
    bodies (messages without a ``"kind"`` key — including anti-entropy
    resends from :meth:`ReliableBroadcast.resync`) flow through the
    same frontier dedup, anti-entropy logs and causal-stability GC; a
    global body index for answering pulls is pruned alongside the logs.
    """

    #: pending advertisement ids that force a flush
    ADV_BATCH = 16
    #: advertisement flush deadline (time units) when the batch is short
    ADV_FLUSH_DELAY = 2.0
    #: wait before the first pull — the body is usually in flight
    #: through the push overlay (diameter O(log n) hops)
    PULL_GRACE = 8.0
    #: supervised-pull parameters, the resync shape: first re-check
    #: after PULL_TIMEOUT, geometric backoff, give up (and flag the
    #: monitor) after PULL_MAX_ATTEMPTS
    PULL_TIMEOUT = 6.0
    PULL_BACKOFF = 1.6
    PULL_MAX_ATTEMPTS = 8

    #: chaos sentinel bug (``--inject pull-starve``): holders silently
    #: drop pull requests, so advertised-but-unpushed bodies strand
    pull_starve_bug = False

    def __init__(self, network: Transport, flood: bool = True) -> None:
        super().__init__(network, flood)
        n = self.n
        seed = network.seed
        self._push_peers: List[Tuple[int, ...]] = [
            self.relay_subset(pid, n, seed) for pid in range(n)
        ]
        self._lazy_peers: List[Tuple[int, ...]] = [
            tuple(
                q
                for q in range(n)
                if q != pid and q not in self._push_peers[pid]
            )
            for pid in range(n)
        ]
        #: relays an eager flood would have sent minus the pushes we do
        self._suppressed: List[int] = [
            len(peers) for peers in self._lazy_peers
        ]
        # global body index for answering pulls, pruned with the logs
        self._bodies: Dict[Tuple[int, int], Any] = {}
        # per-receiver advertised-but-missing bodies:
        # mid -> [known holders, attempts, pending timer handle]
        self._missing: List[Dict[Tuple[int, int], List[Any]]] = [
            {} for _ in range(n)
        ]
        # advertisement batching: per-sender id backlog (with the
        # absolute index of its first entry) + per-lazy-peer cursors
        self._adv_log: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        self._adv_base: List[int] = [0] * n
        self._adv_cursor: List[Dict[int, int]] = [
            {q: 0 for q in self._lazy_peers[pid]} for pid in range(n)
        ]
        self._adv_timer: List[Optional[int]] = [None] * n
        self.pulls_sent = 0
        self.pull_replies = 0
        self.pull_misses = 0
        self.pulls_stranded = 0
        self.adv_sent = 0

    @staticmethod
    def relay_subset(pid: int, n: int, seed: int) -> Tuple[int, ...]:
        """The deterministic per-seed push (eager relay) subset of
        ``pid``: ring offset 1 (kept fixed so the overlay always
        contains the full ring and stays strongly connected) plus
        ~log2(n)-1 exponential offsets rotated by the seed."""
        if n <= 1:
            return ()
        if n == 2:
            return (1 - pid,)
        fanout = max(1, (n - 1).bit_length())  # ceil(log2(n))
        rot = seed % (n - 2)
        offsets = {1}
        for j in range(1, fanout):
            offsets.add(2 + (((1 << j) - 2 + rot) % (n - 2)))
        return tuple(sorted((pid + off) % n for off in offsets))

    # ------------------------------------------------------------------
    # Send side: push to the relay subset, advertise to the rest
    # ------------------------------------------------------------------
    def _relay(self, pid: int, message: Any) -> None:
        network = self.network
        send = network.send
        for q in self._push_peers[pid]:
            send(pid, q, message)
        network.stats.suppressed_relays += self._suppressed[pid]
        self._queue_adv(pid, message["id"])

    def _queue_adv(self, pid: int, mid: Tuple[int, int]) -> None:
        if not self._lazy_peers[pid]:
            return
        log = self._adv_log[pid]
        log.append(mid)
        if len(log) >= self.ADV_BATCH:
            self._flush_adv(pid)
        elif self._adv_timer[pid] is None:
            self._adv_timer[pid] = self.network.schedule(
                self.ADV_FLUSH_DELAY, self._adv_timer_fire, pid
            )

    def _adv_timer_fire(self, pid: int) -> None:
        self._adv_timer[pid] = None
        self._flush_adv(pid)

    def _flush_adv(self, pid: int) -> None:
        timer = self._adv_timer[pid]
        if timer is not None:
            self.network.cancel(timer)
            self._adv_timer[pid] = None
        log = self._adv_log[pid]
        if not log:
            return
        base = self._adv_base[pid]
        end = base + len(log)
        network = self.network
        cursors = self._adv_cursor[pid]
        for q in self._lazy_peers[pid]:
            cur = cursors[q]
            if cur >= end:
                continue  # already piggybacked on an organic send
            ids = tuple(log[cur - base :])
            cursors[q] = end
            self.adv_sent += 1
            network.send(pid, q, {"kind": "adv", "ids": ids})
        self._adv_base[pid] = end
        log.clear()

    def _attach_adv(self, pid: int, dst: int, message: Any) -> None:
        """Piggyback ``pid``'s pending advertisement ids for ``dst``
        onto an outgoing protocol message (pull or pull-reply)."""
        cur = self._adv_cursor[pid].get(dst)
        if cur is None:
            return  # push peer: it gets full bodies, not advertisements
        log = self._adv_log[pid]
        if not log:
            return
        base = self._adv_base[pid]
        end = base + len(log)
        if cur < end:
            message["adv"] = tuple(log[cur - base :])
            self._adv_cursor[pid][dst] = end

    # ------------------------------------------------------------------
    # Receive side: dispatch bodies vs control messages
    # ------------------------------------------------------------------
    def _receive(self, pid: int, src: int, message: Any) -> None:
        kind = message.get("kind")
        if kind is None:
            # a full body: a push, a pushed relay, or a resync resend
            self._body(pid, message)
            return
        if kind == "adv":
            for mid in message["ids"]:
                self._advertised(pid, src, mid)
            return
        adv = message.get("adv")
        if adv is not None:
            for mid in adv:
                self._advertised(pid, src, mid)
        if kind == "pull":
            self._pull_request(pid, src, message["mid"])
        elif kind == "pull-reply":
            self._body(pid, message["body"])
        elif kind == "pull-miss":
            self._pull_missed(pid, src, message["mid"])

    def _body(self, pid: int, body: Any) -> None:
        mid = body["id"]
        # inlined _is_seen (hot path) — keep in sync with that helper
        if mid[1] < self._frontier[pid][mid[0]] or mid in self._seen[pid]:
            return
        entry = self._missing[pid].pop(mid, None)
        if entry is not None and entry[2] is not None:
            self.network.cancel(entry[2])
        self._note_seen(pid, body)
        if self.flood:
            self._relay(pid, body)
        self._on_first_body(pid, body)

    def _on_first_body(self, pid: int, body: Any) -> None:
        raise NotImplementedError  # delivery layer of the subclass

    def _note_seen(self, pid: int, message: Any) -> None:
        self._bodies.setdefault(message["id"], message)
        super()._note_seen(pid, message)

    def _gc(self) -> None:
        super()._gc()
        bodies = self._bodies
        if bodies:
            stable = self._stable
            dead = [mid for mid in bodies if mid[1] < stable[mid[0]]]
            for mid in dead:
                del bodies[mid]

    # ------------------------------------------------------------------
    # Pull path: grace, timeout, backoff, holder failover
    # ------------------------------------------------------------------
    def _advertised(self, pid: int, src: int, mid: Tuple[int, int]) -> None:
        if mid[1] < self._frontier[pid][mid[0]] or mid in self._seen[pid]:
            return
        missing = self._missing[pid]
        entry = missing.get(mid)
        if entry is not None:
            holders = entry[0]
            if src not in holders:
                holders.append(src)  # one more candidate for failover
            return
        handle = self.network.schedule(
            self.PULL_GRACE, self._pull_fire, pid, mid
        )
        missing[mid] = [[src], 0, handle]

    def _pull_holder(
        self, pid: int, holders: List[int], attempt: int
    ) -> Optional[int]:
        """Supervised-retry holder choice, the resync-helper shape:
        prefer reachable advertisers, then any other reachable live
        peer, then separated-but-live advertisers (partitions hold
        messages, so a cross-partition pull completes at the heal);
        rotate through the pool on retries."""
        network = self.network
        live = [h for h in holders if not network.is_crashed(h)]
        reachable = [
            h
            for h in live
            if not network.separated(pid, h)
            and not network.separated(h, pid)
        ]
        others = [
            q
            for q in range(self.n)
            if q != pid
            and q not in holders
            and not network.is_crashed(q)
            and not network.separated(pid, q)
            and not network.separated(q, pid)
        ]
        pool = reachable + others or live
        if not pool:
            return None
        return pool[attempt % len(pool)]

    def _pull_fire(self, pid: int, mid: Tuple[int, int]) -> None:
        missing = self._missing[pid]
        entry = missing.get(mid)
        if entry is None:
            return
        entry[2] = None
        network = self.network
        if network.is_crashed(pid):
            # a crashed puller stops pulling; the recovery-time resync
            # repairs whatever it missed
            del missing[mid]
            return
        attempt = entry[1]
        if attempt >= self.PULL_MAX_ATTEMPTS:
            del missing[mid]
            self.pulls_stranded += 1
            monitor = self.monitor
            if monitor is not None:
                monitor.on_pull_stranded(pid, mid, attempt)
            return
        holder = self._pull_holder(pid, entry[0], attempt)
        entry[1] = attempt + 1
        if holder is not None:
            self.pulls_sent += 1
            network.stats.pulled += 1
            request = {"kind": "pull", "mid": mid}
            self._attach_adv(pid, holder, request)
            network.send(pid, holder, request)
        entry[2] = network.schedule(
            self.PULL_TIMEOUT * (self.PULL_BACKOFF**attempt),
            self._pull_fire,
            pid,
            mid,
        )

    def _pull_request(self, holder: int, requester: int, mid: Any) -> None:
        if self.pull_starve_bug:
            # chaos sentinel (--inject pull-starve): drop the request on
            # the floor — receivers the push overlay misses strand, and
            # the invariant monitors / convergence checks must catch it
            return
        body = self._bodies.get(mid)
        if body is not None and self._is_seen(holder, mid):
            self.pull_replies += 1
            reply = {"kind": "pull-reply", "body": body}
            self._attach_adv(holder, requester, reply)
            self.network.send(holder, requester, reply)
        else:
            # unseen here, or pruned by the stability GC: tell the
            # requester explicitly so it fails over without the timeout
            self.pull_misses += 1
            self.network.send(
                holder, requester, {"kind": "pull-miss", "mid": mid}
            )

    def _pull_missed(self, pid: int, src: int, mid: Tuple[int, int]) -> None:
        entry = self._missing[pid].get(mid)
        if entry is None:
            return
        holders = entry[0]
        if src in holders:
            holders.remove(src)  # a known non-holder
        if entry[2] is not None:
            self.network.cancel(entry[2])
        entry[2] = self.network.schedule(0.0, self._pull_fire, pid, mid)

    def missing_count(self, pid: int) -> int:
        """Advertised bodies ``pid`` is still waiting on (observability)."""
        return len(self._missing[pid])


class LazyReliableBroadcast(_LazyTransport, ReliableBroadcast):
    """Reliable broadcast over the push/lazy-push transport: agreement
    without ordering, at ~n·log n messages per broadcast instead of the
    eager flood's n(n-1)."""

    name = "lazy-reliable"

    def _on_first_body(self, pid: int, body: Any) -> None:
        monitor = self.monitor
        if monitor is not None:
            monitor.on_deliver(pid, body["id"])
        self._deliver(pid, body["origin"], body["payload"])


class LazyCausalBroadcast(_LazyTransport, CausalBroadcast):
    """Causal broadcast over the push/lazy-push transport.

    Causal order is enforced by the same indexed vector-clock delivery
    layer as :class:`CausalBroadcast` (bodies arriving out of causal
    order — pushed, pulled or resynced — buffer in the wait table until
    covered), so the transport rewrite cannot weaken the ordering
    guarantee; the streaming monitor verifies CCv end to end at the
    n=32/64 scales the enumeration search cannot reach."""

    name = "lazy-causal"

    def _on_first_body(self, pid: int, body: Any) -> None:
        self._accept(pid, body)


class TotalOrderBroadcast(BroadcastService):
    """Sequencer-based total-order (atomic) broadcast.

    Process 0 acts as the sequencer: every broadcast is unicast to it, it
    assigns a global sequence number and reliably re-broadcasts; receivers
    deliver strictly in sequence order.  A broadcaster therefore observes
    its own message only after a full round trip — the communication-delay
    dependence that the weak criteria avoid (experiment E6).

    ``on_delivered_own`` callbacks let the SC object implementation block
    an operation until its message comes back sequenced.
    """

    name = "total-order"

    def __init__(self, network: Transport, sequencer: int = 0) -> None:
        super().__init__(network)
        self.sequencer = sequencer
        self._next_seq = 0
        self._expected: List[int] = [0] * self.n
        self._pending: List[Dict[int, Any]] = [{} for _ in range(self.n)]
        self._next_local_id: List[int] = [0] * self.n
        # duplicate tolerance: a retransmitted to-seq request must not be
        # sequenced twice, and a stale sequenced copy must not re-enter
        # the pending window after delivery
        self._sequenced: Set[Tuple[int, int]] = set()
        for pid in range(self.n):
            network.attach(pid, partial(self._receive, pid))

    def _receive(self, pid: int, src: int, message: Any) -> None:
        if message["kind"] == "to-seq":
            self._sequence(pid, message)
        else:
            self._accept(pid, message)

    def broadcast(self, pid: int, payload: Any) -> None:
        if self.network.is_crashed(pid):
            return
        message = {
            "kind": "to-seq",
            "origin": pid,
            "local_id": self._next_local_id[pid],
            "payload": payload,
        }
        self._next_local_id[pid] += 1
        if pid == self.sequencer:
            self._sequence(pid, message)
        else:
            self.network.send(pid, self.sequencer, message)

    def _sequence(self, pid: int, message: Any) -> None:
        if pid != self.sequencer or self.network.is_crashed(pid):
            return
        key = (message["origin"], message["local_id"])
        if key in self._sequenced:
            return
        self._sequenced.add(key)
        sequenced = {
            "kind": "sequenced",
            "seq": self._next_seq,
            "origin": message["origin"],
            "local_id": message["local_id"],
            "payload": message["payload"],
        }
        self._next_seq += 1
        self._accept(pid, sequenced)
        for dst in range(self.n):
            if dst != pid:
                self.network.send(pid, dst, sequenced)

    def _accept(self, pid: int, message: Any) -> None:
        if message["seq"] < self._expected[pid]:
            return  # duplicate of an already-delivered sequence number
        self._pending[pid][message["seq"]] = message
        monitor = self.monitor
        while self._expected[pid] in self._pending[pid]:
            queued = self._pending[pid].pop(self._expected[pid])
            self._expected[pid] += 1
            if monitor is not None:
                monitor.on_deliver(pid, (queued["origin"], queued["local_id"]))
            self._deliver(pid, queued["origin"], queued)
