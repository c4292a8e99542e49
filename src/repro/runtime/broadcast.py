"""Broadcast primitives over the asynchronous network (Sec. 6.1), written
as *code for process pᵢ*.

The paper's algorithms assume a *reliable causal broadcast* [10]:

- validity/integrity: delivered messages were broadcast;
- agreement: if any process delivers ``m``, all non-faulty processes do;
- local delivery: a broadcaster delivers its own message immediately;
- causal order: if ``m`` was broadcast after delivering ``m'``, no process
  delivers ``m`` before ``m'``.

Like Figs. 4 and 5, every primitive is a per-process state machine, an
:class:`Endpoint`: process ``pid`` owns its endpoint's fields and learns
everything else from messages.  A :class:`ReliableEndpoint` at pᵢ::

    originate(v):                          # if pᵢ is up
        m <- (id (i, frontier[i]), v[, causal stamp]); note(m)
        accept(m); relay(m)                # local delivery comes first
    receive(m) from q:
        if seq(m) < frontier[origin(m)] or id(m) in spill: drop
        note(m); accept(m)
        if q = origin(m) and seq(m) > frontier[q]: on gap(q, seq(m))
    note(m):  if seq(m) = frontier[origin(m)]: advance that frontier past
              m and the spilled ids after it, else add id(m) to spill;
              append m to log; every GC_INTERVAL notes: sweep
    relay(m): send m to every peer
    sweep:    s <- per origin, the minimum of the peer view's rows;
              if s moved: drop every m with seq(m) < s[origin(m)] from log
    resync(helper = the lowest live peer), once recovered:
              send ("resync-req", frontier, spill) to helper
    on ("resync-req", frontier, spill) from q:
              learn q's row; send q every m in log that row lacks
    repairer(o, q): o, unless o is crashed or cut off from q; then the
              lowest live pid not cut off from q that holds the message
    on digest (frontier, spill) from q:
              learn q's row; resend q every m in log that row lacks,
              that this endpoint had seen when q's previous digest came
              (one heartbeat of grace) and whose repairer it is
    on gap(o, s): once the copy s has been here longer than any copy
              can be overtaken (at once on FIFO links), send
              ("nack", o, lo, s) to repairer(o, pᵢ), lo the frontier;
              the same ids again only once their repair is overdue
              (never where copies take unknown time)
    on ("nack", o, lo, hi) from q:
              resend q every m of o's lo..hi-1 in log that q's row lacks
    on ("repair", m) from q: receive(m) from q

``accept`` is the ordering layer's delivery condition::

    Reliable: deliver m
    Fifo:     pending += m; with o = origin(m), while pending holds
              (o, expected[o]): deliver it, expected[o] += 1
    Causal:   stamp(m) <- vc with vc[i] + 1, at originate; m waits until
              vc[j] >= stamp(m)[j] for every j != origin(m) and
              vc[origin(m)] >= stamp(m)[origin(m)] - 1, then cascade(m):
              deliver m; vc[origin(m)] += 1; deliver next every waiting
              message no component holds back any more, in arrival
              order from m's on, wrapping round

**Own state.**  What pᵢ has seen — a contiguous per-origin *frontier*
(everything of ``origin`` below ``frontier[origin]``; ``frontier[pid]``
doubles as pᵢ's own next sequence number) plus a small *spill* set of
out-of-order ids, so dedup is O(1) without hashing on the common path —
the retained *log* of those messages in seen order (the substrate of
crash-recovery anti-entropy), and the ordering layer's buffers.

**Peer view.**  What pᵢ knows of everyone's seen-set (:class:`PeerView`:
a frontier row and a spill per process).  One code path each computes
from it the *stability frontier* (per-origin minimum: seen by everyone,
so :meth:`ReliableEndpoint.sweep` prunes it from the log; a crashed
peer's row stops moving, which retains exactly what it may still need),
the resync *verification cutoff* (per-origin maximum: what is known to
exist) and "does a live peer hold something I lack"
(:meth:`ReliableEndpoint._behind`).

**Hosted and remote peers.**  A :class:`BroadcastService` is the
run-scoped container ``algorithm.broadcast`` names: deliver-handler
table, counters, runtime monitor, GC cadence.
It builds one endpoint per pid its transport hosts
(``Transport.hosted``).  A peer hosted by the same service has its row
*aliased* into the view — free and exact; a remote peer's row is
whatever its last digest said.  The simulator hosts all n processes on
one ``Network``: every row is aliased and the control call is an
in-line function call — the all-peers-hosted special case of the code a
live node runs with one endpoint, heartbeat digests and control frames.
Its heartbeat is the service's own timer chain
(:meth:`ReliableBroadcast._beat`): every ``HB_INTERVAL`` each live
process's digest reaches every live peer it is not separated from, and
the repairs it draws are ordinary network copies (``Transport.repair``).

**One axis, one dissemination.**  *Delivery order* is the endpoint
class an ``XBroadcast`` service builds: ``Reliable`` (none), ``Fifo``
(the PRAM baseline's), ``Causal`` (Figs. 4 and 5's).  Every one of them
spreads a message the same way on both planes: only its broadcaster
sends it, a receiver that sees a gap in its copies nacks it, and
heartbeat digests repair a lost tail no later copy shows — one
repairer per (origin, peer), so a lost copy is resent once.
``TotalOrder`` stands apart: sequencer-based and *not* wait-free, which
is exactly why sequentially consistent objects cannot have latency
independent of the network (Sec. 1, [3, 16]; experiment E6 measures it).
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from itertools import repeat
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from .transport import Transport

Handler = Callable[[int, Any], None]  # (origin pid, payload)
Mid = Tuple[int, int]  # (origin pid, origin's sequence number)

#: most spilled ids a digest lists: a peer reading a cut digest takes
#: the ids past the cut as missing, so the cut costs repeated sends at
#: worst, and a digest can make its reader build no bigger set than this
DIGEST_SPILL = 4096


class Endpoint:
    """Process ``pid``'s end of a broadcast service.  Subclasses supply
    ``originate(payload)`` and ``receive(src, message)``, the transport's
    message sink for this process."""

    def __init__(self, service: "BroadcastService", pid: int) -> None:
        self.service = service
        self.transport = service.network
        self.pid = pid
        self.n = service.n

    def broadcast(self, payload: Any) -> None:
        # by way of the service class, so a run-scoped observer wrapping
        # ``<Service>.broadcast`` sees every original broadcast once
        self.service.broadcast(self.pid, payload)

    def digest(self) -> Dict[str, Any]:
        """What this process tells its peers about itself in a heartbeat."""
        return {}

    def _deliver(self, origin: int, payload: Any) -> None:
        if self.transport.is_crashed(self.pid):
            return
        service = self.service
        service.delivered_count += 1
        # looked up per delivery: observers re-bind the table's entries
        handler = service.delivery_handlers.get(self.pid)
        if handler is not None:
            handler(origin, payload)


class BroadcastService:
    """One instance per run: the container of the hosted endpoints."""

    name = "broadcast"
    endpoint_cls = Endpoint

    # what :meth:`stats` reports; zero for good in a layer without resync
    resync_attempts = resync_retries = resync_converged = resync_gave_up = 0
    resyncs_requested = resyncs_served = 0
    repairs_sent = repairs_received = nacks_sent = 0

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
        self.endpoints: Dict[int, Any] = {
            pid: self.endpoint_cls(self, pid) for pid in network.hosted
        }
        for pid, endpoint in self.endpoints.items():
            network.attach(pid, endpoint.receive)

    def endpoint(self, pid: int, handler: Handler) -> Optional[Any]:
        """Register ``handler`` as process ``pid``'s deliver callback;
        returns its endpoint (``None`` for a pid hosted elsewhere)."""
        self.delivery_handlers[pid] = handler
        return self.endpoints.get(pid)

    def broadcast(self, pid: int, payload: Any) -> None:
        self.endpoints[pid].originate(payload)

    def log_sizes(self) -> List[int]:
        """Retained anti-entropy log entries per hosted process."""
        return []

    def stats(self) -> Dict[str, Any]:
        """The counters a node's ``status`` document shows."""
        return {
            "delivered": self.delivered_count,
            "log_sizes": self.log_sizes(),
            "resync_attempts": self.resync_attempts,
            "resync_retries": self.resync_retries,
            "resync_converged": self.resync_converged,
            "resync_gave_up": self.resync_gave_up,
            "resyncs_served": self.resyncs_served,
            "resyncs_requested": self.resyncs_requested,
            "repairs_sent": self.repairs_sent,
            "repairs_received": self.repairs_received,
            "nacks_sent": self.nacks_sent,
        }


class PeerView:
    """What one process knows of every process's seen-set: per pid (its
    own included) a contiguous frontier row and an out-of-order spill.
    Rows of processes hosted beside the owner are the owners' own lists,
    aliased; a remote row only moves when :meth:`learn` is told so."""

    def __init__(self, n: int, hosted: Dict[int, "ReliableEndpoint"]) -> None:
        self.rows: List[List[int]] = [
            hosted[q].frontier if q in hosted else [0] * n for q in range(n)
        ]
        self.spills: List[Set[Mid]] = [
            hosted[q].spill if q in hosted else set() for q in range(n)
        ]
        self.remote = frozenset(range(n)).difference(hosted)

    def learn(
        self, pid: int, frontier: Sequence[int], spill: Optional[Any] = None
    ) -> None:
        """Digest receipt: ``pid`` says it has seen everything below
        ``frontier`` and, when it says so, the ids of ``spill``'s
        ``(origin, lo, hi)`` runs above it (:meth:`ReliableEndpoint.digest`)."""
        if pid not in self.remote:
            return  # aliased, already exact
        row = self.rows[pid]
        for origin, head in enumerate(frontier[: len(row)]):
            if head > row[origin]:
                row[origin] = head
        if spill is not None:
            self.spills[pid] = {
                (origin, seq) for origin, lo, hi in spill for seq in range(lo, hi)
            }

    def seen(self, pid: int, mid: Mid) -> bool:
        return mid[1] < self.rows[pid][mid[0]] or mid in self.spills[pid]

    def stable(self) -> List[int]:
        """The stability frontier: per origin, what every process has seen."""
        return list(map(min, zip(*self.rows)))

    def cutoff(self) -> Tuple[int, ...]:
        """Per origin, how many messages are known to exist: every
        message was seen by its origin before anyone else, so no row
        exceeds the origin's own and any row bounds it from below."""
        return tuple(map(max, zip(*self.rows)))


class _Gap:
    """One origin's copies as a receiver saw them arrive above its
    frontier: ``arrivals`` that may still be overtaken, as ``(time,
    seq)`` rising in both; ``proven``, the highest seq below which a
    missing id is lost; and the last nack, asking up to ``asked`` at
    ``asked_at``."""

    __slots__ = ("arrivals", "proven", "asked", "asked_at")

    def __init__(self) -> None:
        self.arrivals: Deque[Tuple[float, int]] = deque()
        self.proven = self.asked = 0
        self.asked_at = -math.inf


class ReliableEndpoint(Endpoint):
    """Reliable broadcast by direct sends, gap nacks and digest repair.

    Each message goes once per peer, from its origin (n-1 messages), and
    no receiver passes it on.  Two requests make that reliable, both
    answered by the one repairer of the (origin, peer) pair: the origin,
    or when it is crashed or cut off from the peer, the lowest live
    holder joined to the peer (:meth:`_repairer`).
    A receiver whose copies from an origin show a gap nacks the ids
    missing below it once that copy can no longer be overtaken
    (:meth:`_on_gap`, ``Transport.overtake``), and the repairer resends
    them from its log (:meth:`_answer_nack`).  A lost tail shows no
    gap: a peer's heartbeat digest has the repairer resend what the peer
    lacks (:meth:`_repair`) — on a live node from the node's heartbeat
    (:meth:`on_control`), on the simulated plane from the service's
    (:meth:`ReliableBroadcast._beat`).  Digests also cover a lost nack
    or repair, and an origin's crash mid-send, once the holders know of
    it (a live node's view: ``HB_TIMEOUT`` without a heartbeat).  Either
    way one copy is resent per copy lost, and a digest is compared only
    for the origins this endpoint repairs.

    Memory stays bounded on long runs through causal-stability GC
    (:meth:`sweep`), and a crash-recovered process catches up by
    supervised anti-entropy (:meth:`start_resync`); a pruned message is,
    by construction, already seen by every possible resync target.
    """

    def __init__(self, service: "ReliableBroadcast", pid: int) -> None:
        super().__init__(service, pid)
        self.frontier: List[int] = [0] * self.n
        self.spill: Set[Mid] = set()
        self.log: List[Any] = []
        self.stable: List[int] = [0] * self.n
        # per origin, below what the log has been pruned: ``stable``,
        # unless an unsound sweep (the chaos sentinel) let it regress
        self.pruned: List[int] = [0] * self.n
        self.peers: PeerView  # built once every hosted endpoint exists
        # a re-crash + re-recover orphans the old supervision chain
        self._resync_epoch = 0
        # per remote peer, this endpoint's frontier and spill when that
        # peer's last digest came: what its next digest may get repaired
        self._grace: Dict[int, Tuple[List[int], Set[Mid]]] = {}
        # per origin, what this endpoint knows of the gaps in its copies
        self._gaps: Dict[int, _Gap] = {}
        # the log by id, as far as :meth:`_retained` has read it
        self._indexed: List[Any] = []
        self._index: Dict[Mid, Any] = {}

    # ------------------------------------------------------------------
    # Dedup bookkeeping
    # ------------------------------------------------------------------
    def is_seen(self, mid: Mid) -> bool:
        return mid[1] < self.frontier[mid[0]] or mid in self.spill

    def digest(self) -> Dict[str, Any]:
        """The frontier row, and the spill as ``(origin, lo, hi)`` runs
        lowest first, cut after :data:`DIGEST_SPILL` ids."""
        runs: List[List[int]] = []
        for origin, seq in sorted(self.spill)[:DIGEST_SPILL]:
            if runs and runs[-1][0] == origin and runs[-1][2] == seq:
                runs[-1][2] = seq + 1
            else:
                runs.append([origin, seq, seq + 1])
        return {"frontier": list(self.frontier), "spill": runs}

    def _note_seen(self, message: Any) -> None:
        mid = message["id"]
        origin, seq = mid
        frontier = self.frontier
        if seq == frontier[origin]:
            nxt = seq + 1
            spill = self.spill
            if spill:
                while (origin, nxt) in spill:
                    spill.discard((origin, nxt))
                    nxt += 1
            frontier[origin] = nxt
        else:
            self.spill.add(mid)
        self.log.append(message)
        service = self.service
        service._notes_since_gc += 1
        if service._notes_since_gc >= service.GC_INTERVAL:
            service.sweep()

    def sweep(self) -> None:
        """Causal-stability GC: prune the log below the stability
        frontier of this process's peer view."""
        service = self.service
        stable = self.peers.stable()
        if stable == self.stable:
            return
        if service.monitor is not None:
            # membership through the Transport contract — `.crashed` is a
            # Network implementation detail the live transport doesn't have
            is_crashed = self.transport.is_crashed
            crashed = {q for q in range(self.n) if is_crashed(q)}
            service.monitor.on_gc(stable, self.peers.rows, crashed)
        self.stable = stable
        self.pruned = list(map(max, self.pruned, stable))
        log = self.log
        self.log = [m for m in log if m["id"][1] >= stable[m["id"][0]]]
        service.gc_pruned += len(log) - len(self.log)

    # ------------------------------------------------------------------
    # The send and receive paths, shared by every ordering layer below:
    # a layer is its ``_accept`` (and, for causal order, its stamp)
    # ------------------------------------------------------------------
    def originate(self, payload: Any) -> None:
        if self.transport.is_crashed(self.pid):
            return
        message = self._new_message(payload)
        self._note_seen(message)
        # immediate local delivery (Sec. 6.1, third bullet): nothing can
        # precede a process's own next message at that process
        self._accept(message)
        self._relay(message)

    def _new_message(self, payload: Any) -> Dict[str, Any]:
        pid = self.pid
        return {"id": (pid, self.frontier[pid]), "origin": pid, "payload": payload}

    def _relay(self, message: Any) -> None:
        self.transport.multicast(self.pid, message)

    def receive(self, src: int, message: Any) -> None:
        mid = message["id"]
        # inlined is_seen (hot path) — keep in sync with that helper
        if mid[1] < self.frontier[mid[0]] or mid in self.spill:
            return
        self._note_seen(message)
        self._accept(message)
        if mid[1] >= self.frontier[mid[0]] and src == mid[0]:
            self._on_gap(mid[0], mid[1])

    def _accept(self, message: Any) -> None:
        """A first-seen message enters the delivery layer — with no
        ordering to enforce, it is delivered at once."""
        monitor = self.service.monitor
        if monitor is not None:
            monitor.on_deliver(self.pid, message["id"])
        self._deliver(message["origin"], message["payload"])

    # ------------------------------------------------------------------
    # Resync: request -> serve, over the transport's control call
    # ------------------------------------------------------------------
    def resync(self, helper: Optional[int] = None) -> int:
        """Anti-entropy catch-up after a crash: tell a live ``helper``
        (lowest live pid by default) what this process has seen; the
        helper replays from its own log what that does not cover
        (:meth:`on_control`), and the ordering layer delivers the
        replayed messages in the right order.  Returns the number of
        messages re-sent when the control call is in-line, else 0."""
        if helper is None:
            helper = self._resync_helper(0)
            if helper is None:
                return 0
        self.service.resyncs_requested += 1
        request = {"kind": "resync-req", **self.digest()}
        return self.transport.control(self.pid, helper, request) or 0

    def on_control(self, src: int, body: Dict[str, Any]) -> Optional[int]:
        """The transport's control sink.  A ``repair`` carries one
        message, received as if ``src`` had sent it, and a ``nack``
        asks for a run of one origin's ids (:meth:`_answer_nack`).  Any
        other body may carry its sender's digest: a ``resync-req`` then
        asks for everything the sender lacks, and a heartbeat gets what
        :meth:`_repair` finds."""
        kind = body.get("kind")
        if kind == "repair":
            self.service.repairs_received += 1
            self.receive(src, body["body"])
            return None
        if kind == "nack":
            self._answer_nack(src, body["origin"], body["lo"], body["hi"])
            return None
        frontier = body.get("frontier")
        if frontier is None:
            return None
        self.peers.learn(src, frontier, body.get("spill"))
        if kind != "resync-req":
            self._repair(src, self._orphans(src))
            return None
        self.service.resyncs_served += 1
        seen = self.peers.seen
        missing = [m for m in self.log if not seen(src, m["id"])]
        send = self.transport.send
        for message in missing:
            send(self.pid, src, message)
        return len(missing)

    # ------------------------------------------------------------------
    # Repair: one repairer per (origin, peer), asked by a digest or a nack
    # ------------------------------------------------------------------
    def _reaches(self, a: int, b: int) -> bool:
        """Is ``a`` up and joined to ``b`` both ways?"""
        transport = self.transport
        return not (
            transport.is_crashed(a)
            or transport.separated(a, b)
            or transport.separated(b, a)
        )

    def _orphans(self, q: int) -> List[int]:
        """The origins other than ``q`` that cannot repair ``q``
        themselves: crashed, or cut off from ``q``."""
        reaches = self._reaches
        return [o for o in range(self.n) if o != q and not reaches(o, q)]

    def _repairer(self, mid: Mid, q: int) -> Optional[int]:
        """Who repairs ``mid`` to peer ``q``: its origin, or when that is
        crashed or cut off from ``q``, the lowest live holder joined to
        ``q`` (``None``: no one this endpoint knows of).  Rows only ever
        under-state what a peer holds, so the true lowest holder always
        takes itself for it."""
        reaches, seen = self._reaches, self.peers.seen
        if reaches(mid[0], q):
            return mid[0]
        for h in range(self.n):
            if h != q and reaches(h, q) and seen(h, mid):
                return h
        return None

    def _repair(self, q: int, orphans: List[int]) -> None:
        """Peer ``q``'s digest just came: resend it every logged message
        this endpoint repairs to ``q`` (:meth:`_repairer`: its own, and
        the ``orphans``' when it is their lowest holder) that its row
        lacks and this endpoint had seen when ``q``'s previous digest
        came.  That grace of one heartbeat keeps a copy still in flight
        from being sent twice; the stability GC has kept every such
        message, since ``q``'s row holds the minimum below it."""
        origins = sorted({self.pid, *orphans})
        frontier, spill = self._grace.get(q, (None, set()))
        self._grace[q] = (list(self.frontier), self._spilled(origins))
        if frontier is None:
            return  # q's first digest: nothing was seen before one
        self._send_repairs(q, self._owed(q, frontier, spill, origins))

    def _answer_nack(self, q: int, origin: int, lo: int, hi: int) -> None:
        """Peer ``q`` found ``origin``'s ids ``lo..hi-1`` missing: resend
        it those its row lacks that the log holds."""
        seen, retained = self.peers.seen, self._retained
        owed = [
            retained(mid)
            for mid in zip(repeat(origin), range(lo, hi))
            if not seen(q, mid)
        ]
        self._send_repairs(q, [message for message in owed if message is not None])

    def _send_repairs(self, q: int, messages: List[Any]) -> None:
        self.service.repairs_sent += len(messages)
        repair = self.transport.repair
        for message in messages:
            repair(self.pid, q, message)

    def _spilled(self, origins: List[int]) -> Set[Mid]:
        """This endpoint's spilled ids of ``origins``: none when they are
        its own alone, the fault-free case, at no cost."""
        if len(origins) == 1:
            return set()
        return {mid for mid in self.spill if mid[0] in origins}

    def _owed(
        self, q: int, frontier: List[int], spill: Set[Mid], origins: List[int]
    ) -> List[Any]:
        """The logged messages below ``frontier`` or in ``spill`` of
        ``origins`` that peer ``q`` lacks and this endpoint repairs,
        origin by origin: O(len(origins)) when ``q``'s row covers
        ``frontier`` and nothing is spilled, the fault-free case."""
        pid, repairer, retained = self.pid, self._repairer, self._retained
        row, held = self.peers.rows[q], self.peers.spills[q]
        lacking: List[Mid] = []
        for origin in origins:
            got, head = row[origin], frontier[origin]
            if got < head:
                lacking.extend(
                    mid
                    for mid in zip(repeat(origin), range(got, head))
                    if mid not in held
                )
        if spill:
            lacking.extend(
                sorted(mid for mid in spill - held if mid[1] >= row[mid[0]])
            )
        return [
            message
            for message in map(retained, lacking)
            if message is not None and repairer(message["id"], q) == pid
        ]

    def _holds_missing(self, q: int, orphans: List[int]) -> bool:
        """Does this endpoint's log hold a message peer ``q`` lacks that
        this endpoint repairs?"""
        origins = sorted({self.pid, *orphans})
        return bool(self._owed(q, self.frontier, self._spilled(origins), origins))

    def _on_gap(self, origin: int, seq: int) -> None:
        """``origin``'s own copy of ``seq`` came in above the frontier,
        so the ids below it that are not spilled may be lost.  They were
        sent before it, so once it has been here longer than a copy can
        be overtaken (``Transport.overtake``: at once where links are
        FIFO) those still missing are, and one ``nack`` asks the
        repairer for the lowest run of them not asked for yet.  The same
        ids are asked for again only once their repair is overdue: the
        nack is answered where it lands, so its copy should be here
        within ``Transport.latency`` plus ``overtake`` — never, where
        the latency is not known, and digests repair what a lost nack or
        repair leaves open.  Checked as copies arrive, so no timer runs
        per gap, and not at all where no bound on overtaking is known."""
        transport = self.transport
        age = transport.overtake
        if age == math.inf:
            return
        now = transport.now
        gap = self._gaps.get(origin)
        if gap is None:
            gap = self._gaps[origin] = _Gap()
        arrivals, proven = gap.arrivals, gap.proven
        # an arrival below a younger one's seq proves nothing more
        if seq > (arrivals[-1][1] if arrivals else proven):
            arrivals.append((now, seq))
        while arrivals and now - arrivals[0][0] >= age:
            proven = arrivals.popleft()[1]
        gap.proven = proven
        frontier = self.frontier[origin]
        if proven <= frontier:
            return
        lo = frontier
        if now - gap.asked_at < transport.latency + age:
            lo = max(lo, gap.asked)
        lo = self._gap(origin, lo, proven)
        if lo is None:
            return
        repairer = self._repairer((origin, lo), self.pid)
        if repairer is None:
            return
        # one run of missing ids: those seen above it may not have
        # reached the repairer's view of this endpoint yet
        hi, spill = lo + 1, self.spill
        while hi < proven and hi - lo < DIGEST_SPILL and (origin, hi) not in spill:
            hi += 1
        if lo == frontier:  # the grace runs from the lowest id's ask
            gap.asked_at = now
        gap.asked = hi
        self.service.nacks_sent += 1
        transport.control(
            self.pid, repairer, {"kind": "nack", "origin": origin, "lo": lo, "hi": hi}
        )

    def _retained(self, mid: Mid) -> Optional[Any]:
        """The message ``mid`` if the log still holds it.  The index is
        brought up to date here, not per note: the log only grows until
        a sweep replaces it with a pruned copy."""
        log = self.log
        if log is not self._indexed:
            self._indexed, self._index = log, {}
        index = self._index
        if len(index) < len(log):
            for message in log[len(index) :]:  # ids in the log are distinct
                index[message["id"]] = message
        return index.get(mid)

    def _relay_and_beat(self, message: Any) -> None:
        """The outbound send of an endpoint whose service hosts every
        process: the multicast, and the service's heartbeat armed."""
        self.transport.multicast(self.pid, message)
        self.service.arm_heartbeat()

    # ------------------------------------------------------------------
    # Supervised resync: timeout + exponential backoff + helper failover
    # ------------------------------------------------------------------
    def start_resync(self) -> None:
        """Supervised anti-entropy catch-up for a recovered process.

        The one-shot :meth:`resync` silently strands this process when
        its helper crashes mid-catch-up, the catch-up messages are lost,
        or the helper is on the wrong side of a partition.  This wrapper
        supervises it: the first attempt is byte-identical to the
        one-shot (lowest live helper), then a verification check fires
        ``RESYNC_TIMEOUT`` later — if any live peer still holds a
        message this process has not seen (restricted to messages that
        existed when the attempt started, so fresh traffic never fakes a
        gap), the catch-up is retried against the next reachable helper
        with geometric backoff, up to ``RESYNC_MAX_ATTEMPTS``.

        A re-crash orphans the supervision chain (epoch bump on the next
        recovery); the chain draws nothing from the rng unless an actual
        retry re-sends messages, so runs whose first attempt succeeds
        deliver the identical values in the identical order as the
        pre-supervision one-shot (the pending verification check does
        extend simulated quiescence by the timeout tail)."""
        self._resync_epoch += 1
        self._resync_attempt(self._resync_epoch, 0, self.service.RESYNC_TIMEOUT)

    def _live_peers(self) -> List[int]:
        crashed = self.transport.is_crashed
        return [q for q in range(self.n) if q != self.pid and not crashed(q)]

    def _resync_helper(self, attempt: int) -> Optional[int]:
        live = self._live_peers()
        if not live:
            return None
        if attempt == 0:
            # the pre-supervision one-shot choice, preserved exactly so
            # recorded-history fingerprints only move when a retry fires
            return live[0]
        separated = self.transport.separated
        pool = [q for q in live if not separated(q, self.pid)] or live
        return pool[attempt % len(pool)]

    def _resync_attempt(self, epoch: int, attempt: int, timeout: float) -> None:
        if self._resync_epoch != epoch:
            return  # orphaned: this process re-crashed and re-recovered
        if self.transport.is_crashed(self.pid):
            return  # re-crashed: the next recover starts a fresh epoch
        helper = self._resync_helper(attempt)
        if helper is not None:
            service = self.service
            service.resync_attempts += 1
            if attempt:
                service.resync_retries += 1
            self.resync(helper)
        # verification cutoff: only messages that already exist count as
        # missing at the check, so traffic broadcast after this attempt
        # can never turn a complete catch-up into a spurious retry
        cutoff = self.peers.cutoff()
        self.transport.schedule(
            timeout, self._resync_check, epoch, attempt, timeout, cutoff
        )

    def _resync_check(
        self, epoch: int, attempt: int, timeout: float, cutoff: Tuple[int, ...]
    ) -> None:
        if self._resync_epoch != epoch or self.transport.is_crashed(self.pid):
            return
        service = self.service
        if not self._behind(cutoff):
            service.resync_converged += 1
            return
        if attempt + 1 >= service.RESYNC_MAX_ATTEMPTS:
            service.resync_gave_up += 1
            if service.monitor is not None:
                service.monitor.on_resync_stranded(self.pid, attempt + 1)
            return
        self._resync_attempt(
            epoch, attempt + 1, timeout * service.RESYNC_BACKOFF
        )

    def _gap(self, origin: int, lo: int, hi: int) -> Optional[int]:
        """The first of ``origin``'s ids in ``[lo, hi)`` not seen here
        (``lo`` at or above the frontier), if any."""
        spill = self.spill
        for seq in range(lo, hi):
            if (origin, seq) not in spill:
                return seq
        return None

    def _behind(self, cutoff: Tuple[int, ...]) -> bool:
        """Does any live peer still hold a message (below ``cutoff``)
        that this process has not seen?  A gap *below* the stability
        frontier is pruned from every log and so unrepairable, which a
        sound GC makes impossible — flagged as ``pruned-gap``, never
        retried."""
        frontier, stable, pruned = self.frontier, self.stable, self.pruned
        monitor = self.service.monitor
        if monitor is not None:
            for origin in range(self.n):
                limit = min(stable[origin], cutoff[origin])
                seq = self._gap(origin, frontier[origin], limit)
                if seq is not None:
                    monitor.on_pruned_gap(self.pid, origin, seq)
        live = self._live_peers()
        rows, spills = self.peers.rows, self.peers.spills
        for origin in range(self.n):
            held = max((rows[q][origin] for q in live), default=0)
            floor = max(frontier[origin], pruned[origin])
            if self._gap(origin, floor, min(held, cutoff[origin])) is not None:
                return True
        return any(
            pruned[mid[0]] <= mid[1] < cutoff[mid[0]] and not self.is_seen(mid)
            for q in live
            for mid in spills[q]
        )


class ReliableBroadcast(BroadcastService):
    """The reliable broadcast service: see :class:`ReliableEndpoint`."""

    name = "reliable"
    endpoint_cls = ReliableEndpoint

    #: first-seen notes (across the hosted endpoints) between sweeps
    GC_INTERVAL = 1024

    #: supervised-resync parameters: first verification check after
    #: RESYNC_TIMEOUT, backing off geometrically, giving up after
    #: RESYNC_MAX_ATTEMPTS catch-up attempts
    RESYNC_TIMEOUT = 6.0
    RESYNC_BACKOFF = 1.6
    RESYNC_MAX_ATTEMPTS = 8
    #: heartbeat period of a service that hosts every process,
    #: in simulated time units: 24 mean default delays, so a copy still
    #: in flight (a slow link, a reorder burst) is seldom taken for a
    #: lost one, and a beat's O(n^2) digest round stays rare next to
    #: the traffic it covers
    HB_INTERVAL = 24.0

    def __init__(self, network: Transport) -> None:
        super().__init__(network)
        self._notes_since_gc = 0
        self.gc_runs = 0
        self.gc_pruned = 0
        #: the next heartbeat's timer; ``None`` while the chain is off
        self._hb: Any = None
        beats = len(self.endpoints) == self.n
        for pid, endpoint in self.endpoints.items():
            endpoint.peers = PeerView(self.n, self.endpoints)
            network.attach_dedup(pid, endpoint.is_seen)
            network.attach_control(pid, endpoint.on_control)
            if beats:
                endpoint._relay = endpoint._relay_and_beat

    def arm_heartbeat(self) -> None:
        """Start the heartbeat chain unless it is running."""
        if self._hb is None:
            self._hb = self.network.schedule(self.HB_INTERVAL, self._beat)

    def _beat(self) -> None:
        """One heartbeat where this service hosts every process: each
        live process's digest reaches every live peer it is not
        separated from (either way), whose endpoint runs
        :meth:`ReliableEndpoint._repair` on it — the rows are aliased,
        so the digest is the row itself.  The chain re-arms only while
        such a pair can still repair something, so a permanent
        partition, a crash that never recovers and a gap no log holds
        all let the simulator drain; the next broadcast re-arms it."""
        self._hb = None
        network = self.network
        crashed, separated = network.is_crashed, network.separated
        live = [pid for pid in self.endpoints if not crashed(pid)]
        # per peer, the origins that cannot repair it themselves
        orphans = {q: self.endpoints[q]._orphans(q) for q in live}
        again = False
        for pid in live:
            endpoint = self.endpoints[pid]
            for q in live:
                if q != pid and not (separated(q, pid) or separated(pid, q)):
                    endpoint._repair(q, orphans[q])
                    again = again or endpoint._holds_missing(q, orphans[q])
        if again:
            self.arm_heartbeat()

    def sweep(self) -> None:
        """One stability sweep of every hosted endpoint."""
        self._notes_since_gc = 0
        self.gc_runs += 1
        for endpoint in self.endpoints.values():
            endpoint.sweep()

    def resync(self, target: int, helper: Optional[int] = None) -> int:
        return self.endpoints[target].resync(helper)

    def start_resync(self, target: int) -> None:
        self.endpoints[target].start_resync()

    # -- read-only observability ---------------------------------------
    def log_sizes(self) -> List[int]:
        return [len(endpoint.log) for endpoint in self.endpoints.values()]

    def retained_log(self, pid: int) -> List[Any]:
        """The messages ``pid`` retains for anti-entropy, in seen order."""
        return list(self.endpoints[pid].log)

    def seen_ids(self, pid: int) -> Set[Mid]:
        """Every message id ``pid`` has seen (frontier + spill, expanded)."""
        endpoint = self.endpoints[pid]
        return {
            (origin, seq)
            for origin, head in enumerate(endpoint.frontier)
            for seq in range(head)
        } | endpoint.spill


class FifoEndpoint(ReliableEndpoint):
    """Reliable broadcast + per-sender FIFO delivery order."""

    def __init__(self, service: "FifoBroadcast", pid: int) -> None:
        super().__init__(service, pid)
        self.expected: List[int] = [0] * self.n  # next seq per origin
        self.pending: Dict[Mid, Any] = {}

    def _accept(self, message: Any) -> None:
        origin = message["origin"]
        pending = self.pending
        pending[message["id"]] = message
        # deliver as many in-order messages as possible
        monitor = self.service.monitor
        while True:
            nxt = self.expected[origin]
            queued = pending.pop((origin, nxt), None)
            if queued is None:
                break
            self.expected[origin] = nxt + 1
            if monitor is not None:
                monitor.on_fifo_deliver(self.pid, origin, nxt)
            self._deliver(origin, queued["payload"])


class FifoBroadcast(ReliableBroadcast):
    name = "fifo"
    endpoint_cls = FifoEndpoint


class CausalEndpoint(ReliableEndpoint):
    """Reliable broadcast + vector-clock causal delivery order.

    A message is stamped with the broadcaster's delivery vector (after
    counting the message itself); a receiver delays it until it has
    delivered every causally preceding message.  Local delivery is
    immediate, matching the paper's primitive: the broadcaster's own
    message passes the same test with nothing to wait for.

    Delivery is *indexed*: a buffered message registers, per vector
    component it still lacks, in a wait table keyed by ``(component,
    threshold)`` with a deficit counter; advancing the receiver's clock
    pops exactly the entries whose threshold was reached, so each message
    is touched O(n) times total instead of being re-scanned on every
    arrival.  The cascade delivers unblocked messages in *pass order* —
    ascending arrival index within a pass, wrapped passes for entries
    whose index the cursor already passed — which is exactly the order of
    a drain that re-scans the whole buffer in arrival order until a pass
    makes no progress.  That quadratic drain is the test oracle in
    ``tests/oracles.py``, and the two are property-tested delivery-for-
    delivery identical in ``tests/test_runtime_perf.py``.
    """

    def __init__(self, service: "CausalBroadcast", pid: int) -> None:
        super().__init__(service, pid)
        # entry j counts the messages from process j delivered here
        self.vc: List[int] = [0] * self.n
        # indexed pending state: arrival counter, wait table
        # {(component, threshold): [entry]}, blocked count; an entry is
        # [arrival_index, message, deficit]
        self.arrivals = 0
        self.wait: Dict[Tuple[int, int], List[List[Any]]] = {}
        self.npending = 0

    def _new_message(self, payload: Any) -> Dict[str, Any]:
        pid = self.pid
        # the stamp counts the message itself, so at its origin it is
        # deliverable at once, and no buffered message there can be
        # waiting on it (the origin's own-broadcast count is maximal)
        stamp = list(self.vc)
        stamp[pid] += 1
        mid = (pid, self.frontier[pid])
        return {"id": mid, "origin": pid, "payload": payload, "stamp": tuple(stamp)}

    # ------------------------------------------------------------------
    def _accept(self, message: Any) -> None:
        """A first-seen message enters the delivery layer."""
        idx = self.arrivals
        self.arrivals = idx + 1
        self.npending += 1
        v = self.vc
        origin = message["origin"]
        wait = self.wait
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
            self._cascade(idx, message)
        else:
            entry[2] = deficit

    def _cascade(self, idx: int, message: Any) -> None:
        """Deliver ``message`` and everything it transitively unblocks,
        in reference pass order (see class docstring)."""
        pid = self.pid
        v = self.vc
        wait = self.wait
        monitor = self.service.monitor
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
            self.npending -= 1
            self._deliver(origin, message["payload"])
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

    def pending(self) -> int:
        """Messages buffered awaiting causal predecessors."""
        return self.npending


class CausalBroadcast(ReliableBroadcast):
    name = "causal"
    endpoint_cls = CausalEndpoint

    def broadcast(self, pid: int, payload: Any) -> None:
        # restated, not inherited: the benchmark's per-layer ledger wraps
        # ``vars(CausalBroadcast)["broadcast"]`` to time original broadcasts
        self.endpoints[pid].originate(payload)

    def pending_messages(self, pid: int) -> int:
        """Messages buffered awaiting causal predecessors (observability)."""
        return self.endpoints[pid].pending()


class TotalOrderEndpoint(Endpoint):
    """Sequencer-based total-order (atomic) broadcast.

    One process acts as the sequencer: every broadcast is unicast to it,
    it assigns a global sequence number and re-broadcasts; receivers
    deliver strictly in sequence order.  A broadcaster therefore observes
    its own message only after a full round trip — the communication-delay
    dependence that the weak criteria avoid (experiment E6).
    """

    def __init__(self, service: "TotalOrderBroadcast", pid: int) -> None:
        super().__init__(service, pid)
        self.expected = 0
        self.pending: Dict[int, Any] = {}
        self.next_local_id = 0
        # sequencer-side state.  Duplicate tolerance: a retransmitted
        # to-seq request must not be sequenced twice, and a stale
        # sequenced copy must not re-enter the pending window
        self.next_seq = 0
        self.sequenced: Set[Mid] = set()

    def receive(self, src: int, message: Any) -> None:
        if message["kind"] == "to-seq":
            self._sequence(message)
        else:
            self._accept(message)

    def originate(self, payload: Any) -> None:
        pid = self.pid
        if self.transport.is_crashed(pid):
            return
        message = {
            "kind": "to-seq",
            "origin": pid,
            "local_id": self.next_local_id,
            "payload": payload,
        }
        self.next_local_id += 1
        sequencer = self.service.sequencer
        if pid == sequencer:
            self._sequence(message)
        else:
            self.transport.send(pid, sequencer, message)

    def _sequence(self, message: Any) -> None:
        pid = self.pid
        if pid != self.service.sequencer or self.transport.is_crashed(pid):
            return
        key = (message["origin"], message["local_id"])
        if key in self.sequenced:
            return
        self.sequenced.add(key)
        sequenced = {
            "kind": "sequenced",
            "seq": self.next_seq,
            "origin": message["origin"],
            "local_id": message["local_id"],
            "payload": message["payload"],
        }
        self.next_seq += 1
        self._accept(sequenced)
        for dst in range(self.n):
            if dst != pid:
                self.transport.send(pid, dst, sequenced)

    def _accept(self, message: Any) -> None:
        if message["seq"] < self.expected:
            return  # duplicate of an already-delivered sequence number
        pending = self.pending
        pending[message["seq"]] = message
        monitor = self.service.monitor
        while self.expected in pending:
            queued = pending.pop(self.expected)
            self.expected += 1
            if monitor is not None:
                monitor.on_deliver(
                    self.pid, (queued["origin"], queued["local_id"])
                )
            self._deliver(queued["origin"], queued)


class TotalOrderBroadcast(BroadcastService):
    """The sequencer-based total-order service: see
    :class:`TotalOrderEndpoint`.  Delivered payloads are the whole
    sequenced message, which lets the SC object implementation block an
    operation until its own message comes back."""

    name = "total-order"
    endpoint_cls = TotalOrderEndpoint
    #: the pid every broadcast is unicast to for its sequence number
    sequencer = 0
