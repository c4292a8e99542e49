"""Push/lazy-push dissemination (Plumtree-style): the part a
:class:`~repro.runtime.broadcast.ReliableEndpoint` built with
``relay="lazy"`` holds in place of the eager flood, written as *code for
process pᵢ*.  ``E`` is pᵢ's endpoint — its frontier dedup, retained log
and delivery order, none of which this part changes::

    push  <- relay_subset(i, n, seed)      # ~log2(n) peers get bodies
    lazy  <- every other peer              # ... and these get ids

    relay(m):                              # E's outbound relay
        send m to every q in push
        queue id(m) for every q in lazy; flush the queue when ADV_BATCH
        ids wait, else ADV_FLUSH_DELAY after the first
    flush:  send ("adv", the ids q has not had) to every q in lazy
    on body m from q:                      # a push, pull-reply or resend
        if E has seen id(m): drop
        forget id(m) as missing; E takes m as first seen (and relays it)
    on ("adv", ids) from q:
        for each id E has not seen: add q to its holders; a new one is
        missing, pulled PULL_GRACE later (the push usually gets there)
    pull(id), attempt a:
        after PULL_MAX_ATTEMPTS: give up, flag pull-stranded
        send ("pull", id) to a holder: reachable advertisers first, then
        any reachable live peer, then separated advertisers; rotate by a
        pull again PULL_TIMEOUT * PULL_BACKOFF**a later unless answered
    on ("pull", id) from q:
        ("pull-reply", m) if E's retained log holds m, else ("pull-miss", id)
    on ("pull-miss", id) from q:  drop q from the holders, pull again now
    every pull and pull-reply to a lazy peer carries the ids it lacks

The supervised pull (the resync's shape) rides out loss, partitions,
crash storms, flapping and GC-pruned bodies.  A broadcast costs
~n·log2(n) bodies plus ~n²/ADV_BATCH advertisements instead of the
flood's n(n-1): ≥4× fewer messages at n=32, ~7× at n=64.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .broadcast import ReliableEndpoint

Mid = Tuple[int, int]  # (origin pid, origin's sequence number)

#: pending advertisement ids that force a flush
ADV_BATCH = 16
#: advertisement flush deadline (time units) when the batch is short
ADV_FLUSH_DELAY = 2.0
#: wait before the first pull — the body is usually in flight through
#: the push overlay (diameter O(log n) hops)
PULL_GRACE = 8.0
#: supervised-pull parameters, the resync shape: first re-check after
#: PULL_TIMEOUT, geometric backoff, give up (and flag the monitor) after
#: PULL_MAX_ATTEMPTS
PULL_TIMEOUT = 6.0
PULL_BACKOFF = 1.6
PULL_MAX_ATTEMPTS = 8


def relay_subset(pid: int, n: int, seed: int) -> Tuple[int, ...]:
    """The deterministic per-seed push (eager relay) subset of ``pid``:
    ring offset 1 (kept fixed so the overlay always contains the full
    ring and stays strongly connected) plus ~log2(n)-1 exponential
    offsets rotated by the seed."""
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


class LazyPush:
    """Process ``endpoint.pid``'s push/lazy-push state: see the module
    docstring.  The endpoint plugs :meth:`relay` in as its outbound relay
    and :meth:`receive` as its transport sink."""

    def __init__(self, endpoint: "ReliableEndpoint") -> None:
        self.endpoint = endpoint
        self.transport = transport = endpoint.transport
        self.pid = pid = endpoint.pid
        n = endpoint.n
        self.push_peers = relay_subset(pid, n, transport.seed)
        self.lazy_peers: Tuple[int, ...] = tuple(
            q for q in range(n) if q != pid and q not in self.push_peers
        )
        # advertised-but-missing bodies:
        # mid -> [known holders, attempts, pending timer handle]
        self.missing: Dict[Mid, List[Any]] = {}
        # advertisement batching: id backlog (with the absolute index of
        # its first entry) + per-lazy-peer cursors
        self.adv_log: List[Mid] = []
        self.adv_base = 0
        self.adv_cursor: Dict[int, int] = {q: 0 for q in self.lazy_peers}
        self.adv_timer: Optional[Any] = None
        self.pulls_sent = self.pull_replies = self.pull_misses = 0
        self.pulls_stranded = self.adv_sent = 0

    def relay(self, message: Any) -> None:
        transport = self.transport
        send = transport.send
        pid = self.pid
        for q in self.push_peers:
            send(pid, q, message)
        if not self.lazy_peers:
            return
        # relays an eager flood would have sent minus the pushes we do
        transport.stats.suppressed_relays += len(self.lazy_peers)
        self.adv_log.append(message["id"])
        if len(self.adv_log) >= ADV_BATCH:
            self._flush_adv()
        elif self.adv_timer is None:
            self.adv_timer = transport.schedule(ADV_FLUSH_DELAY, self._flush_adv)

    def _flush_adv(self) -> None:
        transport = self.transport
        if self.adv_timer is not None:
            transport.cancel(self.adv_timer)  # no-op when it just fired
            self.adv_timer = None
        log = self.adv_log
        if not log:
            return
        base = self.adv_base
        end = base + len(log)
        cursors = self.adv_cursor
        for q in self.lazy_peers:
            cur = cursors[q]
            if cur >= end:
                continue  # already piggybacked on an organic send
            cursors[q] = end
            self.adv_sent += 1
            transport.send(
                self.pid, q, {"kind": "adv", "ids": tuple(log[cur - base :])}
            )
        self.adv_base = end
        log.clear()

    def _attach_adv(self, dst: int, message: Any) -> None:
        """Piggyback the pending advertisement ids for ``dst`` onto an
        outgoing protocol message (pull or pull-reply)."""
        cur = self.adv_cursor.get(dst)
        if cur is None:
            return  # push peer: it gets full bodies, not advertisements
        end = self.adv_base + len(self.adv_log)
        if cur < end:
            message["adv"] = tuple(self.adv_log[cur - self.adv_base :])
            self.adv_cursor[dst] = end

    def receive(self, src: int, message: Any) -> None:
        kind = message.get("kind")
        if kind is None:
            # a full body: a push, a pushed relay, or a resync resend
            self._body(message)
            return
        if kind == "adv":
            for mid in message["ids"]:
                self._advertised(src, mid)
            return
        for mid in message.get("adv", ()):
            self._advertised(src, mid)
        if kind == "pull":
            self._pull_request(src, message["mid"])
        elif kind == "pull-reply":
            self._body(message["body"])
        elif kind == "pull-miss":
            self._pull_missed(src, message["mid"])

    def _body(self, body: Any) -> None:
        mid = body["id"]
        if self.endpoint.is_seen(mid):
            return
        entry = self.missing.pop(mid, None)
        if entry is not None and entry[2] is not None:
            self.transport.cancel(entry[2])
        self.endpoint._first_seen(body)

    def _advertised(self, src: int, mid: Mid) -> None:
        if self.endpoint.is_seen(mid):
            return
        entry = self.missing.get(mid)
        if entry is not None:
            if src not in entry[0]:
                entry[0].append(src)  # one more candidate for failover
            return
        handle = self.transport.schedule(PULL_GRACE, self._pull_fire, mid)
        self.missing[mid] = [[src], 0, handle]

    def _pull_holder(self, holders: List[int], attempt: int) -> Optional[int]:
        """The holder to pull from (see the module's pseudo-code): a
        separated advertiser still answers once the partition heals."""
        transport = self.transport
        pid = self.pid

        def reachable(q: int) -> bool:
            return not (
                transport.is_crashed(q)
                or transport.separated(pid, q)
                or transport.separated(q, pid)
            )

        pool = [h for h in holders if reachable(h)] + [
            q
            for q in range(self.endpoint.n)
            if q != pid and q not in holders and reachable(q)
        ] or [h for h in holders if not transport.is_crashed(h)]
        if not pool:
            return None
        return pool[attempt % len(pool)]

    def _pull_fire(self, mid: Mid) -> None:
        entry = self.missing.get(mid)
        if entry is None:
            return
        entry[2] = None
        transport = self.transport
        if transport.is_crashed(self.pid):
            # a crashed puller stops pulling; the recovery-time resync
            # repairs whatever it missed
            del self.missing[mid]
            return
        attempt = entry[1]
        if attempt >= PULL_MAX_ATTEMPTS:
            del self.missing[mid]
            self.pulls_stranded += 1
            monitor = self.endpoint.service.monitor
            if monitor is not None:
                monitor.on_pull_stranded(self.pid, mid, attempt)
            return
        holder = self._pull_holder(entry[0], attempt)
        entry[1] = attempt + 1
        if holder is not None:
            self.pulls_sent += 1
            transport.stats.pulled += 1
            request = {"kind": "pull", "mid": mid}
            self._attach_adv(holder, request)
            transport.send(self.pid, holder, request)
        entry[2] = transport.schedule(
            PULL_TIMEOUT * (PULL_BACKOFF**attempt), self._pull_fire, mid
        )

    def _pull_request(self, requester: int, mid: Any) -> None:
        body = self.endpoint._retained(mid)
        if body is not None:
            self.pull_replies += 1
            reply = {"kind": "pull-reply", "body": body}
            self._attach_adv(requester, reply)
        else:
            # unseen here, or pruned by the stability GC: tell the
            # requester explicitly so it fails over without the timeout
            self.pull_misses += 1
            reply = {"kind": "pull-miss", "mid": mid}
        self.transport.send(self.pid, requester, reply)

    def _pull_missed(self, src: int, mid: Mid) -> None:
        entry = self.missing.get(mid)
        if entry is None:
            return
        if src in entry[0]:
            entry[0].remove(src)  # a known non-holder
        if entry[2] is not None:
            self.transport.cancel(entry[2])
        entry[2] = self.transport.schedule(0.0, self._pull_fire, mid)
