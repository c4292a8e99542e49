"""The live :class:`~repro.runtime.transport.Transport`: asyncio TCP.

``AsyncioTransport`` implements the transport contract the broadcast
stack is written to (see ``repro/runtime/transport.py``) over real
sockets: length-prefixed frames (binary codec by default, JSON as the
negotiated-at-hello compat fallback — see ``repro.service.wire``), one
long-lived outbound connection per peer with reconnect + exponential
backoff, and per-peer outbound queues with a high-water mark that
surfaces backpressure to the layer above (the service node pauses
client intake while any queue is over the mark — a synchronous ``send``
cannot block, so the pressure is exposed as an awaitable instead).

Hot path.  Every logical frame is **encoded exactly once**, at enqueue
time (a multicast shares the one encoding across all destination
queues).  The first frame queued in a loop pass schedules one flush
(``call_soon``); the flush writes each connected peer's queue straight
to its socket, up to :attr:`BATCH_MAX` queued bodies folded into a
single **batch container frame** per write
(:func:`repro.service.wire.encode_batch`, pure bytes concatenation),
and stops at a socket whose buffer is over its high-water mark until
the socket asks to resume.  Each socket is an ``asyncio.Protocol``:
inbound, the callback that reads bytes splits them into frames
(:class:`~repro.service.wire.FrameSplitter`), unfolds containers in
order — per-link FIFO exactly — and hands each frame to the broadcast
layer; outbound, one task per peer only connects and reconnects.  The
``wire_stats`` counters (logical frames vs actual writes, batch sizes,
bytes) quantify the coalescing and surface through ``repro status
--json``.  ``coalesce=False`` writes one frame per write — the PR 9
shape, the A/B baseline whose numbers are frozen in
``benchmarks/results/BENCH_service_seed.json``.

Message frames.  A live node sends each write once per peer, from its
origin, and nobody passes it on: n-1 message frames per write.  A frame the wire loses is resent from the retained log of a
peer whose heartbeat digest shows the hole, as a ``repair`` control
frame (``ReliableEndpoint.on_control``), so no receiver floods to cover
it.  The inbound path still spends nothing on a copy it has seen — a
frame the wire duplicated, a repair racing the original, a resync
replay: the binary codec's packed message layout
(``repro.service.wire``) lets a header peek
(:func:`~repro.service.wire.msg_header`) plus the broadcast layer's own
"seen?" predicate (registered through
:meth:`~repro.runtime.transport.Transport.attach_dedup`) drop a
duplicate before it is decoded.  Frames in any other shape (JSON
senders, generic TLV) take the old path, dedup in the handler
included, after the header's cluster check is made on their decoded
fields.  ``wire_stats`` counts it all (``msg_frames_in``,
``dups_dropped``).

The crucial difference from the simulated plane: in the simulator one
``Network`` hosts all ``n`` processes; live, each node owns one
``AsyncioTransport`` that hosts only ``my_pid`` (``hosted``).  The
broadcast layer therefore builds a single endpoint here and knows its
peers only through what arrives: message frames, and control frames —
the node's heartbeats, whose digests feed the endpoint's peer view, and
the resync request (``control``).  Timers run on the event loop
(``loop.call_later``), so the supervised-resync chain runs unmodified
against wall-clock RPC timeouts.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..runtime.broadcast import DIGEST_SPILL
from ..runtime.network import NetworkStats
from ..runtime.transport import ControlHandler, Handler, Transport
from . import wire

Address = Tuple[str, int]


def _is_mid(mid: Any, n: int) -> bool:
    """A message id ``(origin, seq)`` of a cluster of ``n``."""
    return (
        type(mid) is tuple
        and len(mid) == 2
        and type(mid[0]) is int
        and type(mid[1]) is int
        and 0 <= mid[0] < n
        and mid[1] >= 0
    )


def _check_message(message: Dict[str, Any], n: int) -> None:
    """Raise ``ValueError`` unless a broadcast message body fits a cluster
    of ``n``: its id, its ``origin`` (the id's) and its stamp (n ints).
    The broadcast layers index per-process rows by all of these, so a
    frame that got past a decode unchecked raised
    ``IndexError``/``KeyError`` inside the connection task — or, fitting
    by accident, marked an id seen that its origin had not sent yet."""
    mid = message.get("id")
    origin = message.get("origin")
    stamp = message.get("stamp", ())
    if not (
        _is_mid(mid, n)
        and type(origin) is int
        and origin == mid[0]
        and "payload" in message
        and type(stamp) is tuple
        and ("stamp" not in message or len(stamp) == n)
        and all(type(entry) is int for entry in stamp)
    ):
        raise ValueError(
            f"message outside this cluster of {n}: id {mid!r}, origin "
            f"{origin!r}, stamp {message.get('stamp')!r}"
        )


def _is_run(run: Any, n: int) -> bool:
    """A digest's spill run ``(origin, lo, hi)``: ids ``lo..hi-1`` of
    ``origin``, a pid of a cluster of ``n``."""
    return (
        type(run) in (list, tuple)
        and len(run) == 3
        and all(type(entry) is int for entry in run)
        and 0 <= run[0] < n
        and 0 <= run[1] < run[2]
    )


def _check_control(frame: Dict[str, Any], n: int) -> None:
    """Raise ``ValueError`` unless a control frame fits a cluster of
    ``n``: a pid's ``src``, a body dict, and in it the sender's digest
    as ``PeerView.learn`` takes it — a ``frontier`` of n ints >= 0 and a
    ``spill`` of runs covering at most ``DIGEST_SPILL`` ids — or, in a
    ``repair``, a message body as :func:`_check_message` takes one, or,
    in a ``nack``, one such run as ``origin``, ``lo`` and ``hi``.
    Unchecked, a stray entry moved a peer's row part-way, then raised
    ``TypeError`` inside the connection task, and a run as long as it
    liked had the reader build a set that size."""
    src, body = frame.get("src"), frame.get("body")
    digest = body if type(body) is dict else {}
    frontier, spill = digest.get("frontier"), digest.get("spill")
    if not (
        type(src) is int and 0 <= src < n and type(body) is dict
        and (frontier is None or (
            type(frontier) in (list, tuple) and len(frontier) == n
            and all(type(head) is int and head >= 0 for head in frontier)
        ))
        and (spill is None or (
            type(spill) in (list, tuple)
            and all(_is_run(run, n) for run in spill)
            and sum(hi - lo for _, lo, hi in spill) <= DIGEST_SPILL
        ))
    ):
        raise ValueError(f"control frame outside this cluster of {n}: {frame!r}")
    kind = digest.get("kind")
    if kind == "repair":
        message = digest.get("body")
        if type(message) is not dict or "kind" in message:
            raise ValueError(f"repair without a message body: {frame!r}")
        _check_message(message, n)
    elif kind == "nack":
        run = (digest.get("origin"), digest.get("lo"), digest.get("hi"))
        if not (_is_run(run, n) and run[2] - run[1] <= DIGEST_SPILL):
            raise ValueError(f"nack outside this cluster of {n}: {frame!r}")


class WallClock:
    """Wall-clock stand-in for the ``sim`` handle algorithms hold.

    Provides the exact surface the algorithms use — ``now``, ``rng``,
    ``schedule``/``cancel`` — with time measured from the clock's
    creation so recorded timestamps are small and comparable across a
    cluster started together.  The rng is seeded with the
    *cluster* seed, so what a node derives from it (its LWW clock skew,
    its gossip peer picks) is reproducible per seed.
    """

    def __init__(self, seed: int = 0) -> None:
        import random

        self.rng = random.Random(seed)
        #: the running loop, bound at first use
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0: Optional[float] = None

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_event_loop()
        return self._loop

    @property
    def now(self) -> float:
        loop = self.loop
        if self._t0 is None:
            self._t0 = loop.time()
        return loop.time() - self._t0

    def rebase(self, t0: float) -> None:
        """Pin the epoch at loop time ``t0``.  A cluster whose nodes share one
        event loop rebases every clock to a single instant, so recorded
        timestamps are mutually comparable — the streaming monitor
        replays captures in recorded-time order, and a per-node epoch
        would skew that order by the nodes' start stagger."""
        self._t0 = t0

    def schedule(self, delay: float, cb: Callable, *args: Any) -> Any:
        if delay < 0:
            raise ValueError("cannot schedule in the past")
        return self.loop.call_later(delay, cb, *args)

    def cancel(self, handle: Any) -> None:
        if handle is not None:
            handle.cancel()


class AsyncioTransport(Transport):
    """TCP transport for one node of a live cluster.

    ``addrs`` maps every pid to the address its *peers* should dial —
    when a fault proxy fronts a node, that is the proxy's address, so
    all inter-node traffic flows through the fault dials.  ``my_addr``
    is where this node actually listens (the proxy's upstream).
    """

    #: outbound frames queued per peer above which :meth:`drained` blocks
    HIGH_WATER = 256
    #: most queued frames folded into one batch container frame
    BATCH_MAX = 64
    #: reconnect backoff: first retry after BACKOFF_BASE, doubling to cap
    BACKOFF_BASE = 0.2
    BACKOFF_CAP = 5.0

    def __init__(
        self,
        my_pid: int,
        addrs: Dict[int, Address],
        my_addr: Optional[Address] = None,
        seed: int = 0,
        clock: Optional[WallClock] = None,
        codec: str = wire.CODEC_BINARY,
        coalesce: bool = True,
    ) -> None:
        if codec not in wire.CODECS:
            raise ValueError(
                f"unknown codec {codec!r}; known: {', '.join(wire.CODECS)}"
            )
        self.my_pid = my_pid
        self.n = len(addrs)
        self.hosted = (my_pid,)
        self.addrs = dict(addrs)
        self.my_addr = my_addr or addrs[my_pid]
        self.clock = clock or WallClock(seed)
        self.codec = codec
        self.coalesce = coalesce
        self.stats = NetworkStats()
        #: coalescing/codec observability, surfaced via `repro status`
        self.wire_stats: Dict[str, int] = {
            "frames_out": 0,  # logical frames queued for the peers
            "writes": 0,  # socket writes (one frame or one container)
            "bytes_out": 0,
            "batches_out": 0,  # container frames sent
            "batched_frames": 0,  # logical frames that rode a container
            "max_batch": 0,
            "frames_in": 0,
            "batches_in": 0,
            "msg_frames_in": 0,  # broadcast-message frames among frames_in
            "dups_dropped": 0,  # ...dropped on their header, never decoded
        }
        self.handlers: Dict[int, Handler] = {}
        #: ``my_pid``'s "already seen this message id?" predicate, once
        #: the broadcast layer has offered one (:meth:`attach_dedup`)
        self._seen: Optional[Callable[[Tuple[int, int]], bool]] = None
        #: every control frame lands here first (the service node
        #: registers this: heartbeats are its membership signal) ...
        self.control_handler: Optional[Callable[[int, Any], None]] = None
        #: ... and then in ``my_pid``'s control sink (:meth:`attach_control`)
        self._control_sink: Optional[ControlHandler] = None
        #: local crash-stop flag: while set, this node neither sends nor
        #: dispatches incoming frames (the live analogue of
        #: ``Network.crash(my_pid)``)
        self.crashed_local = False
        #: membership oracle for *remote* pids (the view manager's
        #: is_down); None means "assume everyone up"
        self.crash_oracle: Optional[Callable[[int], bool]] = None
        #: per-peer outbound queues of *encoded bodies* — each logical
        #: frame is encoded once, and a multicast appends the same bytes
        #: object to every queue (shared, never copied)
        self._queues: Dict[int, Deque[bytes]] = {
            pid: deque() for pid in addrs if pid != my_pid
        }
        #: outbound links by peer, while connected
        self._links: Dict[int, _PeerLink] = {}
        self._flush_pending = False
        self._drain_waiters: Deque[asyncio.Future] = deque()
        self._server: Optional[asyncio.AbstractServer] = None
        #: inbound peer connections, closed with the transport
        self._inbound: Set[_PeerConnection] = set()
        #: one connect/reconnect task per peer
        self._tasks: list = []
        self._closed = False
        #: peers currently connected outbound (observability)
        self.connected: Dict[int, bool] = {
            pid: False for pid in addrs if pid != my_pid
        }

    # ------------------------------------------------------------------
    # Transport interface
    # ------------------------------------------------------------------
    def attach(self, pid: int, handler: Handler) -> None:
        self.handlers[pid] = handler

    def attach_dedup(
        self, pid: int, seen: Callable[[Tuple[int, int]], bool]
    ) -> None:
        # only my_pid's frames are ever dispatched on a live node
        if pid == self.my_pid:
            self._seen = seen

    def attach_control(self, pid: int, handler: ControlHandler) -> None:
        if pid == self.my_pid:
            self._control_sink = handler

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Queue a broadcast-layer message frame for ``dst``.

        ``src`` is whatever pid the layer above speaks as — on a live
        node that is ``my_pid`` for original broadcasts and resync
        replays, and stays truthful in the frame so the receiver's dedup
        and causal layers see the same ``(src, message)`` pairs as in
        the simulator.
        """
        frame = {"t": "msg", "src": src, "body": payload}
        if dst == self.my_pid:
            self._send_frame(dst, frame)
        elif not self.crashed_local:
            self._enqueue(dst, wire.encode_body(frame, self.codec))

    def multicast(self, src: int, payload: Any) -> None:
        if self.crashed_local:
            return
        body = wire.encode_body(
            {"t": "msg", "src": src, "body": payload}, self.codec
        )
        for dst in self._queues:
            self._enqueue(dst, body)

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule(self, delay: float, cb: Callable, *args: Any) -> Any:
        return self.clock.schedule(delay, cb, *args)

    def is_crashed(self, pid: int) -> bool:
        if pid == self.my_pid:
            return self.crashed_local
        if self.crash_oracle is not None:
            return self.crash_oracle(pid)
        return False

    def separated(self, src: int, dst: int) -> bool:
        # a live node cannot see the proxy's partition map; unreachable
        # peers look down (missed heartbeats), which the helper-selection
        # pools already handle through is_crashed
        return False

    # ------------------------------------------------------------------
    # Control frames (heartbeat digests, resync requests)
    # ------------------------------------------------------------------
    def control(self, src: int, dst: int, body: Any) -> None:
        self._send_frame(dst, {"t": "ctl", "src": src, "body": body})

    def multicast_control(self, body: Any) -> None:
        if self.crashed_local:
            return
        raw = wire.encode_body(
            {"t": "ctl", "src": self.my_pid, "body": body}, self.codec
        )
        for dst in self._queues:
            self._enqueue(dst, raw)

    # ------------------------------------------------------------------
    # Outbound path
    # ------------------------------------------------------------------
    def _send_frame(self, dst: int, frame: Dict[str, Any]) -> None:
        if self.crashed_local:
            return
        if dst == self.my_pid:
            # self-sends do not occur in the broadcast layers; tolerate
            # them anyway by dispatching on the next loop tick
            self.clock.loop.call_soon(self._dispatch, frame)
            return
        self._enqueue(dst, wire.encode_body(frame, self.codec))

    def _enqueue(self, dst: int, body: bytes) -> None:
        self.stats.sent += 1
        self.wire_stats["frames_out"] += 1
        self._queues[dst].append(body)
        if self._links and not self._flush_pending:
            self._flush_pending = True
            self.clock.loop.call_soon(self._flush)

    def backlog(self) -> int:
        """Largest per-peer outbound queue (the backpressure signal)."""
        return max((len(q) for q in self._queues.values()), default=0)

    async def drained(self) -> None:
        """Wait until every outbound queue is back under the high-water
        mark — the service node awaits this before accepting more client
        operations when a slow peer (or a proxy holding a partition)
        backs traffic up."""
        while self.backlog() > self.HIGH_WATER:
            fut = self.clock.loop.create_future()
            self._drain_waiters.append(fut)
            await fut

    def _wake_drain_waiters(self) -> None:
        if self.backlog() <= self.HIGH_WATER:
            while self._drain_waiters:
                fut = self._drain_waiters.popleft()
                if not fut.done():
                    fut.set_result(None)

    #: stop folding a batch once it holds this many payload bytes — the
    #: wire-level MAX_FRAME is far higher, but a smaller fold keeps the
    #: per-write latency flat
    BATCH_BYTES = 1 << 20

    def _fold(self, queue: Deque[bytes]) -> bytes:
        """Assemble the next write: everything queued (capped at
        BATCH_MAX frames / BATCH_BYTES) — a single body framed as
        itself, more concatenated into one batch container.  No codec
        work happens here; bodies were encoded at enqueue."""
        wstats = self.wire_stats
        first = queue.popleft()
        if not queue or not self.coalesce:
            raw = wire.frame(first)
        else:
            bodies = [first]
            total = len(first)
            take = min(len(queue), self.BATCH_MAX - 1)
            for _ in range(take):
                if total >= self.BATCH_BYTES:
                    break
                body = queue.popleft()
                bodies.append(body)
                total += len(body)
            if len(bodies) == 1:
                raw = wire.frame(first)
            else:
                raw = wire.encode_batch(bodies)
                wstats["batches_out"] += 1
                wstats["batched_frames"] += len(bodies)
                if len(bodies) > wstats["max_batch"]:
                    wstats["max_batch"] = len(bodies)
        wstats["writes"] += 1
        wstats["bytes_out"] += len(raw)
        self.stats.payload_bytes += len(raw)
        return raw

    def _flush(self) -> None:
        """Write every connected peer's queue, fold by fold, until it is
        empty or its socket asks to pause; scheduled once per loop pass
        by the first frame queued in it."""
        self._flush_pending = False
        for dst, link in self._links.items():
            queue = self._queues[dst]
            sock = link.sock
            while queue and not link.paused and not sock.is_closing():
                sock.write(self._fold(queue))
        self._wake_drain_waiters()

    async def _connect(self, dst: int) -> None:
        """Keep one peer's outbound connection up: connect (with
        exponential backoff), say hello, hand the link to the flush,
        and when the connection is lost, reconnect with the queue
        intact."""
        loop = self.clock.loop
        backoff = self.BACKOFF_BASE
        while not self._closed:
            host, port = self.addrs[dst]
            link = _PeerLink(self)
            try:
                await loop.create_connection(lambda: link, host, port)
            except OSError:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.BACKOFF_CAP)
                continue
            backoff = self.BACKOFF_BASE
            # hello is always JSON (the compat floor) and declares the
            # codec the data frames will arrive in
            link.sock.write(
                wire.encode({"t": "hello", "src": self.my_pid, "codec": self.codec})
            )
            self._links[dst] = link
            self.connected[dst] = True
            try:
                self._flush()
                await link.lost
            finally:
                del self._links[dst]
                self.connected[dst] = False
                link.sock.close()

    # ------------------------------------------------------------------
    # Inbound path
    # ------------------------------------------------------------------
    def _receive_frame(self, bodies: List[bytes], batched: bool) -> None:
        """One inbound wire frame: a batch container's sub-bodies are
        received in fold order, one at a time — per-link FIFO
        preserved, and an earlier frame of the batch makes a later copy
        of it a duplicate."""
        if batched:
            self.wire_stats["batches_in"] += 1
        for body in bodies:
            self._receive_body(body)

    def _receive_body(self, body: bytes) -> None:
        """One inbound frame body.  A packed message frame gives up its
        pids, ``(origin, seq)`` and stamp length to a header peek, so one
        that does not fit this cluster is refused, and a copy the
        broadcast layer has already seen is counted and dropped, without
        being decoded; a fresh one is decoded once and its message goes
        straight to the handler.  Every other body — JSON,
        generic TLV, control — decodes and dispatches as before,
        deduplicated by the broadcast layer itself; a message frame among
        them gets the header's check on its decoded fields: its ``src``
        always, its body (:func:`_check_message`) once the broadcast
        layer, whose shape that is, has offered its dedup predicate."""
        if self.crashed_local:
            self.stats.dropped_to_crashed += 1
            return
        head = wire.msg_header(body)
        if head is None:
            frame = wire.decode(body)
            if type(frame) is dict and frame.get("t") == "msg":
                src = frame.get("src")
                in_range = type(src) is int and 0 <= src < self.n
                if not (in_range and "body" in frame):
                    raise ValueError(
                        f"message frame from src {src!r} (or without a body) "
                        f"outside this cluster of {self.n}"
                    )
                message = frame["body"]
                if self._seen is not None and type(message) is dict:
                    _check_message(message, self.n)
            self._dispatch(frame)
            return
        src, origin, seq, stamps = head
        n = self.n
        if src >= n or origin >= n or (stamps is not None and stamps != n):
            # the broadcast layers index per-process rows by all three: a
            # peer from another cluster (or a hostile one) would raise
            # IndexError inside this connection's callback — refuse it here
            raise ValueError(
                f"message frame outside this cluster of {n}: src {src}, "
                f"origin {origin}, {stamps} stamp entries"
            )
        wstats = self.wire_stats
        seen = self._seen
        if seen is not None and seen((origin, seq)):
            wstats["frames_in"] += 1
            wstats["msg_frames_in"] += 1
            wstats["dups_dropped"] += 1
            return
        message = wire.decode(body)["body"]
        wstats["frames_in"] += 1
        wstats["msg_frames_in"] += 1
        self.stats.delivered += 1
        handler = self.handlers.get(self.my_pid)
        if handler is not None:
            handler(src, message)

    def _dispatch(self, frame: Any) -> None:
        if self.crashed_local:
            self.stats.dropped_to_crashed += 1
            return
        if not isinstance(frame, dict):
            raise ValueError(f"frame is not a dict: {type(frame).__name__}")
        self.wire_stats["frames_in"] += 1
        kind = frame.get("t")
        src = frame.get("src")
        if kind == "msg":
            self.wire_stats["msg_frames_in"] += 1
            self.stats.delivered += 1
            handler = self.handlers.get(self.my_pid)
            if handler is not None:
                handler(src, frame["body"])
        elif kind == "ctl":
            _check_control(frame, self.n)
            if self.control_handler is not None:
                self.control_handler(src, frame["body"])
            if self._control_sink is not None:
                self._control_sink(src, frame["body"])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        host, port = self.my_addr
        self._server = await self.clock.loop.create_server(
            lambda: _PeerConnection(self), host, port
        )
        for dst in self._queues:
            self._tasks.append(asyncio.ensure_future(self._connect(dst)))

    async def close(self) -> None:
        self._closed = True
        for task in self._tasks:
            task.cancel()
        if self._server is not None:
            self._server.close()
            for conn in list(self._inbound):
                conn.sock.close()
            await self._server.wait_closed()
        await asyncio.gather(*self._tasks, return_exceptions=True)


class _PeerLink(asyncio.Protocol):
    """The outbound connection to one peer.  Nothing is read from it:
    the transport's flush writes it, and stops while the socket's
    buffer is over its high-water mark."""

    def __init__(self, owner: AsyncioTransport) -> None:
        self.owner = owner
        self.sock: Any = None
        self.paused = False
        #: resolved when the connection is gone, for whatever reason
        self.lost = owner.clock.loop.create_future()

    def connection_made(self, transport: Any) -> None:
        self.sock = transport

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.owner._flush()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if not self.lost.done():
            self.lost.set_result(None)


class _PeerConnection(asyncio.Protocol):
    """One inbound peer connection: a hello first, then every frame goes
    to the transport's receive path in the callback that read it.  Any
    ``ValueError`` — hostile bytes, a frame from outside the cluster, no
    hello — closes this connection and nothing else."""

    def __init__(self, owner: AsyncioTransport) -> None:
        self.owner = owner
        self.sock: Any = None
        self.splitter = wire.FrameSplitter(self._hello)

    def connection_made(self, transport: Any) -> None:
        self.sock = transport
        self.owner._inbound.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            self.splitter.feed(data)
        except ValueError:
            self.sock.close()

    def _hello(self, bodies: List[bytes], batched: bool) -> None:
        hello = None if batched else wire.decode(bodies[0])
        if not (isinstance(hello, dict) and hello.get("t") == "hello"):
            raise ValueError("a peer connection opens with a hello frame")
        self.splitter.on_frame = self.owner._receive_frame

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.owner._inbound.discard(self)
