"""One live node: a registry algorithm behind a TCP client protocol.

A :class:`ServiceNode` builds the algorithm instance the simulator would
run — same constructor, same broadcast stack, same
:class:`~repro.runtime.recorder.HistoryRecorder` and
:class:`~repro.runtime.monitors.RuntimeMonitor` — over an
:class:`~repro.service.transport.AsyncioTransport`, which hosts only
``my_pid``: the broadcast layer builds one endpoint, and everything that
endpoint knows of its peers it learns from frames.  The node adds the
two things a process cannot get from the simulator's shared memory:

**Membership.**  ``Transport.is_crashed`` is wired to the heartbeat
view (:class:`~repro.service.view.ViewManager`), so helper selection
skips peers that stopped answering — whether crashed or cut off by the
fault proxy.  The view is housekeeping the algorithm only reads: a
heartbeat is marked in the callback that read its frame, and the node's
own heartbeat is a timer chain on the clock (sweep the view, multicast,
re-arm), like the broadcast layer's timers — no task runs for either.

**Nacks and digests.**  A write leaves its origin once per peer and is
passed on by no one; nacks and the heartbeat make that reliable.  An
origin's frames reach a peer in order over one TCP connection, so a
frame whose sequence number skips ids shows that the wire lost them:
the endpoint nacks them to the origin at once, and the origin resends
them as ``repair`` frames.  Each heartbeat carries the endpoint's
``digest()`` — its contiguous seen-frontier row and its spill as
bounded per-origin runs — and the transport hands every control frame
to the endpoint's control sink as well as to the node.  Peers' rows
reach the endpoint's peer view, which keeps the stability GC sound and
feeds the resync verification check, and a peer's digest has the
endpoint resend it whatever of its own messages (or a down origin's)
the digest shows it lacks of what the endpoint held one heartbeat
earlier: a lost tail, which no later frame exposes, is back within
about two heartbeats (a crashed origin's, once the view has it down),
with no extra copy on the path of a fault-free write.  The node
touches none of it.  Resync itself (request, serve, supervision) is
the broadcast layer's own code, its timers now wall-clock timeouts on
the event loop; the node only sets ``RESYNC_TIMEOUT`` to wall seconds.

The client protocol is tiny: length-prefixed request/response frames
with a correlation id (``rid``), in either :mod:`~repro.service.wire`
codec — each reply goes back in the codec its request arrived in, and
the binary codec (the default since PR 10) packs ``put``/``get`` and
their ``ok`` replies into fixed headers.  Commands: ``get`` / ``put`` /
``ops`` / ``window`` / ``history`` (one page of the recorded row per
call) / ``status`` / ``watch`` and the
operator controls ``crash`` / ``recover``.  ``status`` exposes the
monitor's violations and ``NetworkStats``-style counters; ``watch``
streams it.  Request fields are validated here, at the boundary, on the
decoded dict — whichever layout carried it.  Each client connection is
an ``asyncio.Protocol``: the wait-free operations are answered in the
callback that read them, a batch's replies in one write, and only a
``watch`` (or a ``put`` waiting out a peer backlog) runs as a task.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Dict, List, Optional, Set

from ..core.operations import Invocation, output_to_json
from ..runtime.broadcast import BroadcastService
from ..runtime.monitors import RuntimeMonitor
from ..runtime.recorder import HistoryRecorder
from . import wire
from .tap import MonitorTap, RecorderTap, RingTap
from .transport import Address, AsyncioTransport, WallClock
from .view import HB_INTERVAL, ViewManager


def build_algorithm(
    key: str,
    clock: Any,
    transport: Any,
    recorder: Optional[HistoryRecorder],
    streams: int,
    k: int,
):
    """Instantiate a registry algorithm against an arbitrary transport —
    the live counterpart of the matrix runner's construction.  The
    request handler replies synchronously, so an algorithm that is not
    wait-free is refused here rather than on its first operation.  A
    row over a reliable broadcast sends each message once per peer, and
    the node's heartbeat digests repair what the wire loses."""
    from ..scenarios.matrix import ALGORITHMS

    try:
        entry = ALGORITHMS[key]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ValueError(f"unknown algorithm {key!r}; known: {known}") from None
    if not entry.cls.wait_free:
        raise ValueError(
            f"algorithm {key!r} is not wait-free: a live node answers each "
            "client operation before it returns to the event loop"
        )
    return entry, entry.cls(clock, transport, recorder, **entry.kwargs(streams, k))


class ServiceNode:
    """One node of a live cluster."""

    #: first supervised-resync verification check fires this long after
    #: the catch-up RPC (wall seconds; the simulator default of 6.0 is
    #: tuned to simulated delays, not loopback RTTs)
    RESYNC_TIMEOUT = 1.5
    #: most operations one ``history`` reply carries: ~1.1 MB of JSON,
    #: far below ``wire.MAX_FRAME``
    HISTORY_PAGE = 10_000

    def __init__(
        self,
        my_pid: int,
        addrs: Dict[int, Address],
        client_addr: Address,
        my_addr: Optional[Address] = None,
        algorithm: str = "ccv-fig5",
        streams: int = 2,
        k: int = 2,
        seed: int = 0,
        codec: str = wire.CODEC_BINARY,
        coalesce: bool = True,
        tap: str = "ring",
    ) -> None:
        if tap not in ("ring", "sync"):
            raise ValueError(f"unknown tap mode {tap!r} (ring|sync)")
        self.my_pid = my_pid
        self.n = len(addrs)
        self.streams = streams
        self.client_addr = client_addr
        self.algorithm_key = algorithm
        self.codec = codec
        self.clock = WallClock(seed)
        self.transport = AsyncioTransport(
            my_pid,
            addrs,
            my_addr=my_addr,
            seed=seed,
            clock=self.clock,
            codec=codec,
            coalesce=coalesce,
        )
        #: the real recorder (reads always come from here)
        self.recorder = HistoryRecorder(self.n)
        self.tap: Optional[RingTap] = RingTap() if tap == "ring" else None
        # the algorithm records through the tap facade when off-path
        algo_recorder: Any = self.recorder
        if self.tap is not None:
            algo_recorder = RecorderTap(self.tap, self.recorder)
        self.entry, self.algorithm = build_algorithm(
            algorithm, self.clock, self.transport, algo_recorder, streams, k
        )
        self.view = ViewManager(lambda: self.clock.now)
        self.transport.crash_oracle = self.view.is_down
        self.transport.control_handler = self._on_control
        #: the algorithm's broadcast service (state-based gossip has none)
        self.broadcast: Optional[BroadcastService] = self.algorithm.broadcast
        #: the real monitor (verdict reads always come from here)
        self.monitor: Optional[RuntimeMonitor] = None
        if self.broadcast is not None:
            self.monitor = RuntimeMonitor(self.n, sim=self.clock)
            self.broadcast.monitor = (
                self.monitor
                if self.tap is None
                else MonitorTap(self.tap, self.monitor)
            )
            self.broadcast.RESYNC_TIMEOUT = self.RESYNC_TIMEOUT
        #: client requests read, and how many of them arrived packed
        #: (the rest fell back to generic TLV, or are JSON)
        self.client_stats = {"client_frames_in": 0, "client_frames_packed": 0}
        self._server: Optional[asyncio.AbstractServer] = None
        #: open client connections, closed with the node
        self._clients: Set[_ClientConnection] = set()
        #: the next heartbeat's timer
        self._hb: Optional[asyncio.TimerHandle] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Heartbeats: membership in, digest out
    # ------------------------------------------------------------------
    def _on_control(self, src: int, body: Dict[str, Any]) -> None:
        if body.get("kind") == "hb":
            self.view.heartbeat(src)

    def _heartbeat(self) -> None:
        """Sweep the view, multicast this node's heartbeat (unless
        crashed) and arm the next one."""
        self.view.sweep()
        if not self.transport.crashed_local:
            body: Dict[str, Any] = {"kind": "hb"}
            if self.broadcast is not None:
                body.update(self.broadcast.endpoints[self.my_pid].digest())
            self.transport.multicast_control(body)
        self._hb = self.clock.schedule(HB_INTERVAL, self._heartbeat)

    # ------------------------------------------------------------------
    # Operator controls
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        return self.transport.crashed_local

    def crash(self) -> None:
        """Crash-stop this node: drop all frames, reject client ops,
        stop heartbeating (peers time us out of their views)."""
        self.transport.crashed_local = True
        self.algorithm.on_crash(self.my_pid)

    def recover(self) -> None:
        """Rejoin: resume frames and heartbeats, then let the algorithm
        drive its supervised catch-up (``on_recover`` → ``start_resync``
        → resync RPC + wall-clock verification timers)."""
        self.transport.crashed_local = False
        self.algorithm.on_recover(self.my_pid)

    # ------------------------------------------------------------------
    # Client protocol
    # ------------------------------------------------------------------
    def _request(self, body: bytes) -> Dict[str, Any]:
        """One decoded request, counted."""
        req = wire.decode(body)
        if not isinstance(req, dict):
            raise ValueError(f"request is not a dict: {type(req).__name__}")
        stats = self.client_stats
        stats["client_frames_in"] += 1
        if body[0] == wire.MAGIC_REQUEST:
            stats["client_frames_packed"] += 1
        return req

    def _bad_stream(self, req: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """An error reply unless ``req["x"]`` is a stream index.  Checked
        at the protocol boundary: past it, an out-of-range ``x`` raises
        inside the broadcast's local delivery — after the message was
        stamped and logged, before it was sent — and wedges every
        peer's causal buffer behind a message that never leaves."""
        x = req.get("x")
        if type(x) is int and 0 <= x < self.streams:
            return None
        return {"ok": False, "error": f"x must be an int in [0, {self.streams})"}

    def _handle_client(
        self, req: Dict[str, Any], conn: "_ClientConnection", codec: str
    ) -> Optional[Dict[str, Any]]:
        """The reply to one request, made before this returns — ``None``
        for a ``watch``, whose frames its own task writes."""
        cmd = req.get("cmd")
        if cmd == "ping":
            return {"ok": True, "pid": self.my_pid}
        if cmd in ("put", "get", "window"):
            bad = self._bad_stream(req)
            if bad is not None:
                return bad
        if cmd == "put":
            if "v" not in req:
                return {"ok": False, "error": "put needs a value v"}
            if self.crashed:
                return {"ok": False, "error": "crashed"}
            inv = Invocation("w", (req["x"], req["v"]))
            self.algorithm.invoke(self.my_pid, inv)
            return {"ok": True}
        if cmd == "get":
            if self.crashed:
                return {"ok": False, "error": "crashed"}
            inv = Invocation("r", (req["x"],))
            out = self.algorithm.invoke(self.my_pid, inv)
            return {"ok": True, "value": out}
        if cmd == "window":
            return {"ok": True, "value": self.algorithm.window(self.my_pid, req["x"])}
        if cmd == "ops":
            if self.tap is not None:
                self.tap.flush()
            return {"ok": True, "count": self.recorder.count()}
        if cmd == "history":
            since = req.get("since", 0)
            if type(since) is not int or since < 0:
                return {"ok": False, "error": "since must be an int >= 0"}
            return {"ok": True, "ops": self._history_page(since)}
        if cmd == "status":
            since = req.get("since", 0)
            if type(since) is not int or since < 0:
                return {"ok": False, "error": "since must be an int >= 0"}
            return {"ok": True, "status": self.status(since)}
        if cmd == "watch":
            interval = req.get("interval", 0.5)
            if type(interval) not in (int, float) or not 0 < interval < math.inf:
                return {"ok": False, "error": "interval must be finite and > 0"}
            conn.spawn(self._watch(conn, req.get("rid"), interval, codec))
            return None
        if cmd == "crash":
            self.crash()
            return {"ok": True}
        if cmd == "recover":
            self.recover()
            return {"ok": True}
        return {"ok": False, "error": f"unknown cmd {cmd!r}"}

    async def _watch(
        self, conn: "_ClientConnection", rid: Any, interval: float, codec: str
    ) -> None:
        """Stream ``status`` frames to one connection until it or the
        node closes, each written only once the last has drained."""
        while not self._closed:
            frame = {"ok": True, "status": self.status(0), "rid": rid}
            conn.sock.write(wire.encode(frame, codec))
            await conn.drained()
            await asyncio.sleep(interval)

    def _history_page(self, since: int) -> List[Dict[str, Any]]:
        """This node's recorded operations ``since`` on, at most
        ``HISTORY_PAGE`` of them, in classify-JSON op format, read off
        the recorder's columns."""
        if self.tap is not None:
            self.tap.flush()
        row = self.recorder.rows[self.my_pid]
        return [
            {
                "method": method,
                "args": list(args),
                "output": output_to_json(out),
                "start": start,
                "end": end,
            }
            for method, args, out, start, end in row.entries(
                since, since + self.HISTORY_PAGE
            )
        ]

    def status(self, since: int = 0) -> Dict[str, Any]:
        if self.tap is not None:
            self.tap.flush()
        stats = self.transport.stats
        doc: Dict[str, Any] = {
            "pid": self.my_pid,
            "algorithm": self.algorithm_key,
            "crashed": self.crashed,
            "now": round(self.clock.now, 3),
            "ops": self.recorder.count(),
            "backlog": self.transport.backlog(),
            "connected": dict(self.transport.connected),
            "view": self.view.snapshot(),
            "stats": {
                "sent": stats.sent,
                "delivered": stats.delivered,
                "dropped_to_crashed": stats.dropped_to_crashed,
                "payload_bytes": stats.payload_bytes,
            },
            "wire": {
                "codec": self.codec,
                "coalesce": self.transport.coalesce,
                **self.transport.wire_stats,
                **self.client_stats,
            },
        }
        if self.tap is not None:
            doc["tap"] = self.tap.stats()
        if self.broadcast is not None:
            doc["broadcast"] = self.broadcast.stats()
        if self.monitor is not None:
            doc["monitor"] = {
                **self.monitor.stats(),
                "violations": [
                    str(v) for v in self.monitor.violations[since:]
                ],
            }
        return doc

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the peer and client ports, then arm the heartbeat chain
        (its first beat on the loop's next pass)."""
        if self.tap is not None:
            self.tap.start()
        await self.transport.start()
        host, port = self.client_addr
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _ClientConnection(self), host, port
        )
        if self.entry.gossip:
            self.algorithm.start_gossip()
        self._hb = self.clock.schedule(0.0, self._heartbeat)

    async def close(self) -> None:
        """Cancel the next heartbeat, close the client connections and
        their tasks, the transport, and apply what the tap still holds."""
        self._closed = True
        self.clock.cancel(self._hb)
        if self._server is not None:
            self._server.close()
            tasks = []
            for conn in list(self._clients):
                conn.sock.close()
                tasks.extend(conn.tasks)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await self._server.wait_closed()
        await self.transport.close()
        if self.tap is not None:
            self.tap.close()


class _ClientConnection(asyncio.Protocol):
    """One client connection, answered in the callback that read its
    requests.  Requests may arrive singly or inside a framing-level
    batch container (the pipelined client's shape); a batch's replies
    return as one container, so a full client window costs one reply
    write.  Replies go back in the codec the request arrived in, so a
    JSON-only client (or ``repro status`` against a binary node) just
    works.  Two things stop the reading, each until it clears: a reply
    write that takes the socket's buffer over its high-water mark (a
    slow or stalled reader stalls its own connection, and only its
    own), and a ``put`` that meets a peer backlog over
    ``AsyncioTransport.HIGH_WATER`` (its frame waits for
    :meth:`~repro.service.transport.AsyncioTransport.drained`).  Any
    ``ValueError`` while reading — hostile bytes, a request that is not
    a dict — closes this connection and nothing else; a reply too large
    for a frame fails only its own call."""

    def __init__(self, node: ServiceNode) -> None:
        self.node = node
        self.sock: Any = None
        self.splitter = wire.FrameSplitter(self._requests)
        #: why reading stopped: the socket's buffer, a peer backlog
        self._stalled = False
        self._held = False
        self._drain_waiter: Optional[asyncio.Future] = None
        #: what this connection runs besides its callbacks: a watch, or
        #: a batch waiting out a peer backlog
        self.tasks: Set[asyncio.Task] = set()

    def connection_made(self, transport: Any) -> None:
        self.sock = transport
        self.node._clients.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            self.splitter.feed(data)
        except ValueError:
            self.sock.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.node._clients.discard(self)
        for task in self.tasks:
            task.cancel()
        self._wake()

    # -- flow control ---------------------------------------------------
    def pause_writing(self) -> None:
        self._stalled = self.splitter.held = True
        self.sock.pause_reading()

    def resume_writing(self) -> None:
        self._stalled = False
        self._wake()
        self._read_on()

    def _wake(self) -> None:
        waiter, self._drain_waiter = self._drain_waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def drained(self) -> None:
        """Wait until the socket's buffer is back under its mark."""
        while self._stalled and not self.sock.is_closing():
            if self._drain_waiter is None:
                self._drain_waiter = asyncio.get_running_loop().create_future()
            await self._drain_waiter

    def _read_on(self) -> None:
        """Resume reading once neither reason to stop holds."""
        if self._stalled or self._held or self.sock.is_closing():
            return
        self.sock.resume_reading()
        try:
            self.splitter.resume()
        except ValueError:
            self.sock.close()

    def spawn(self, coro: Any) -> None:
        task = asyncio.ensure_future(coro)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)

    # -- requests ---------------------------------------------------------
    def _requests(self, bodies: List[bytes], batched: bool) -> None:
        """One frame's requests.  Should any be a put while a peer queue
        is over its mark, the frame waits for the drain, and the
        connection's reading with it."""
        node = self.node
        reqs = [node._request(body) for body in bodies]
        transport = node.transport
        for req in reqs:
            if req.get("cmd") == "put":
                if transport.backlog() > transport.HIGH_WATER and not node.crashed:
                    self._held = self.splitter.held = True
                    self.sock.pause_reading()
                    self.spawn(self._after_drain(bodies, reqs, batched))
                    return
                break
        self._answer(bodies, reqs, batched)

    def _answer(
        self, bodies: List[bytes], reqs: List[Dict[str, Any]], batched: bool
    ) -> None:
        """Answer a frame's requests, each in its own codec; a batch's
        replies go back as one container, or one frame each when they do
        not fit in one.  A reply no frame can carry fails its own call
        with an error reply, and the connection stays open."""
        replies = []
        for body, req in zip(bodies, reqs):
            codec = wire.body_codec(body)
            reply = self.node._handle_client(req, self, codec)
            if reply is not None:
                rid = reply["rid"] = req.get("rid")
                replies.append((wire.encode_body(reply, codec), rid, codec))
        if batched and replies:
            try:
                self.sock.write(wire.encode_batch([body for body, _, _ in replies]))
                return
            except ValueError:
                pass
        for body, rid, codec in replies:
            try:
                out = wire.frame(body)
            except ValueError as exc:
                out = wire.encode({"ok": False, "error": str(exc), "rid": rid}, codec)
            self.sock.write(out)

    async def _after_drain(
        self, bodies: List[bytes], reqs: List[Dict[str, Any]], batched: bool
    ) -> None:
        await self.node.transport.drained()
        self._held = False
        self._answer(bodies, reqs, batched)
        self._read_on()
