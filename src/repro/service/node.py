"""One live node: a registry algorithm behind a TCP client protocol.

A :class:`ServiceNode` hosts the full n-wide algorithm instance the
simulator would run — same constructor, same broadcast stack, same
:class:`~repro.runtime.recorder.HistoryRecorder` and
:class:`~repro.runtime.monitors.RuntimeMonitor` — but over an
:class:`~repro.service.transport.AsyncioTransport`, where only
``my_pid`` is locally active.  Three adaptations bridge the gap between
"one instance carries all replicas" (simulator) and "one instance per
node" (live):

**Digests.**  Heartbeats carry the sender's contiguous seen-frontier
row; the receiver merges it (elementwise max) into its own broadcast
bookkeeping.  That keeps the causal-stability GC sound (crashed peers'
rows freeze, retaining exactly what they may still need), lets a resync
helper filter what the target has already seen, and feeds the
supervised-resync verification check.

**Resync as an RPC.**  ``ReliableBroadcast.resync`` assumes helper and
target share one instance.  Live, the recovering node sends a
``resync-req`` control frame (its frontier + spill) to the helper, which
merges the digest and replays its log through the normal send path.  The
*supervision* skeleton — ``start_resync``'s epochs, timeout checks,
geometric backoff, helper failover, the ``resync-stranded`` monitor hook
— runs completely unmodified on the recovering node, its timers now real
wall-clock RPC timeouts on the event loop.

**Membership.**  ``Transport.is_crashed`` is wired to the heartbeat
view (:class:`~repro.service.view.ViewManager`), so helper selection
skips peers that stopped answering — whether crashed or cut off by the
fault proxy.

The client protocol is tiny: length-prefixed JSON request/response
frames with a correlation id (``rid``), commands ``get`` / ``put`` /
``ops`` / ``window`` / ``history`` / ``status`` / ``watch`` and the
operator controls ``crash`` / ``recover``.  ``status`` exposes the
monitor's violations and ``NetworkStats``-style counters; ``watch``
streams it.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from ..core.operations import BOTTOM, HIDDEN, Invocation
from ..runtime.monitors import RuntimeMonitor
from ..runtime.recorder import HistoryRecorder
from . import wire
from .tap import MonitorTap, RecorderTap, RingTap
from .transport import Address, AsyncioTransport, WallClock
from .view import ViewManager


def build_algorithm(
    key: str,
    clock: Any,
    transport: Any,
    recorder: Optional[HistoryRecorder],
    streams: int,
    k: int,
):
    """Instantiate a registry algorithm against an arbitrary transport —
    the live counterpart of the matrix runner's construction."""
    from ..adts.window_stream import WindowStreamArray
    from ..scenarios.matrix import ALGORITHMS

    try:
        entry = ALGORITHMS[key]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ValueError(f"unknown algorithm {key!r}; known: {known}") from None
    if entry.kwargs_style == "window":
        kwargs: Dict[str, Any] = {"streams": streams, "k": k}
    else:
        kwargs = {"adt": WindowStreamArray(streams, k)}
    kwargs.update(entry.extra)
    return entry, entry.cls(clock, transport, recorder, **kwargs)


class ServiceNode:
    """One node of a live cluster."""

    #: heartbeat cadence / staleness horizon (seconds)
    HB_INTERVAL = 0.25
    HB_TIMEOUT = 1.2
    #: first supervised-resync verification check fires this long after
    #: the catch-up RPC (wall seconds; the simulator default of 6.0 is
    #: tuned to simulated delays, not loopback RTTs)
    RESYNC_TIMEOUT = 1.5

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
        self.client_addr = client_addr
        self.algorithm_key = algorithm
        self.codec = codec
        self.tap_mode = tap
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
        self.view = ViewManager(
            my_pid,
            self.n,
            lambda: self.clock.now,
            hb_interval=self.HB_INTERVAL,
            hb_timeout=self.HB_TIMEOUT,
        )
        self.transport.crash_oracle = self.view.is_down
        self.transport.control_handler = self._on_control
        #: the real monitor (verdict reads always come from here)
        self.monitor: Optional[RuntimeMonitor] = None
        broadcast = getattr(self.algorithm, "broadcast", None)
        if broadcast is not None and hasattr(broadcast, "monitor"):
            self.monitor = RuntimeMonitor(self.n, sim=self.clock)
            if self.tap is not None:
                broadcast.monitor = MonitorTap(self.tap, self.monitor)
            else:
                broadcast.monitor = self.monitor
        #: freshest digest row received per peer (feeds the supervised
        #: resync verification check)
        self._peer_frontier: Dict[int, List[int]] = {}
        self.resyncs_served = 0
        self.resyncs_requested = 0
        if broadcast is not None and hasattr(broadcast, "resync"):
            self._patch_resync(broadcast)
        self._server: Optional[asyncio.AbstractServer] = None
        self._hb_task: Optional[asyncio.Task] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Live resync: RPC to the helper, digest-driven verification
    # ------------------------------------------------------------------
    def _patch_resync(self, b: Any) -> None:
        b.RESYNC_TIMEOUT = self.RESYNC_TIMEOUT
        original_resync = b.resync
        my_pid = self.my_pid
        transport = self.transport

        def live_resync(target: int, helper: Optional[int] = None) -> int:
            if target == my_pid:
                # recovering side: ship our frontier to the helper and
                # let it replay what we are missing
                if helper is None:
                    live = [
                        p
                        for p in range(self.n)
                        if p != target and not transport.is_crashed(p)
                    ]
                    if not live:
                        return 0
                    helper = live[0]
                self.resyncs_requested += 1
                transport.send_control(
                    helper,
                    {
                        "kind": "resync-req",
                        "target": target,
                        "frontier": list(b._frontier[target]),
                        "spill": sorted(b._seen[target]),
                    },
                )
                return 0
            # helper side (we were asked to serve): replay from our log
            return original_resync(target, helper=my_pid)

        def live_catchup_missing(target: int, cutoff: Tuple[int, ...]) -> bool:
            # "does any live peer hold a message target has not seen?",
            # answered from digests: a peer whose advertised contiguous
            # frontier exceeds ours (below the attempt's cutoff) has one
            frontier = b._frontier[target]
            spill = b._seen[target]
            for helper, head in self._peer_frontier.items():
                if self.view.is_down(helper):
                    continue
                for origin in range(self.n):
                    limit = min(head[origin], cutoff[origin])
                    seq = frontier[origin]
                    while seq < limit:
                        if (origin, seq) not in spill:
                            return True
                        seq += 1
            return False

        b.resync = live_resync
        b._catchup_missing = live_catchup_missing

    # ------------------------------------------------------------------
    # Control frames: heartbeats + digests, resync RPCs
    # ------------------------------------------------------------------
    def _on_control(self, src: int, body: Dict[str, Any]) -> None:
        kind = body.get("kind")
        if kind == "hb":
            asyncio.ensure_future(self.view.heartbeat(src))
            digest = body.get("frontier")
            if digest is not None:
                self._merge_digest(src, list(digest))
        elif kind == "resync-req":
            target = body["target"]
            b = getattr(self.algorithm, "broadcast", None)
            if b is None:
                return
            self._merge_target_view(
                b, target, body.get("frontier"), body.get("spill")
            )
            self.resyncs_served += 1
            b.resync(target)  # helper branch of live_resync

    def _merge_digest(self, src: int, digest: List[int]) -> None:
        b = getattr(self.algorithm, "broadcast", None)
        if b is None or not hasattr(b, "_frontier"):
            return
        row = b._frontier[src]
        for origin, head in enumerate(digest[: self.n]):
            if head > row[origin]:
                row[origin] = head
            # every message was seen by its origin before anyone else,
            # so peers' frontiers bound the true next ids from below —
            # which is what the resync verification cutoff needs
            if head > b._next_id[origin]:
                b._next_id[origin] = head
        self._peer_frontier[src] = list(digest[: self.n])

    @staticmethod
    def _merge_target_view(
        b: Any,
        target: int,
        frontier: Optional[List[int]],
        spill: Optional[List[Any]],
    ) -> None:
        if frontier is not None:
            row = b._frontier[target]
            for origin, head in enumerate(frontier[: len(row)]):
                if head > row[origin]:
                    row[origin] = head
        if spill:
            b._seen[target].update(tuple(mid) for mid in spill)

    async def _heartbeat_loop(self) -> None:
        while not self._closed:
            await self.view.sweep()
            if not self.transport.crashed_local:
                body: Dict[str, Any] = {"kind": "hb"}
                b = getattr(self.algorithm, "broadcast", None)
                if b is not None and hasattr(b, "_frontier"):
                    body["frontier"] = list(b._frontier[self.my_pid])
                self.transport.multicast_control(body)
            await asyncio.sleep(self.HB_INTERVAL)

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
        on_crash = getattr(self.algorithm, "on_crash", None)
        if on_crash is not None:
            on_crash(self.my_pid)

    def recover(self) -> None:
        """Rejoin: resume frames and heartbeats, then let the algorithm
        drive its supervised catch-up (``on_recover`` → ``start_resync``
        → resync RPC + wall-clock verification timers)."""
        self.transport.crashed_local = False
        on_recover = getattr(self.algorithm, "on_recover", None)
        if on_recover is not None:
            on_recover(self.my_pid)

    # ------------------------------------------------------------------
    # Client protocol
    # ------------------------------------------------------------------
    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection.  Requests may arrive singly or inside a
        framing-level batch container (the pipelined client's shape); a
        batch's replies return as one container, so a full client window
        costs one reply write + one drain.  Replies go
        back in the codec the request arrived in, so a JSON-only client
        (or ``repro status`` against a binary node) just works.  Every
        write path awaits ``drain()`` — a slow or stalled reader blocks
        its own connection's coroutine instead of growing the transport
        buffer without bound (regression-tested in
        ``tests/test_service_perf.py``)."""
        try:
            while True:
                body = await wire.read_body(reader)
                if wire.is_batch(body):
                    reply_bodies = []
                    for sub in wire.split_batch(body):
                        req = self._request(sub)
                        codec = wire.body_codec(sub)
                        reply = await self._handle_client(req, writer, codec)
                        if reply is not None:
                            reply["rid"] = req.get("rid")
                            reply_bodies.append(
                                wire.encode_body(reply, codec)
                            )
                    if reply_bodies:
                        writer.write(wire.encode_batch(reply_bodies))
                        await writer.drain()
                    continue
                req = self._request(body)
                codec = wire.body_codec(body)
                reply = await self._handle_client(req, writer, codec)
                if reply is not None:
                    reply["rid"] = req.get("rid")
                    wire.write_frame(writer, reply, codec)
                    await writer.drain()
        except (
            OSError,
            asyncio.IncompleteReadError,
            ValueError,
            ConnectionResetError,
        ):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            writer.close()

    @staticmethod
    def _request(body: bytes) -> Dict[str, Any]:
        req = wire.decode(body)
        if not isinstance(req, dict):
            raise ValueError(f"request is not a dict: {type(req).__name__}")
        return req

    async def _handle_client(
        self,
        req: Dict[str, Any],
        writer: asyncio.StreamWriter,
        codec: str = wire.CODEC_JSON,
    ) -> Optional[Dict[str, Any]]:
        cmd = req.get("cmd")
        if cmd == "ping":
            return {"ok": True, "pid": self.my_pid}
        if cmd == "put":
            if self.crashed:
                return {"ok": False, "error": "crashed"}
            if self.transport.backlog() > self.transport.HIGH_WATER:
                await self.transport.drained()
                if self.crashed:
                    return {"ok": False, "error": "crashed"}
            inv = Invocation("w", (int(req["x"]), req["v"]))
            self.algorithm.invoke(self.my_pid, inv)
            return {"ok": True}
        if cmd == "get":
            if self.crashed:
                return {"ok": False, "error": "crashed"}
            inv = Invocation("r", (int(req["x"]),))
            out = self.algorithm.invoke(self.my_pid, inv)
            return {"ok": True, "value": out}
        if cmd == "window":
            window = getattr(self.algorithm, "window", None)
            if window is None:
                return {"ok": False, "error": "no window observability"}
            return {"ok": True, "value": window(self.my_pid, int(req["x"]))}
        if cmd == "ops":
            if self.tap is not None:
                self.tap.flush()
            return {"ok": True, "count": self.recorder.count()}
        if cmd == "history":
            return {"ok": True, "ops": self._history_row()}
        if cmd == "status":
            return {"ok": True, "status": self.status(req.get("since", 0))}
        if cmd == "watch":
            interval = float(req.get("interval", 0.5))
            while not self._closed:
                frame = {"ok": True, "status": self.status(0)}
                frame["rid"] = req.get("rid")
                wire.write_frame(writer, frame, codec)
                await writer.drain()
                await asyncio.sleep(interval)
            return None
        if cmd == "crash":
            self.crash()
            return {"ok": True}
        if cmd == "recover":
            self.recover()
            return {"ok": True}
        return {"ok": False, "error": f"unknown cmd {cmd!r}"}

    def _history_row(self) -> List[Dict[str, Any]]:
        """This node's recorded operations in classify-JSON op format."""
        if self.tap is not None:
            self.tap.flush()
        ops = []
        for rec in self.recorder.rows[self.my_pid]:
            out = rec.output
            if out is BOTTOM:
                out = "<bottom>"
            elif out is HIDDEN:
                out = None
            elif isinstance(out, tuple):
                out = list(out)
            ops.append(
                {
                    "method": rec.invocation.method,
                    "args": list(rec.invocation.args),
                    "output": out,
                    "start": rec.start,
                    "end": rec.end,
                }
            )
        return ops

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
            },
        }
        if self.tap is not None:
            doc["tap"] = self.tap.stats()
        b = getattr(self.algorithm, "broadcast", None)
        if b is not None:
            doc["broadcast"] = {
                "delivered": b.delivered_count,
                "log_sizes": b.log_sizes() if hasattr(b, "log_sizes") else [],
                "resync_attempts": getattr(b, "resync_attempts", 0),
                "resync_retries": getattr(b, "resync_retries", 0),
                "resync_converged": getattr(b, "resync_converged", 0),
                "resync_gave_up": getattr(b, "resync_gave_up", 0),
                "resyncs_served": self.resyncs_served,
                "resyncs_requested": self.resyncs_requested,
            }
        if self.monitor is not None:
            doc["monitor"] = {
                "ok": self.monitor.ok,
                "total": len(self.monitor.violations),
                "dropped": self.monitor.dropped,
                "violations": [
                    str(v) for v in self.monitor.violations[since:]
                ],
            }
        return doc

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self.tap is not None:
            self.tap.start()
        await self.transport.start()
        host, port = self.client_addr
        self._server = await asyncio.start_server(
            self._serve_client, host, port
        )
        start_gossip = getattr(self.algorithm, "start_gossip", None)
        if self.entry.gossip and start_gossip is not None:
            start_gossip()
        self._hb_task = asyncio.ensure_future(self._heartbeat_loop())

    async def close(self) -> None:
        self._closed = True
        if self._hb_task is not None:
            self._hb_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.transport.close()
        if self.tap is not None:
            self.tap.close()
