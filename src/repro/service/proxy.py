"""Frame-aware fault proxy: the chaos vocabulary on real sockets.

One :class:`FaultProxy` fronts one node's peer port.  Other nodes dial
the proxy (the cluster's address map points at it), the proxy dials the
real node, and every inbound frame crosses the dials on its way in:

``set_loss_rate``
    drop the frame with probability ``loss_rate`` (hello frames are
    never dropped — loss is a message fault, not a connection fault);
``set_duplicate_rate``
    forward a second copy with probability ``duplicate_rate``;
``set_extra_delay``
    add ``extra_delay`` seconds of latency, order-preserving (a
    per-connection pump sleeps, so frames never overtake each other);
``partition`` / ``heal``
    frames whose (src, dst) pair crosses the group map are *held* in
    arrival order and flushed on heal — the simulated plane's "delay,
    never lose" semantics, kept on the wire;
``block_links`` / ``unblock_links``
    hold the frames of the directed links ``(src, dst)`` that end at
    this proxy's node (one-way partitions, flapping); ``heal`` clears
    them too.

Where a dial means what the simulated :class:`~repro.runtime.network.
Network`'s does it has that name and signature, so a cluster hands one
call to every proxy unchanged.  A proxy interprets no schedule and
crashes no node: :class:`~repro.scenarios.faults.FaultSchedule` does
the first, on :class:`~repro.service.cluster.LiveCluster`, which owns
the nodes.

The proxy decodes only the hello frame (to learn the dialing peer's
pid); data frames forward as raw bytes.  Dial mutations are loop-local
state flips, applied between frames.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from . import wire
from .transport import Address


class FaultProxy:
    """TCP fault-injection proxy in front of one node's peer port."""

    def __init__(
        self,
        node_pid: int,
        listen: Address,
        upstream: Address,
        seed: int = 0,
    ) -> None:
        self.node_pid = node_pid
        self.listen_addr = listen
        self.upstream = upstream
        self.rng = random.Random(seed * 9176731 + node_pid)
        # dials
        self.loss_rate = 0.0
        self.duplicate_rate = 0.0
        self.extra_delay = 0.0
        #: pid -> group index; a frame is held while src and dst map to
        #: different groups (unlisted pids share the implicit group -1)
        self.group_of: Optional[Dict[int, int]] = None
        #: source pids whose link to this node is blocked
        self.blocked_from: Set[int] = set()
        #: held frames in arrival order: (src_pid, raw)
        self._held: List[Tuple[int, bytes]] = []
        #: open upstream writers by dialing peer pid (for flush)
        self._upstreams: Dict[int, asyncio.StreamWriter] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self.stats = {"forwarded": 0, "lost": 0, "duplicated": 0, "held": 0}

    # ------------------------------------------------------------------
    # Dials
    # ------------------------------------------------------------------
    def set_loss_rate(self, rate: float) -> None:
        if not (0.0 <= rate < 1.0):
            raise ValueError("loss rate must be in [0, 1)")
        self.loss_rate = rate

    def set_duplicate_rate(self, rate: float) -> None:
        if not (0.0 <= rate <= 1.0):
            raise ValueError("duplicate rate must be in [0, 1]")
        self.duplicate_rate = rate

    def set_extra_delay(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("extra delay must be non-negative")
        self.extra_delay = seconds

    def partition(self, *groups: Iterable[int]) -> None:
        group_of: Dict[int, int] = {}
        for i, group in enumerate(groups):
            for pid in group:
                if pid in group_of:
                    raise ValueError("partition groups must be disjoint")
                group_of[pid] = i
        self.group_of = group_of
        self._flush_held()

    def heal(self) -> None:
        self.group_of = None
        self.blocked_from.clear()
        self._flush_held()

    def block_links(self, pairs: Iterable[Tuple[int, int]]) -> None:
        self.blocked_from.update(s for s, d in pairs if d == self.node_pid)

    def unblock_links(self, pairs: Iterable[Tuple[int, int]]) -> None:
        self.blocked_from.difference_update(
            s for s, d in pairs if d == self.node_pid
        )
        self._flush_held()

    def _separated(self, src: int) -> bool:
        if src in self.blocked_from:
            return True
        if self.group_of is None:
            return False
        return self.group_of.get(src, -1) != self.group_of.get(
            self.node_pid, -1
        )

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _flush_held(self) -> None:
        held, self._held = self._held, []
        touched = set()
        for src, raw in held:
            if self._separated(src):
                self._held.append((src, raw))
                continue
            writer = self._upstreams.get(src)
            if writer is not None and not writer.is_closing():
                writer.write(raw)
                touched.add(writer)
                self.stats["forwarded"] += 1
            else:
                # the connection died while its frames were held; the
                # broadcast layers' anti-entropy repairs the gap, like a
                # real middlebox dropping a dead flow's buffer
                pass
        # a long partition can flush many megabytes at once; schedule a
        # drain per touched upstream so the burst can't grow the writer
        # buffer unboundedly (this runs from synchronous dial mutations,
        # so the awaits happen on a follow-up task, order preserved —
        # StreamWriter buffers FIFO and later pump writes append behind)
        for writer in touched:
            asyncio.ensure_future(self._drain_writer(writer))

    @staticmethod
    async def _drain_writer(writer: asyncio.StreamWriter) -> None:
        try:
            await writer.drain()
        except (OSError, ConnectionResetError):
            pass

    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One dialing peer: learn its pid from hello, connect upstream,
        then pump frames through the dials."""
        up_writer: Optional[asyncio.StreamWriter] = None
        src = None
        try:
            hello_body = await wire.read_body(reader)
            hello = wire.decode(hello_body)
            src = hello.get("src") if isinstance(hello, dict) else None
            host, port = self.upstream
            up_reader, up_writer = await asyncio.open_connection(host, port)
            up_writer.write(wire.frame(hello_body))  # never lost or held
            await up_writer.drain()
            if src is not None:
                self._upstreams[src] = up_writer
            while True:
                raw = wire.frame(await wire.read_body(reader))
                if self._separated(src):
                    self.stats["held"] += 1
                    self._held.append((src, raw))
                    continue
                if self.loss_rate and self.rng.random() < self.loss_rate:
                    self.stats["lost"] += 1
                    continue
                copies = 1
                if (
                    self.duplicate_rate
                    and self.rng.random() < self.duplicate_rate
                ):
                    self.stats["duplicated"] += 1
                    copies = 2
                if self.extra_delay:
                    await asyncio.sleep(self.extra_delay)
                for _ in range(copies):
                    up_writer.write(raw)
                    self.stats["forwarded"] += 1
                await up_writer.drain()
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
            if (
                src is not None
                and up_writer is not None
                and self._upstreams.get(src) is up_writer
            ):
                del self._upstreams[src]
            if up_writer is not None:
                up_writer.close()
            writer.close()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        host, port = self.listen_addr
        self._server = await asyncio.start_server(
            self._serve_conn, host, port
        )

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._upstreams.values()):
            writer.close()
