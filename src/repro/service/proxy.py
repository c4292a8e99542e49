"""Frame-aware fault proxy: the chaos vocabulary on real sockets.

One :class:`FaultProxy` fronts one node's peer port.  Other nodes dial
the proxy (the cluster's address map points at it), the proxy dials the
real node, and every inbound frame crosses the dials on its way in:

``loss``
    drop the frame with probability ``loss_rate`` (hello frames are
    never dropped — loss is a message fault, not a connection fault);
``duplicate``
    forward a second copy with probability ``duplicate_rate``;
``delay``
    add ``extra_delay`` seconds of latency, order-preserving (a
    per-connection pump sleeps, so frames never overtake each other);
``partition`` / ``heal``
    frames whose (src, dst) pair crosses the group map are *held* in
    arrival order and flushed on heal — the simulated plane's "delay,
    never lose" semantics, kept on the wire;
``flap``
    timed block/unblock cycles of one directed link, implemented as
    short-lived holds.

Crash faults are not a proxy concern: the schedule driver
(:func:`drive_schedule`) maps ``crash``/``recover``/``crash-storm``
events to operator RPCs against the node's client port, and everything
else to proxy dials — so one ``FaultSchedule`` JSON document drives
either plane.

The proxy decodes only the hello frame (to learn the dialing peer's
pid); data frames forward as raw bytes.  Dial mutations are loop-local
state flips, applied between frames.
"""

from __future__ import annotations

import asyncio
import json
import random
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..scenarios.spec import FAULT_ACTIONS, FaultEvent
from . import wire
from .transport import Address, enable_nodelay


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
        #: directed source pids currently blocked by a flap
        self.blocked_from: Set[int] = set()
        #: held frames in arrival order: (src_pid, raw)
        self._held: List[Tuple[int, bytes]] = []
        self._conn_tasks: List[asyncio.Task] = []
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

    def partition(self, groups: Iterable[Iterable[int]]) -> None:
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

    def block_from(self, src: int) -> None:
        self.blocked_from.add(src)

    def unblock_from(self, src: int) -> None:
        self.blocked_from.discard(src)
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
            enable_nodelay(writer)
            hello_raw = await wire.read_raw_frame(reader)
            hello = wire.decode(hello_raw[4:])
            src = hello.get("src") if isinstance(hello, dict) else None
            host, port = self.upstream
            up_reader, up_writer = await asyncio.open_connection(host, port)
            enable_nodelay(up_writer)
            up_writer.write(hello_raw)  # hello is never lost or held
            await up_writer.drain()
            if src is not None:
                self._upstreams[src] = up_writer
            while True:
                raw = await wire.read_raw_frame(reader)
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


# ----------------------------------------------------------------------
# FaultSchedule JSON -> live dials
# ----------------------------------------------------------------------
#: the schedule actions :func:`apply_event` maps onto a live cluster —
#: all but ``reorder``: a proxy forwards each connection's frames in
#: order, so it has no per-link reorder dial
LIVE_FAULT_ACTIONS = tuple(a for a in FAULT_ACTIONS if a != "reorder")


def _check_live_action(action: str) -> None:
    if action not in LIVE_FAULT_ACTIONS:
        raise ValueError(
            f"unsupported live fault action {action!r}; "
            f"supported: {', '.join(LIVE_FAULT_ACTIONS)}"
        )


def load_fault_schedule(path: str) -> List[Any]:
    """Load fault events from a JSON file: either a bare list of event
    dicts, or a full :class:`~repro.scenarios.spec.ScenarioSpec`
    document (its ``faults`` array is taken) — the same vocabulary,
    validated the same way, and refused here, before anything is
    started, when it holds an action the live plane cannot apply."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("faults", [])
    events = [FaultEvent.from_dict(f) for f in data]
    for event in events:
        _check_live_action(event.action)
    return events


async def drive_schedule(
    events: List[Any],
    proxies: Dict[int, FaultProxy],
    node_control,
    time_scale: float = 1.0,
) -> None:
    """Apply scenario fault events to a live cluster at wall times.

    ``events`` are :class:`repro.scenarios.spec.FaultEvent` objects (the
    same validated JSON vocabulary the simulated
    :class:`~repro.scenarios.faults.FaultSchedule` installs); ``at``
    fields are multiplied by ``time_scale`` seconds.  ``node_control``
    is an async callable ``(pid, cmd)`` that issues crash/recover RPCs
    against a node's client port.
    """
    loop = asyncio.get_event_loop()
    t0 = loop.time()
    for event in sorted(events, key=lambda e: e.time):
        due = t0 + event.time * time_scale
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        await apply_event(event, proxies, node_control, time_scale)


async def apply_event(
    event: Any,
    proxies: Dict[int, FaultProxy],
    node_control,
    time_scale: float = 1.0,
) -> None:
    action = event.action
    _check_live_action(action)
    if action == "partition":
        for proxy in proxies.values():
            proxy.partition(event.groups)
    elif action == "heal":
        for proxy in proxies.values():
            proxy.heal()
    elif action == "loss":
        for proxy in proxies.values():
            proxy.set_loss_rate(event.rate)
    elif action == "duplicate":
        for proxy in proxies.values():
            proxy.set_duplicate_rate(event.rate)
    elif action == "delay-scale":
        # the simulated dial scales sampled delays; on the wire the
        # equivalent congestion knob is added per-frame latency
        for proxy in proxies.values():
            proxy.set_extra_delay(max(0.0, (event.factor - 1.0)) * 0.05)
    elif action == "crash":
        await node_control(event.pid, "crash")
    elif action == "recover":
        await node_control(event.pid, "recover")
    elif action == "crash-storm":
        for pid in event.pids:
            await node_control(pid, "crash")

        async def storm_recover() -> None:
            await asyncio.sleep(event.duration * time_scale)
            for pid in event.pids:
                await node_control(pid, "recover")

        asyncio.ensure_future(storm_recover())
    elif action == "flap":
        src, dst = event.pids
        period = event.duration * time_scale

        async def flap() -> None:
            for i in range(event.count):
                proxies[dst].block_from(src)
                proxies[src].block_from(dst)
                await asyncio.sleep(period / 2)
                proxies[dst].unblock_from(src)
                proxies[src].unblock_from(dst)
                await asyncio.sleep(period / 2)

        asyncio.ensure_future(flap())
    elif action == "partition-oneway":
        sources, destinations = event.groups
        for s in sources:
            for d in destinations:
                if d in proxies:
                    proxies[d].block_from(s)
    elif action == "repair":
        # the live plane's anti-entropy is the supervised resync chain;
        # a repair sweep maps to asking every node to re-run recovery
        for pid in proxies:
            await node_control(pid, "recover")
