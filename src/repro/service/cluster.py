"""In-process live cluster: n nodes + fault proxies on loopback.

The CLI's ``repro serve --pid i`` hosts a single node per OS process;
this module is the other deployment shape — every node, proxy and the
load driver sharing one event loop — which is what the tests and the CI
``service-smoke`` job use: no subprocess lifecycle to babysit, and a
crash mid-run is one flag flipped rather than a SIGKILL.  Owning every
proxy and node is also what makes a :class:`LiveCluster` a fault target
(:mod:`repro.scenarios.faults`): ``FaultSchedule(events).install(cluster)``
runs the schedule a simulated ``Scenario`` runs, on wall-clock timers.

Port layout from ``base_port``: node ``i`` listens for peers at
``base + 3i``, its fault proxy at ``base + 3i + 1`` (the address the
*other* nodes dial), and its client protocol at ``base + 3i + 2``.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union

from ..runtime.broadcast import ReliableBroadcast
from ..scenarios.spec import FAULT_ACTIONS, FaultEvent
from . import wire
from .node import ServiceNode
from .proxy import FaultProxy
from .transport import Address

HOST = "127.0.0.1"


def port_layout(
    n: int, base_port: int, host: str = HOST, proxied: bool = True
) -> Dict[str, Any]:
    """Address plan for an ``n``-node loopback cluster."""
    peer = {pid: (host, base_port + 3 * pid) for pid in range(n)}
    proxy = {pid: (host, base_port + 3 * pid + 1) for pid in range(n)}
    client = {pid: (host, base_port + 3 * pid + 2) for pid in range(n)}
    return {
        "peer": peer,
        "proxy": proxy,
        "client": client,
        # what peers dial: the proxy when one fronts the node
        "dial": proxy if proxied else peer,
    }


def load_fault_schedule(path: str) -> List[FaultEvent]:
    """Load fault events from a JSON file: a bare list of event dicts or
    a :class:`~repro.scenarios.spec.ScenarioSpec` document (its
    ``faults``), validated as a spec's are — and refused here, before
    anything is started, when one is an action a live cluster refuses."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("faults", [])
    events = [FaultEvent.from_dict(f) for f in data]
    for event in events:
        if event.action in LiveCluster.REFUSED_ACTIONS:
            raise ValueError(LiveCluster.refusal(event.action))
    return events


class LiveCluster:
    """n ServiceNodes (+ optional FaultProxies) in one event loop."""

    #: wall seconds per unit of fault-schedule time
    time_scale = 1.0
    #: see :meth:`set_delay_scale`
    DELAY_UNIT = 0.05
    #: the schedule actions with no live answer (see :meth:`start_reorder`)
    REFUSED_ACTIONS = ("reorder",)

    def __init__(
        self,
        n: int,
        base_port: int = 7420,
        algorithm: str = "ccv-fig5",
        streams: int = 2,
        k: int = 2,
        seed: int = 0,
        proxied: bool = True,
        host: str = HOST,
        codec: Union[str, Dict[int, str]] = wire.CODEC_BINARY,
        coalesce: bool = True,
        tap: str = "ring",
    ) -> None:
        self.n = n
        self.layout = port_layout(n, base_port, host=host, proxied=proxied)
        # per-pid codec map supports mixed clusters (one JSON node among
        # binary peers — the compat-fallback smoke test's shape)
        if isinstance(codec, dict):
            self.codecs = {
                pid: codec.get(pid, wire.CODEC_BINARY) for pid in range(n)
            }
        else:
            self.codecs = {pid: codec for pid in range(n)}
        self.proxies: Dict[int, FaultProxy] = {}
        if proxied:
            self.proxies = {
                pid: FaultProxy(
                    pid,
                    listen=self.layout["proxy"][pid],
                    upstream=self.layout["peer"][pid],
                    seed=seed,
                )
                for pid in range(n)
            }
        self.nodes: List[ServiceNode] = [
            ServiceNode(
                pid,
                addrs=self.layout["dial"],
                my_addr=self.layout["peer"][pid],
                client_addr=self.layout["client"][pid],
                algorithm=algorithm,
                streams=streams,
                k=k,
                seed=seed,
                codec=self.codecs[pid],
                coalesce=coalesce,
                tap=tap,
            )
            for pid in range(n)
        ]
        #: timers of installed fault schedules, cancelled by close()
        self._timers: List[asyncio.TimerHandle] = []
        self._epoch: Optional[float] = None
        #: what fault-schedule callbacks raised, in firing order
        self.fault_failures: List[Exception] = []

    def client_addr(self, pid: int) -> Address:
        return self.layout["client"][pid]

    async def start(self) -> None:
        epoch = asyncio.get_event_loop().time()
        for node in self.nodes:
            node.clock.rebase(epoch)
        for proxy in self.proxies.values():
            await proxy.start()
        for node in self.nodes:
            await node.start()

    async def close(self) -> None:
        for timer in self._timers:
            timer.cancel()
        for node in self.nodes:
            await node.close()
        for proxy in self.proxies.values():
            await proxy.close()

    # ------------------------------------------------------------------
    # Fault target (the contract is in repro.scenarios.faults)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Schedule time: zero at its first reading — the first
        ``FaultSchedule.install`` — so a schedule's times count from
        then, and one installed later must be dated after it."""
        t = asyncio.get_event_loop().time()
        if self._epoch is None:
            self._epoch = t
        return (t - self._epoch) / self.time_scale

    def schedule(self, delay: float, cb: Callable, *args: Any) -> Any:
        """A timer the cluster owns: :meth:`close` cancels it, and if its
        callback raises, :attr:`fault_failures` keeps the exception (the
        loop's exception handler sees it as well)."""
        timer = asyncio.get_event_loop().call_later(
            delay * self.time_scale, self._fire, cb, args
        )
        self._timers.append(timer)
        return timer

    def _fire(self, cb: Callable, args: Tuple[Any, ...]) -> None:
        try:
            cb(*args)
        except Exception as exc:
            self.fault_failures.append(exc)
            raise

    def _each_proxy(self, call: str, *args: Any) -> None:
        """Dials and links are the proxies'; without them, a no-op."""
        for proxy in self.proxies.values():
            getattr(proxy, call)(*args)

    def set_loss_rate(self, rate: float) -> None:
        self._each_proxy("set_loss_rate", rate)

    def set_duplicate_rate(self, rate: float) -> None:
        self._each_proxy("set_duplicate_rate", rate)

    def partition(self, *groups: Iterable[int]) -> None:
        self._each_proxy("partition", *groups)

    def heal(self) -> None:
        self._each_proxy("heal")

    def block_links(self, pairs: Iterable[Tuple[int, int]]) -> None:
        self._each_proxy("block_links", pairs)

    def unblock_links(self, pairs: Iterable[Tuple[int, int]]) -> None:
        self._each_proxy("unblock_links", pairs)

    def set_delay_scale(self, factor: float) -> None:
        """The one call that means something else here: the simulated
        network multiplies each sampled delay, but a proxy samples none
        and a multiple of loopback latency is no congestion spike — so
        the spike is added per-frame latency, ``DELAY_UNIT`` of schedule
        time per unit of ``factor`` above 1."""
        extra = max(0.0, factor - 1.0) * self.DELAY_UNIT * self.time_scale
        self._each_proxy("set_extra_delay", extra)

    def start_reorder(self, duration: float) -> None:
        """Refused: a proxy forwards each connection's frames in order,
        so there is no per-link inversion to start."""
        raise ValueError(self.refusal("reorder"))

    @classmethod
    def refusal(cls, action: str) -> str:
        supported = (a for a in FAULT_ACTIONS if a not in cls.REFUSED_ACTIONS)
        return (
            f"unsupported live fault action {action!r}; "
            f"supported: {', '.join(supported)}"
        )

    def crash(self, pid: int) -> None:
        self.nodes[pid].crash()

    def recover(self, pid: int) -> None:
        self.nodes[pid].recover()

    def is_crashed(self, pid: int) -> bool:
        return self.nodes[pid].crashed

    def resync(self, pid: int, helper: int) -> None:
        """One anti-entropy hop: ``pid`` asks ``helper`` to replay what
        it has not seen (nothing to ask under state-based gossip)."""
        broadcast = self.nodes[pid].broadcast
        if isinstance(broadcast, ReliableBroadcast):
            broadcast.resync(pid, helper=helper)


# ----------------------------------------------------------------------
# Minimal client helpers (one-shot and session)
# ----------------------------------------------------------------------
async def client_call(
    addr: Address, request: Dict[str, Any], timeout: float = 5.0
) -> Dict[str, Any]:
    """One request/response round trip on a fresh JSON session."""
    session = ClientSession(addr)
    await session.connect()
    try:
        return await session.call(request, timeout)
    finally:
        await session.close()


class ClientSession(asyncio.Protocol):
    """A multiplexed client connection: many in-flight requests over one
    socket, correlated by ``rid`` — thousands of open-loop sessions can
    share one connection per node.  The session is the socket's
    protocol: replies resolve their calls in the callback that read
    them, and no task runs per session.

    ``window`` is the pipelining depth: with ``window=1`` every call is
    lock-step (one request frame written as the call is made, then the
    reply awaited — byte-for-byte the PR 9 client, the A/B baseline),
    while ``window>1`` lets that many calls ride in flight at once and
    queues their requests for a flush scheduled once per loop pass,
    which folds everything queued into one framing-level batch
    container — the server replies with one container per request
    batch, so a full window costs two writes total instead of
    ``2·window``.  Calls past the window wait, in arrival order, for a
    slot.  ``codec`` picks the wire encoding for this session's frames;
    the server always answers in the request's codec.

    Timeouts cost one loop timer per session, not one per call: each
    in-flight call's deadline sits next to its future, and a single
    ``call_at`` is armed at the earliest of them.  When it fires it
    fails every expired call and re-arms at the earliest left, so a call
    still times out at its own ``timeout``.  A session whose connection
    has stopped — ``close()``, EOF, a garbage reply — is dead: its
    in-flight calls fail with ``ConnectionError`` at once and it refuses
    new ones.
    """

    #: most requests folded into one batch container
    BATCH_MAX = 64

    def __init__(
        self,
        addr: Address,
        codec: str = wire.CODEC_JSON,
        window: int = 1,
    ) -> None:
        if codec not in wire.CODECS:
            raise ValueError(f"unknown codec {codec!r}")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.addr = addr
        self.codec = codec
        self.window = window
        self._sock: Any = None
        self._splitter = wire.FrameSplitter(self._replies)
        #: rid -> (reply future, deadline on the loop's clock)
        self._pending: Dict[int, Tuple[asyncio.Future, float]] = {}
        self._next_rid = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: the one deadline timer; armed no later than any pending deadline
        self._timer: Optional[asyncio.TimerHandle] = None
        self._dead = False
        #: encoded request bodies waiting for this loop pass's flush
        self._sendq: List[bytes] = []
        #: window slots free, and the calls waiting for one, in order
        self._free = window
        self._waiters: Deque[asyncio.Future] = deque()

    async def connect(self) -> None:
        host, port = self.addr
        self._loop = asyncio.get_running_loop()
        await self._loop.create_connection(lambda: self, host, port)

    # -- the socket's protocol ------------------------------------------
    def connection_made(self, transport: Any) -> None:
        self._sock = transport

    def data_received(self, data: bytes) -> None:
        try:
            self._splitter.feed(data)
        except ValueError:
            self._sock.close()
            self._die()

    def _replies(self, bodies: List[bytes], _batched: bool) -> None:
        pending = self._pending
        for body in bodies:
            frame = wire.decode(body)
            if not isinstance(frame, dict):
                raise ValueError(f"reply is not a dict: {type(frame).__name__}")
            entry = pending.pop(frame.get("rid"), None)
            if entry is not None and not entry[0].done():
                entry[0].set_result(frame)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # by any route: nobody is left to resolve a reply future
        self._die()

    def _die(self) -> None:
        """Fail every in-flight call and refuse new ones."""
        self._dead = True
        self._sendq.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for fut, _deadline in self._pending.values():
            if not fut.done():
                fut.set_exception(ConnectionError("session closed"))
        self._pending.clear()

    # -- deadlines --------------------------------------------------------
    def _arm(self, deadline: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(deadline, self._expire)

    def _expire(self) -> None:
        """The deadline timer fired: time out what is due, re-arm at the
        earliest deadline left (none: the next call arms)."""
        self._timer = None
        now = self._loop.time()
        earliest = None
        for rid, (fut, deadline) in list(self._pending.items()):
            if deadline <= now:
                del self._pending[rid]
                if not fut.done():
                    fut.set_exception(asyncio.TimeoutError())
            elif earliest is None or deadline < earliest:
                earliest = deadline
        if earliest is not None:
            self._arm(earliest)

    # -- the window -------------------------------------------------------
    async def _slot(self) -> None:
        if self._free and not self._waiters:
            self._free -= 1
            return
        fut = self._loop.create_future()
        self._waiters.append(fut)
        try:
            await fut  # a released slot is handed over, never counted free
        except BaseException:
            if not fut.cancelled():  # handed over just as this call was cancelled
                self._release()
            raise

    def _release(self) -> None:
        waiters = self._waiters
        while waiters:
            fut = waiters.popleft()
            if not fut.done():
                fut.set_result(None)
                return
        self._free += 1

    # -- requests ---------------------------------------------------------
    def _flush(self) -> None:
        """Write everything queued this loop pass: one frame, or batch
        containers of up to ``BATCH_MAX`` requests, of the bodies their
        calls encoded."""
        queue, self._sendq = self._sendq, []
        if self._dead:
            return
        if len(queue) == 1:
            self._sock.write(wire.frame(queue[0]))
        else:
            for at in range(0, len(queue), self.BATCH_MAX):
                self._sock.write(wire.encode_batch(queue[at : at + self.BATCH_MAX]))

    async def call(
        self, request: Dict[str, Any], timeout: float = 10.0
    ) -> Dict[str, Any]:
        await self._slot()
        rid = self._next_rid
        self._next_rid += 1
        try:
            if self._dead:  # possibly while this call waited for its slot
                raise ConnectionError("session closed")
            request = dict(request)
            request["rid"] = rid
            # encoded here, not in the flush: a request the codec refuses
            # fails its own call, at once
            body = wire.encode_body(request, self.codec)
            loop = self._loop
            fut = loop.create_future()
            deadline = loop.time() + timeout
            self._pending[rid] = (fut, deadline)
            timer = self._timer
            if timer is None or deadline < timer.when():
                self._arm(deadline)
            if self.window == 1:
                self._sock.write(wire.frame(body))
            else:
                if not self._sendq:
                    loop.call_soon(self._flush)
                self._sendq.append(body)
            return await fut
        finally:
            # a reply, a timeout and a dead session pop the entry
            # themselves; a cancellation or a failed write must not leave
            # one behind for a reply that may never come
            self._pending.pop(rid, None)
            self._release()

    async def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
        self._die()
