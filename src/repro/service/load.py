"""Load generator for the live service plane.

Drives a cluster the way the simulator's open-loop clients drive a run:
each *session* issues invocations at Poisson arrivals (``rate`` per
session), choosing reads vs writes by ``write_ratio`` and streams by the
``WorkloadSpec`` hot-key skew (:func:`repro.scenarios.workloads.
pick_stream`), without waiting for earlier operations to complete —
sessions multiplex over :class:`~repro.service.cluster.ClientSession`
connections (``connections`` per node, round-robin), so thousands of
concurrent sessions are a scheduling problem, not a file-descriptor one.

Two knobs changed the shape of this module in PR 10:

- ``window`` is each connection's pipelining depth (see
  :class:`~repro.service.cluster.ClientSession`): requests batch into
  container frames and up to ``window`` ride in flight per connection.
  ``window=1`` is the PR 9 lock-step client.
- ``closed=True`` switches a session from Poisson arrivals to a
  *closed loop*: issue, await, issue again, as fast as the window
  admits.  That is the saturation mode the A/B benchmark uses — an
  open-loop Poisson clock measures the generator, a closed loop
  measures the service.

Every completed call's latency is recorded; the report carries
p50/p95/p99 so pipelining wins (and costs) are visible beyond
throughput.

Values carry the same per-(node, session) namespace discipline as the
simulated scripts (no value written twice), which the exact checkers and
the streaming monitor require of a differentiated history.

After the drive, :func:`capture_history` pulls every node's recorded
operation row and assembles the classify-JSON document (``adt`` block
included), so ``repro classify`` renders a verdict on the
*live* capture end to end.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..scenarios.spec import WorkloadSpec
from ..scenarios.workloads import pick_stream
from . import wire
from .cluster import ClientSession
from .node import ServiceNode
from .transport import Address


def percentile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile on an already-sorted list (0 if empty)."""
    if not sorted_vals:
        return 0.0
    idx = max(0, min(len(sorted_vals) - 1, round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


@dataclass
class LoadReport:
    """Outcome of one load drive."""

    issued: int = 0
    completed: int = 0
    rejected: int = 0  # node said no (crashed) — expected under chaos
    errors: int = 0  # transport-level failures
    wall: float = 0.0
    per_node_ops: Dict[int, int] = field(default_factory=dict)
    #: per-completed-op latency in seconds (issue → reply)
    latencies: List[float] = field(default_factory=list)

    @property
    def ops_per_sec(self) -> float:
        return self.completed / self.wall if self.wall else 0.0

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 over completed-op latencies, in milliseconds."""
        ordered = sorted(self.latencies)
        return {
            "p50_ms": round(percentile(ordered, 0.50) * 1e3, 3),
            "p95_ms": round(percentile(ordered, 0.95) * 1e3, 3),
            "p99_ms": round(percentile(ordered, 0.99) * 1e3, 3),
        }


#: value namespace stride per (node, session) — far above any smoke-test
#: op count, so no value is ever written twice across the cluster
VALUE_STRIDE = 1_000_000


async def run_load(
    client_addrs: Dict[int, Address],
    spec: WorkloadSpec,
    streams: int,
    duration: float,
    sessions_per_node: int = 4,
    seed: int = 0,
    window: int = 1,
    connections: int = 1,
    codec: str = wire.CODEC_JSON,
    closed: bool = False,
) -> LoadReport:
    """Drive the cluster for ``duration`` seconds.

    Open loop (default): every session fires invocations on its Poisson
    clock without awaiting completions.  Closed loop: every session
    issues back-to-back, as fast as its connection's window admits.
    Crash rejections are counted, connections shared round-robin among a
    node's sessions.
    """
    report = LoadReport()
    loop = asyncio.get_event_loop()
    t0 = loop.time()
    deadline = t0 + duration
    conns: Dict[int, List[ClientSession]] = {}
    for pid, addr in client_addrs.items():
        pool = []
        for _ in range(max(1, connections)):
            session = ClientSession(addr, codec=codec, window=window)
            await session.connect()
            pool.append(session)
        conns[pid] = pool

    async def one_call(
        conn: ClientSession, pid: int, request: Dict[str, Any]
    ) -> None:
        start = loop.time()
        try:
            reply = await conn.call(request)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            report.errors += 1
            return
        if reply.get("ok"):
            report.completed += 1
            report.latencies.append(loop.time() - start)
            report.per_node_ops[pid] = report.per_node_ops.get(pid, 0) + 1
        else:
            report.rejected += 1

    def next_request(
        rng: random.Random, namespace: int, i: int
    ) -> Dict[str, Any]:
        x = pick_stream(rng, spec, streams)
        if rng.random() < spec.write_ratio:
            return {"cmd": "put", "x": x, "v": namespace + i}
        return {"cmd": "get", "x": x}

    async def session_task(pid: int, sidx: int) -> None:
        rng = random.Random((seed * 1_000_003 + pid) * 4093 + sidx)
        namespace = (pid * sessions_per_node + sidx) * VALUE_STRIDE
        conn = conns[pid][sidx % len(conns[pid])]
        i = 0
        if closed:
            # closed loop: saturate — next op leaves when the previous
            # reply lands (per session; the window is the connection's)
            while loop.time() < deadline:
                i += 1
                report.issued += 1
                await one_call(conn, pid, next_request(rng, namespace, i))
            return
        inflight: List[asyncio.Task] = []
        while True:
            gap = rng.expovariate(spec.rate) if spec.rate > 0 else 0.01
            now = loop.time()
            if now + gap >= deadline:
                break
            await asyncio.sleep(gap)
            i += 1
            report.issued += 1
            # open loop: don't await completion before the next arrival
            inflight.append(
                asyncio.ensure_future(
                    one_call(conn, pid, next_request(rng, namespace, i))
                )
            )
        await asyncio.gather(*inflight, return_exceptions=True)

    tasks = [
        asyncio.ensure_future(session_task(pid, s))
        for pid in client_addrs
        for s in range(sessions_per_node)
    ]
    await asyncio.gather(*tasks)
    report.wall = loop.time() - t0
    for pool in conns.values():
        for session in pool:
            await session.close()
    return report


async def capture_history(
    client_addrs: Dict[int, Address],
    streams: int,
    k: int,
    criteria: tuple = ("CC", "CCV"),
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Pull every node's recorded row and assemble the classify-JSON
    document for the live run (process order = pid order).  ``meta``
    (load settings, latency percentiles) rides along under ``"meta"`` —
    ignored by the checkers, kept for provenance."""
    processes: List[List[Dict[str, Any]]] = []
    for pid in sorted(client_addrs):
        session = ClientSession(client_addrs[pid])
        await session.connect()
        ops: List[Dict[str, Any]] = []
        try:
            # page by page, each one frame: a whole row of a fast run
            # is more than a frame can carry
            while True:
                reply = await session.call({"cmd": "history", "since": len(ops)})
                if not reply.get("ok"):
                    ops = []
                    break
                page = reply.get("ops", [])
                ops.extend(page)
                if len(page) < ServiceNode.HISTORY_PAGE:
                    break
        finally:
            await session.close()
        # the node's rows are already classify-JSON ops; their "start"
        # times matter: the streaming monitor replays a timed history in
        # recorded-time order — the order the wire actually delivered —
        # which is what makes its conflict-order inference conclusive on
        # live captures
        processes.append(ops)
    doc = {
        "adt": {"type": "window-array", "streams": streams, "k": k},
        "criteria": list(criteria),
        "processes": processes,
    }
    if meta:
        doc["meta"] = meta
    return doc


async def converged_windows(
    client_addrs: Dict[int, Address], streams: int
) -> Optional[bool]:
    """Do all live replicas report identical windows on every stream?
    Every algorithm answers ``window`` (it is ``state_of(pid)[x]``), so
    the verdict is ``None`` only when a node rejects the request — a
    stream index it does not have."""
    windows: List[List[Any]] = []
    for pid in sorted(client_addrs):
        session = ClientSession(client_addrs[pid])
        await session.connect()
        try:
            per_stream = []
            for x in range(streams):
                reply = await session.call({"cmd": "window", "x": x})
                if not reply.get("ok"):
                    return None
                per_stream.append(reply.get("value"))
            windows.append(per_stream)
        finally:
            await session.close()
    return all(w == windows[0] for w in windows[1:])
