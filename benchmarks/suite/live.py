"""The two live-plane workloads: ``live_write_sat`` (closed loop, write
heavy, saturating) and ``live_read_paced`` (open loop, read heavy, fixed
rate).

Both drive one in-process ``LiveCluster`` (n=3 ``ccv-fig5``, binary
codec, coalescing, ring tap, no proxies) from this single process over
**two client connections** — to nodes 0 and 1; node 2 only replicates —
with no threads; the cluster shares the harness's event loop, as in the
tests.  The op stream is generated here from the seed, hashed, and only
then sent; the program sees requests, never the seed's rng.
"""

from __future__ import annotations

import asyncio
import random
import socket
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.cli import load_history
from repro.criteria.streaming_monitor import replay_history
from repro.service import wire
from repro.service.cluster import HOST, ClientSession, LiveCluster
from repro.service.load import capture_history, converged_windows

from . import harness

N = 3
STREAMS = 4
K = 2
ALGORITHM = "ccv-fig5"
#: nodes that take client connections, one connection each
CLIENT_NODES = (0, 1)
WINDOW = 32
#: closed-loop sessions per connection (16 in flight per connection)
SESSIONS = 16
#: closed-loop op tape length per connection (cycled)
TAPE = 1 << 16
#: open-loop arrival rate, total over both connections (op/s)
PACED_RATE = 2000.0
WRITE_SHARE = {"live_write_sat": 0.9, "live_read_paced": 0.1}

#: slice length.  The closed loop completes ~1500 ops per slice, so a
#: slice's p99 has 15 samples beyond it.  The open loop is idle most of
#: the time and a host stall of a few ms decides a slice's p99, so its
#: slices are short enough (200 ops) for a tenth of them to miss every
#: stall: a slice's p99 is its third-largest latency, and the reported
#: value is the lower decile of ~130 such readings
SLICE_S = {"live_write_sat": 0.25, "live_read_paced": 0.1}
WARMUP_S = 2.0
#: a completed op slower than this counts as late (``load.late_share``)
LATE_S = 0.020
#: LiveCluster.start() → first acknowledged op, measured this many times
#: before the measured window and again after it (~7 ms a time, and one
#: reading in five is 20% off the median)
SETUPS = 25
#: the closed loop reads its peak RSS when this many ops per run second
#: have completed: a faster program records more history by the end of
#: the window, so memory is compared at a fixed amount of work
RSS_AT_OPS_PER_S = 2000
#: each connection's put values start here: never collide, never default
VALUE_STRIDE = 1_000_000_000

#: what a traced run of either live workload reports
LAYER_METRICS = (
    "client.call_us_per_op",
    "load.gen_late_p99_ms",
    "load.late_share",
    "wire.encode_us_per_op",
    "wire.decode_us_per_op",
    "wire.codec_calls_per_op",
    "wire.bytes_per_op",
    "transport.send_us_per_op",
    "transport.frames_per_op",
    "transport.frames_per_write",
    "transport.max_batch",
    "broadcast.send_us_per_op",
    "broadcast.receive_us_per_op",
    "broadcast.receives_per_op",
    "broadcast.duplicate_share",
    "broadcast.pending_peak",
    "broadcast.retained_log_max",
    "broadcast.resync_attempts",
    "algorithms.invoke_us_per_op",
    "algorithms.apply_us_per_op",
    "algorithms.applies_per_op",
    "tap.push_us_per_op",
    "tap.drain_us_per_op",
    "tap.max_depth",
    "tap.spills",
    "recorder.record_us_per_op",
    "monitors.check_us_per_op",
    "node.rss_kb_per_kop",
    "loop.residual_us_per_op",
    "trace.coverage_share",
    "trace.overhead_share",
)


# ----------------------------------------------------------------------
# Inputs (plain JSON data, generated from the seed)
# ----------------------------------------------------------------------
def make_inputs(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The op stream: per-connection tapes of ``[is_put, stream]`` for
    the closed loop; a Poisson schedule of ``[due_s, connection, is_put,
    stream]`` for the open loop."""
    rng = random.Random(f"{workload}:{seed}")
    share = WRITE_SHARE[workload]
    if workload == "live_write_sat":
        tapes = [
            [[int(rng.random() < share), rng.randrange(STREAMS)] for _ in range(TAPE)]
            for _ in CLIENT_NODES
        ]
        return {"workload": workload, "seed": seed, "tapes": tapes}
    schedule = []
    due = 0.0
    while True:
        due += rng.expovariate(PACED_RATE)
        if due >= seconds:
            break
        schedule.append(
            [
                due,
                rng.randrange(len(CLIENT_NODES)),
                int(rng.random() < share),
                rng.randrange(STREAMS),
            ]
        )
    return {"workload": workload, "seed": seed, "schedule": schedule}


class _Requests:
    """Turns input rows into wire requests; put values are unique per
    connection so the captured history stays differentiated."""

    def __init__(self) -> None:
        self._next = [
            (conn + 1) * VALUE_STRIDE for conn in range(len(CLIENT_NODES) + 1)
        ]

    def build(self, conn: int, is_put: int, x: int) -> Dict[str, Any]:
        if is_put:
            self._next[conn] += 1
            return {"cmd": "put", "x": x, "v": self._next[conn]}
        return {"cmd": "get", "x": x}


# ----------------------------------------------------------------------
# Cluster bring-up
# ----------------------------------------------------------------------
#: where port blocks are looked for: below the kernel's ephemeral range
#: (32768 up), so no outgoing connection of the cluster itself can take
#: a port between the probe and the bind
PORT_RANGE = (10240, 32000)


def free_port_block(width: int) -> int:
    """A base port with ``width`` consecutive free ports, found by
    probing at a random place — never a fixed base, so back-to-back runs
    cannot meet a socket the previous run left behind."""
    pick = random.SystemRandom()
    for _ in range(64):
        base = pick.randrange(PORT_RANGE[0], PORT_RANGE[1] - width)
        held = []
        try:
            for port in range(base, base + width):
                sock = socket.socket()
                held.append(sock)
                sock.bind((HOST, port))
            return base
        except OSError:
            continue
        finally:
            for sock in held:
                sock.close()
    raise RuntimeError(f"no block of {width} free ports found")


async def _start_cluster(
    seed: int, requests: _Requests, calibration: harness.Calibration
) -> Tuple[LiveCluster, float]:
    """Bring a cluster up and time construction → first acknowledged
    op, at the reference speed."""
    calibration.read(time.perf_counter())
    t0 = time.perf_counter()
    cluster = LiveCluster(
        N,
        base_port=free_port_block(3 * N),
        algorithm=ALGORITHM,
        streams=STREAMS,
        k=K,
        seed=seed,
        proxied=False,
        codec=wire.CODEC_BINARY,
        coalesce=True,
        tap="ring",
    )
    await cluster.start()
    session = ClientSession(cluster.client_addr(0), codec=wire.CODEC_BINARY)
    await session.connect()
    try:
        reply = await session.call(requests.build(len(CLIENT_NODES), 1, 0))
    finally:
        await session.close()
    if not reply.get("ok"):
        raise RuntimeError(f"first operation refused: {reply!r}")
    t1 = time.perf_counter()
    calibration.read(t1)
    return cluster, (t1 - t0) / calibration.slowness(t0, t1)


async def _connected(cluster: LiveCluster) -> None:
    for _ in range(200):
        if all(all(node.transport.connected.values()) for node in cluster.nodes):
            return
        await asyncio.sleep(0.01)
    raise RuntimeError("peer connections did not come up")


# ----------------------------------------------------------------------
# Load drivers
# ----------------------------------------------------------------------
class _Drive:
    """One measured window: slices, the reference-loop readings taken
    alongside them, generator lateness and issue counts."""

    def __init__(self, loop: asyncio.AbstractEventLoop, workload: str) -> None:
        self.start = loop.time()
        self.slices = harness.Slices(self.start, SLICE_S[workload])
        self.calibration = harness.Calibration()
        self.issued = 0
        self.late_ops = 0
        self.gen_late: List[float] = []
        self.completed = 0
        #: peak RSS read when this many ops have completed (closed loop)
        self.rss_at: Optional[int] = None
        self.rss_mb: Optional[float] = None
        self.cpu0 = time.process_time()
        self.wall = 0.0
        self.cpu = 0.0
        self._calibrating = loop.create_task(self._calibrate(loop))

    async def _calibrate(self, loop: asyncio.AbstractEventLoop) -> None:
        """Read the reference loop on the workload's own event loop."""
        while True:
            self.calibration.read(loop.time())
            await asyncio.sleep(harness.CALIBRATION_EVERY_S)

    def done(self, loop: asyncio.AbstractEventLoop, since: float, ok: bool) -> None:
        now = loop.time()
        latency = now - since
        if not ok or latency > LATE_S:
            self.late_ops += 1
        self.slices.record(now, latency, ok)
        self.completed += 1
        if self.completed == self.rss_at:
            self.rss_mb = harness.peak_rss_mb()

    def finish(self, now: float) -> None:
        self._calibrating.cancel()
        self.calibration.read(now)
        self.slices.close(now)
        self.wall = now - self.start
        self.cpu = time.process_time() - self.cpu0

    @property
    def failed(self) -> int:
        """Errors, refusals, timeouts and ops that never completed."""
        return self.slices.failed + (self.issued - self.slices.ops)


async def _one_call(
    loop: asyncio.AbstractEventLoop,
    session: ClientSession,
    request: Dict[str, Any],
    since: float,
    drive: _Drive,
) -> None:
    try:
        reply = await session.call(request, timeout=harness.FAILED_LATENCY_S)
        ok = bool(reply.get("ok"))
    except (ConnectionError, OSError, asyncio.TimeoutError):
        ok = False
    drive.done(loop, since, ok)


async def drive_closed(
    sessions: List[ClientSession],
    tapes: List[List[List[int]]],
    cursors: List[int],
    requests: _Requests,
    seconds: float,
    rss_at: int,
) -> _Drive:
    """Closed loop: every session issues its connection's next tape op
    the moment its previous reply lands, until the deadline."""
    loop = asyncio.get_event_loop()
    drive = _Drive(loop, "live_write_sat")
    drive.rss_at = rss_at
    deadline = drive.start + seconds

    async def session_loop(conn: int) -> None:
        tape = tapes[conn]
        session = sessions[conn]
        while loop.time() < deadline:
            is_put, x = tape[cursors[conn] % len(tape)]
            cursors[conn] += 1
            drive.issued += 1
            await _one_call(
                loop, session, requests.build(conn, is_put, x), loop.time(), drive
            )

    await asyncio.gather(
        *(session_loop(conn) for conn in range(len(sessions)) for _ in range(SESSIONS))
    )
    drive.finish(loop.time())
    return drive


async def drive_paced(
    sessions: List[ClientSession],
    schedule: List[List[Any]],
    offset: float,
    requests: _Requests,
) -> _Drive:
    """Open loop: each op leaves when it is due (``due_s - offset`` after
    the window opens) whether or not earlier ones have completed, and is
    timed from its due time, so a stall is charged to every op it delays."""
    loop = asyncio.get_event_loop()
    drive = _Drive(loop, "live_read_paced")
    base = drive.start - offset
    inflight: set = set()
    i = 0
    while i < len(schedule):
        now = loop.time()
        while i < len(schedule) and base + schedule[i][0] <= now:
            due_s, conn, is_put, x = schedule[i]
            i += 1
            drive.issued += 1
            drive.gen_late.append(now - (base + due_s))
            task = loop.create_task(
                _one_call(
                    loop,
                    sessions[conn],
                    requests.build(conn, is_put, x),
                    base + due_s,
                    drive,
                )
            )
            inflight.add(task)
            task.add_done_callback(inflight.discard)
        if i < len(schedule):
            await asyncio.sleep(max(0.0, base + schedule[i][0] - loop.time()))
    if inflight:
        await asyncio.gather(*inflight)
    drive.finish(loop.time())
    return drive


# ----------------------------------------------------------------------
# Correctness gate (outside the timed window)
# ----------------------------------------------------------------------
async def gate(cluster: LiveCluster, failed: int) -> Dict[str, Any]:
    addrs = {pid: cluster.client_addr(pid) for pid in range(N)}
    converged = False
    for _ in range(60):
        if await converged_windows(addrs, STREAMS):
            converged = True
            break
        await asyncio.sleep(0.25)
    statuses = [node.status() for node in cluster.nodes]
    doc = await capture_history(addrs, STREAMS, K, criteria=("CCV",))
    history, adt, _criteria = load_history(doc)
    verdict = replay_history(history, adt, criteria=("CCV",))["CCV"]
    checks = {
        "client_failures": failed,
        "converged": converged,
        "monitors_ok": all(s["monitor"]["ok"] for s in statuses),
        "tap_spills": sum(s["tap"]["spills"] for s in statuses),
        "captured_ops": len(history),
        "ccv_conclusive": verdict.conclusive(),
        "ccv_ok": verdict.ok,
        "ccv_reason": verdict.reason,
    }
    checks["correct"] = bool(
        failed == 0
        and converged
        and checks["monitors_ok"]
        and checks["tap_spills"] == 0
        and verdict.conclusive()
        and verdict.ok
    )
    return checks


# ----------------------------------------------------------------------
# Per-layer counts from public status surfaces
# ----------------------------------------------------------------------
def _counts(cluster: LiveCluster) -> Dict[str, float]:
    out: Dict[str, float] = {
        "frames_out": 0,
        "writes": 0,
        "max_batch": 0,
        "delivered": 0,
        "resync_attempts": 0,
        "tap_max_depth": 0,
        "tap_spills": 0,
    }
    for node in cluster.nodes:
        stats = node.transport.wire_stats
        out["frames_out"] += stats["frames_out"]
        out["writes"] += stats["writes"]
        out["max_batch"] = max(out["max_batch"], stats["max_batch"])
        broadcast = node.algorithm.broadcast
        out["delivered"] += broadcast.delivered_count
        out["resync_attempts"] += broadcast.resync_attempts
        tap = node.tap.stats()
        out["tap_max_depth"] = max(out["tap_max_depth"], tap["max_depth"])
        out["tap_spills"] += tap["spills"]
    return out


def _layer_metrics(
    tracer: Any,
    drive: _Drive,
    before: Dict[str, float],
    after: Dict[str, float],
    rss_growth: int,
) -> Dict[str, float]:
    from . import trace

    ops = drive.slices.ops
    metrics = trace.ledger(tracer, ops, drive.cpu)
    count = tracer.count
    counters = tracer.counters
    frames = after["frames_out"] - before["frames_out"]
    writes = after["writes"] - before["writes"]
    receives = count["broadcast.receive"]
    # every broadcast delivers once locally; the rest of the deliveries
    # are first receipts, and every other receive was a duplicate
    fresh = (after["delivered"] - before["delivered"]) - count["broadcast.send"]
    late = sorted(drive.gen_late)
    metrics.update(
        {
            "load.gen_late_p99_ms": harness.percentile(late, 0.99) * 1e3 if late else 0.0,
            "load.late_share": drive.late_ops / max(1, drive.issued),
            "wire.codec_calls_per_op": (count["wire.encode"] + count["wire.decode"]) / ops,
            "wire.bytes_per_op": counters["wire.bytes"] / ops,
            "transport.frames_per_op": frames / ops,
            "transport.frames_per_write": frames / max(1, writes),
            "transport.max_batch": after["max_batch"],
            "broadcast.receives_per_op": receives / ops,
            "broadcast.duplicate_share": 1.0 - fresh / max(1, receives),
            "broadcast.pending_peak": counters["broadcast.pending_peak"],
            "broadcast.retained_log_max": counters["broadcast.retained_log_max"],
            "broadcast.resync_attempts": after["resync_attempts"] - before["resync_attempts"],
            "algorithms.applies_per_op": count["algorithms.apply"] / ops,
            "tap.max_depth": after["tap_max_depth"],
            "tap.spills": after["tap_spills"],
            "node.rss_kb_per_kop": rss_growth / 1024.0 / (ops / 1000.0),
        }
    )
    return metrics


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
async def _setups(
    count: int,
    seed: int,
    requests: _Requests,
    calibration: harness.Calibration,
    times: List[float],
) -> None:
    """Bring a cluster up and take it down ``count`` times, timing each
    bring-up."""
    for _ in range(count):
        cluster, took = await _start_cluster(seed, requests, calibration)
        times.append(took)
        await cluster.close()


async def _run(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    inputs = make_inputs(workload, seed, seconds)
    result: Dict[str, Any] = {"input_sha256": harness.input_sha256(inputs)}
    requests = _Requests()
    closed = workload == "live_write_sat"
    cursors = [0] * len(CLIENT_NODES)

    async def drive(
        sessions: List[ClientSession], start_s: float, end_s: float
    ) -> _Drive:
        """The part of the workload due in ``[start_s, end_s)``."""
        if closed:
            return await drive_closed(
                sessions, inputs["tapes"], cursors, requests, end_s - start_s,
                rss_at=int(RSS_AT_OPS_PER_S * seconds),
            )
        rows = [row for row in inputs["schedule"] if start_s <= row[0] < end_s]
        return await drive_paced(sessions, rows, start_s, requests)

    # set-up is timed SETUPS times on either side of the window, so its
    # median averages over the host's slow and fast phases; the last
    # cluster brought up before the window is the one measured
    setups: List[float] = []
    setup_calibration = harness.Calibration()
    await _setups(SETUPS - 1, seed, requests, setup_calibration, setups)
    cluster, took = await _start_cluster(seed, requests, setup_calibration)
    setups.append(took)
    sessions: List[ClientSession] = []
    try:
        await _connected(cluster)
        for pid in CLIENT_NODES:
            session = ClientSession(
                cluster.client_addr(pid), codec=wire.CODEC_BINARY, window=WINDOW
            )
            await session.connect()
            sessions.append(session)

        # a traced run spends its first third untraced, as the reference
        # the tracing overhead is measured against
        first = await drive(sessions, 0.0, seconds / 3.0 if traced else seconds)
        drives = [first]
        if not traced:
            summary = harness.summarise_slices(
                first.slices.per_slice(
                    first.start + WARMUP_S, first.calibration, open_loop=not closed
                ),
                open_loop=not closed,
            )
            result["metrics"] = summary["metrics"]
            if not closed:
                # slice by slice an open loop's rate is its schedule's
                # Poisson noise, and catching up after a stall reads as
                # a fast slice
                result["metrics"]["ops_per_s"] = first.slices.rate(first.start + WARMUP_S)
            result["metrics"]["peak_rss_mb"] = first.rss_mb or harness.peak_rss_mb()
            result["detail"] = summary["detail"]
        else:
            from . import trace

            tracer = trace.Tracer()
            installed = trace.Installed(tracer)
            installed.patch_layers()
            for node in cluster.nodes:
                installed.wrap_broadcast(node.transport.handlers, node.algorithm.broadcast)
            before = _counts(cluster)
            rss0 = harness.rss_bytes()
            try:
                second = await drive(sessions, seconds / 3.0, seconds)
            finally:
                installed.remove()
            rss_growth = harness.rss_bytes() - rss0
            after = _counts(cluster)
            drives.append(second)
            metrics = _layer_metrics(tracer, second, before, after, rss_growth)
            untraced_cpu = first.slices.cpu_us_per_op(
                first.start + WARMUP_S / 2, first.calibration
            )
            traced_cpu = second.slices.cpu_us_per_op(second.start, second.calibration)
            metrics["trace.overhead_share"] = 1.0 - untraced_cpu / traced_cpu
            result["metrics"] = harness.expect_names(metrics, LAYER_METRICS)
            result["detail"] = {
                "untraced_cpu_us_per_op": untraced_cpu,
                "traced_cpu_us_per_op": traced_cpu,
                "untraced_ops_per_s": first.slices.ops / first.wall,
                "traced_ops_per_s": second.slices.ops / second.wall,
                "spans": tracer.table(),
            }
            result["raw_spans"] = tracer.raw_spans()

        result["attempted"] = sum(d.issued for d in drives)
        result["failed"] = sum(d.failed for d in drives)
        result["checks"] = await gate(cluster, result["failed"])
        result["correct"] = result["checks"]["correct"]
    finally:
        for session in sessions:
            await session.close()
        await cluster.close()
    if not traced:
        await _setups(SETUPS, seed, requests, setup_calibration, setups)
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["detail"]["setup_s"] = harness.spread(setups)
    return result


def run(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    return asyncio.run(_run(workload, seed, seconds, traced))
