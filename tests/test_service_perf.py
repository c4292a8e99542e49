"""Hot-path observability and backpressure regressions (PR 10).

Three contracts the live-plane rebuild must not bend:

* **Tap verdict identity** — moving the RuntimeMonitor and the
  HistoryRecorder behind the :class:`~repro.service.tap.RingTap` may
  change *when* events are applied, never *what* they conclude.  The
  unit tests replay identical event scripts (including violations)
  through the deferred and the synchronous path and require
  bit-identical verdicts and rows; the live test runs the same cluster
  scenario under ``tap="ring"`` and ``tap="sync"`` and requires the
  same streaming-CCv classification of the capture.

* **Ring boundedness without loss** — at capacity the producer spills
  (drains inline); events are never dropped and order is preserved.

* **Slow-reader backpressure** — a peer that stops reading must stall
  the transport's writer at the drain (bounded socket-level buffering,
  frames parked in the transport's own counted queue) instead of
  growing the asyncio write buffer without limit; when the reader
  resumes, everything arrives, in order.
"""

import asyncio
import json

import pytest

from repro.cli import load_history
from repro.core.operations import Invocation
from repro.criteria.streaming_monitor import replay_history
from repro.runtime.monitors import RuntimeMonitor
from repro.runtime.recorder import HistoryRecorder
from repro.scenarios.spec import WorkloadSpec
from repro.service import wire
from repro.service.cluster import LiveCluster, client_call, port_layout
from repro.service.load import capture_history, converged_windows, run_load
from repro.service.tap import MonitorTap, RecorderTap, RingTap
from repro.service.transport import AsyncioTransport

BASE_PORT = 7700


def verdict_state(monitor: RuntimeMonitor):
    return (
        monitor.ok,
        monitor.dropped,
        [(v.kind, v.pid, v.detail) for v in monitor.violations],
    )


def drive(sink, n):
    """A deterministic event script touching every monitor hook, with
    deliberate violations (double apply, fifo gap, causal slip, frontier
    regression, pruned gap, stranded resync/pull) mixed into clean
    traffic."""
    for seq in range(4):
        for pid in range(n):
            sink.on_fifo_deliver(pid, origin=(pid + 1) % n, seq=seq)
    sink.on_deliver(0, (1, 7))
    sink.on_deliver(0, (1, 7))  # double apply
    sink.on_fifo_deliver(1, origin=0, seq=9)  # gap: expected 4
    sink.on_causal_deliver(2, (0, 0), 0, [1, 0, 0])
    sink.on_causal_deliver(2, (0, 2), 0, [3, 0, 0])  # causal slip
    sink.on_gc([1, 0, 0], [[2, 1, 0], [1, 0, 0], [1, 1, 1]], set())
    sink.on_gc([0, 0, 0], [[2, 1, 0], [1, 0, 0], [1, 1, 1]], {1})  # regress
    sink.on_pruned_gap(target=1, origin=0, seq=3)
    sink.on_resync_stranded(target=1, attempts=5)
    sink.on_pull_stranded(2, (0, 4), attempts=7)


class TestMonitorTapIdentity:
    def test_deferred_verdicts_match_synchronous(self):
        n = 3
        direct = RuntimeMonitor(n)
        drive(direct, n)

        deferred = RuntimeMonitor(n)
        tap = RingTap()
        facade = MonitorTap(tap, deferred)
        drive(facade, n)
        assert deferred.violations == []  # nothing applied yet
        tap.flush()

        assert verdict_state(deferred) == verdict_state(direct)
        # (1, 7) at receiver 0 and (0, 2) at receiver 2 sit above gaps
        assert deferred.stats() == direct.stats()
        assert direct.stats()["out_of_order"] == 2
        assert not direct.ok  # the script does contain violations
        kinds = {v.kind for v in direct.violations}
        assert kinds == {
            "double-apply",
            "fifo-order",
            "causal-order",
            "gc-frontier",
            "pruned-gap",
            "resync-stranded",
            "pull-stranded",
        }

    def test_mutable_args_snapshotted_at_enqueue(self):
        """The broadcast layer hands the monitor its *live* frontier rows
        and stamps; mutating them after the hook returns must not change
        the deferred verdict."""
        direct = RuntimeMonitor(2)
        direct.on_causal_deliver(0, (1, 0), 1, [0, 1])
        direct.on_gc([0, 1], [[0, 1], [0, 1]], set())

        deferred = RuntimeMonitor(2)
        tap = RingTap()
        facade = MonitorTap(tap, deferred)
        stamp = [0, 1]
        frontiers = [[0, 1], [0, 1]]
        crashed = set()
        facade.on_causal_deliver(0, (1, 0), 1, stamp)
        facade.on_gc([0, 1], frontiers, crashed)
        stamp[1] = 99
        frontiers[0][1] = -5
        crashed.add(0)
        tap.flush()
        assert verdict_state(deferred) == verdict_state(direct)
        assert deferred.ok

    def test_recorder_rows_identical(self):
        direct = HistoryRecorder(2)
        deferred_sink = HistoryRecorder(2)
        tap = RingTap()
        deferred = RecorderTap(tap, deferred_sink)
        script = [
            (0, Invocation("write", (0, 1)), None, 0.1, 0.2),
            (1, Invocation("read", (0,)), 1, 0.15, 0.3),
            (0, Invocation("write", (1, 2)), None, 0.4, 0.5),
            (1, Invocation("read", (1,)), 2, 0.9, 1.0),
        ]
        for row in script:
            direct.record(*row)
            assert deferred.record(*row) is None  # deferred: no OpRecord yet
        assert deferred_sink.count() == 0  # nothing applied yet
        tap.flush()
        assert deferred_sink.rows == direct.rows
        assert deferred_sink.count() == direct.count()
        left, right = deferred_sink.to_history(), direct.to_history()
        assert left.events == right.events
        assert left.times == right.times

    def test_spill_preserves_every_event_in_order(self):
        seen = []
        tap = RingTap(capacity=8)
        for i in range(30):
            tap.push(seen.append, i)
        assert tap.spills >= 1
        tap.flush()
        assert seen == list(range(30))
        stats = tap.stats()
        assert stats["pushed"] == stats["drained"] == 30
        assert stats["depth"] == 0


# ----------------------------------------------------------------------
# Live: ring tap vs sync tap classify identically
# ----------------------------------------------------------------------
def run_scenario(tap: str, base_port: int):
    """A deterministic-workload live run; returns (capture_doc, statuses)."""

    async def body():
        cluster = LiveCluster(
            3,
            base_port=base_port,
            streams=2,
            k=2,
            seed=11,
            proxied=False,
            tap=tap,
        )
        await cluster.start()
        try:
            await asyncio.sleep(0.3)
            addrs = {pid: cluster.client_addr(pid) for pid in range(3)}
            spec = WorkloadSpec(
                kind="open", rate=30.0, write_ratio=0.6, hot_key_weight=0.3
            )
            report = await run_load(
                addrs, spec, streams=2, duration=1.2, seed=11
            )
            assert report.errors == 0, report
            for _ in range(20):
                await asyncio.sleep(0.25)
                if await converged_windows(addrs, 2):
                    break
            statuses = {}
            for pid in range(3):
                reply = await client_call(addrs[pid], {"cmd": "status"})
                statuses[pid] = reply["status"]
            doc = await capture_history(addrs, streams=2, k=2)
            return doc, statuses
        finally:
            await cluster.close()

    return asyncio.run(body())


def classify(doc):
    history, adt, criteria = load_history(json.loads(json.dumps(doc)))
    verdict = replay_history(history, adt, criteria=("CCV",))["CCV"]
    return verdict.conclusive(), verdict.ok, verdict.violation


class TestRingVsSyncLive:
    def test_live_ring_and_sync_taps_classify_identically(self):
        ring_doc, ring_status = run_scenario("ring", BASE_PORT)
        sync_doc, sync_status = run_scenario("sync", BASE_PORT + 12)
        assert classify(ring_doc) == classify(sync_doc) == (True, True, None)
        for pid in range(3):
            assert ring_status[pid]["monitor"]["ok"]
            assert sync_status[pid]["monitor"]["ok"]
            assert ring_status[pid]["tap"]["spills"] == 0
            # drained may trail pushed only by the un-flushed residue,
            # and observability reads flushed before answering
            tap = ring_status[pid]["tap"]
            assert tap["pushed"] == tap["drained"]
            assert "tap" not in sync_status[pid]


# ----------------------------------------------------------------------
# Slow reader: the writer must park frames, not balloon the buffer
# ----------------------------------------------------------------------
class TestSlowReader:
    def test_writer_stalls_at_drain_until_reader_resumes(self):
        async def body():
            layout = port_layout(2, BASE_PORT + 24, proxied=False)
            received = []
            resume = asyncio.Event()
            server_ready = asyncio.Event()

            async def sink(reader, writer):
                server_ready.set()
                await wire.read_body(reader)  # hello
                await resume.wait()
                try:
                    while True:
                        body_bytes = await wire.read_body(reader)
                        for sub in wire.decode_frames(body_bytes):
                            received.append(sub)
                except (asyncio.IncompleteReadError, OSError):
                    pass

            host, port = layout["peer"][1]
            server = await asyncio.start_server(sink, host, port)
            transport = AsyncioTransport(
                0,
                addrs=layout["peer"],
                my_addr=layout["peer"][0],
                seed=3,
            )
            transport.attach(0, lambda src, payload: None)
            await transport.start()
            try:
                payload = "x" * 2048
                # 16 MB: the kernel's socket buffers alone take up to
                # tcp_wmem's max (4 MB by default) before the first
                # drain blocks, so the burst must be several times that
                total = 8000
                for i in range(total):
                    transport.send(0, 1, {"seq": i, "pad": payload})
                # let the writer push as much as the sockets will take
                # while the sink refuses to read: wait until bytes_out
                # holds still for 0.3 s (at least 1 s, at most 10 s)
                stats = transport.wire_stats
                loop = asyncio.get_event_loop()
                start = loop.time()
                seen, since = stats["bytes_out"], start
                while loop.time() - start < 10.0:
                    await asyncio.sleep(0.1)
                    now = loop.time()
                    if stats["bytes_out"] != seen:
                        seen, since = stats["bytes_out"], now
                    elif now - since >= 0.3 and now - start >= 1.0:
                        break
                stalled_bytes = stats["bytes_out"]
                # the drain stalls the writer: most of the traffic must
                # still be parked in the transport queue, not dumped
                # into the asyncio write buffer
                assert transport.backlog() > total // 2, transport.backlog()
                assert stalled_bytes < total * 2048 // 2, stalled_bytes
                await asyncio.sleep(0.3)
                assert stats["bytes_out"] == stalled_bytes  # fully stalled

                resume.set()  # reader comes back; everything flows
                await asyncio.wait_for(transport.drained(), 30.0)
                deadline = asyncio.get_event_loop().time() + 30.0
                while (
                    len(received) < total
                    and asyncio.get_event_loop().time() < deadline
                ):
                    await asyncio.sleep(0.1)
                assert len(received) == total
                seqs = [frame["body"]["seq"] for frame in received]
                assert seqs == list(range(total))  # FIFO preserved
            finally:
                await transport.close()
                server.close()
                await server.wait_closed()

        asyncio.run(body())
