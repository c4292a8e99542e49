"""Live service plane: wire codec, view, proxy dials, cluster smoke.

The cluster tests are the CI ``service-smoke`` path: a 3-node loopback
cluster behind fault proxies survives a crash + rejoin mid-load (with
loss and duplication on the wire), the supervised resync chain converges
it, every node's runtime monitor stays clean, and the recorded wire
traffic classifies CCv-conclusive through the PR 7 streaming monitor —
the simulated plane's whole observability story, on real sockets.
"""

import asyncio
import gc
import json

import pytest
from oracles import stability_frontier

from repro.cli import load_history, main
from repro.core.operations import Invocation
from repro.criteria.streaming_monitor import replay_history
from repro.runtime.broadcast import CausalBroadcast
from repro.scenarios import FaultSchedule, Scenario
from repro.scenarios.matrix import ALGORITHMS
from repro.scenarios.spec import (
    DelaySpec,
    FaultEvent,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.service import (
    FaultProxy,
    LiveCluster,
    ViewManager,
    capture_history,
    converged_windows,
    load_fault_schedule,
    port_layout,
    run_load,
)
from repro.service import wire
from repro.service.cluster import ClientSession, client_call
from repro.service.node import ServiceNode
from repro.service.view import HB_INTERVAL, HB_TIMEOUT


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestWireCodec:
    def roundtrip(self, value):
        return wire.decode(wire.encode(value)[4:])  # strip length prefix

    def test_json_scalars(self):
        for value in [None, True, 0, -7, 10**15, 0.25, "x", [1, 2], {"a": 1}]:
            assert self.roundtrip(value) == value

    def test_tuples_survive(self):
        assert self.roundtrip((1, 2, 3)) == (1, 2, 3)
        assert self.roundtrip({"w": (0, (1, 2))}) == {"w": (0, (1, 2))}

    def test_non_string_dict_keys_survive(self):
        value = {0: [1], (1, 2): "link"}
        assert self.roundtrip(value) == value

    def test_float_precision(self):
        value = 0.1 + 0.2
        assert self.roundtrip(value) == value

    def test_frame_too_large_rejected(self):
        with pytest.raises(ValueError):
            wire.encode({"blob": "x" * (wire.MAX_FRAME + 1)})


# ----------------------------------------------------------------------
# Port layout and schedule loading
# ----------------------------------------------------------------------
def test_port_layout_proxied_vs_direct():
    proxied = port_layout(3, 9000)
    assert proxied["peer"][1] == ("127.0.0.1", 9003)
    assert proxied["proxy"][1] == ("127.0.0.1", 9004)
    assert proxied["client"][1] == ("127.0.0.1", 9005)
    assert proxied["dial"] == proxied["proxy"]
    direct = port_layout(3, 9000, proxied=False)
    assert direct["dial"] == direct["peer"]


def test_load_fault_schedule_accepts_bare_list_and_spec_doc(tmp_path):
    events = [
        {"time": 0.5, "action": "loss", "rate": 0.1},
        {"time": 1.0, "action": "crash", "pid": 2},
    ]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(events))
    loaded = load_fault_schedule(str(bare))
    assert [e.action for e in loaded] == ["loss", "crash"]
    doc = tmp_path / "spec.json"
    doc.write_text(json.dumps({"name": "x", "faults": events}))
    assert [e.time for e in load_fault_schedule(str(doc))] == [0.5, 1.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"time": 0.1, "action": "loss", "rate": 1.0}]))
    with pytest.raises(ValueError, match=r"loss rate must be in \[0, 1\)"):
        load_fault_schedule(str(bad))


def test_serve_refuses_a_schedule_it_cannot_apply(tmp_path, capsys, monkeypatch):
    """``reorder`` is a valid spec action with no live dial.  Applied
    mid-run it used to kill the driver task unheard, so the heal after
    it never came; the schedule is refused when it is loaded, before a
    cluster exists."""
    import repro.service

    def no_cluster(*args, **kwargs):
        raise AssertionError("a cluster was built for a refused schedule")

    monkeypatch.setattr(repro.service, "LiveCluster", no_cluster)
    path = tmp_path / "faults.json"
    path.write_text(json.dumps([
        {"time": 0.1, "action": "partition", "groups": [[0], [1, 2]]},
        {"time": 0.2, "action": "reorder", "duration": 1.0},
        {"time": 0.3, "action": "heal"},
    ]))
    with pytest.raises(ValueError, match="unsupported live fault action 'reorder'"):
        load_fault_schedule(str(path))
    assert main(["serve", "--faults", str(path), "--duration", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "'reorder'" in err and "supported: partition, heal" in err


def test_serve_reports_a_schedule_driver_that_died(tmp_path, capsys, monkeypatch):
    """Every event and every tail is a timer of the cluster; if one
    raises, it is said so on stderr and the exit status is not 0 —
    whether it is a listed event (``heal``) or the tail of one (a
    ``flap``'s scheduled ``unblock_links``)."""

    def dies(self, *args):
        raise ConnectionError("node 2 is gone")

    cases = [
        ("heal", {"time": 0.1, "action": "heal"}),
        (
            "unblock_links",
            {"time": 0.0, "action": "flap", "pids": [0, 1], "count": 1,
             "duration": 0.2},
        ),
    ]
    for offset, (call, event) in enumerate(cases):
        with monkeypatch.context() as patch:
            patch.setattr(LiveCluster, call, dies)
            path = tmp_path / f"faults{offset}.json"
            path.write_text(json.dumps([event]))
            port = str(BASE_PORT + 90 + 9 * offset)
            argv = ["serve", "--base-port", port, "--duration", "0.4"]
            assert main(argv + ["--faults", str(path)]) == 1, call
        captured = capsys.readouterr()
        assert "driving 1 fault event(s)" in captured.out
        assert "fault schedule event failed" in captured.err, call
        assert "node 2 is gone" in captured.err, call


# ----------------------------------------------------------------------
# View manager
# ----------------------------------------------------------------------
def test_view_manager_times_out_silent_peers():
    clock = {"t": 0.0}
    view = ViewManager(lambda: clock["t"])
    view.heartbeat(1)
    view.heartbeat(2)
    view.sweep()
    assert not view.is_down(1) and not view.is_down(2)
    clock["t"] = 0.8
    view.heartbeat(2)
    clock["t"] = 1.5  # pid 1 last seen at 0 -> stale; pid 2 fresh
    view.sweep()
    assert view.is_down(1) and not view.is_down(2)
    view.heartbeat(1)  # rejoin
    view.sweep()
    assert not view.is_down(1)


def test_a_heartbeat_brings_a_down_peer_up_before_on_control_returns():
    """Membership is marked in the callback that read the heartbeat:
    no task, no lock, nothing left for a later loop pass."""

    async def body():
        layout = port_layout(3, BASE_PORT + 140)
        node = ServiceNode(
            0, layout["dial"], layout["client"][0], my_addr=layout["peer"][0]
        )
        try:
            node.view.heartbeat(1)
            # the clock jumps past the staleness horizon: peer 1 is down
            node.clock.rebase(node.clock.loop.time() - 2 * HB_TIMEOUT)
            node.view.sweep()
            assert node.view.is_down(1) and node.transport.is_crashed(1)
            before = asyncio.all_tasks()
            node._on_control(1, {"kind": "hb"})
            assert not node.view.is_down(1)
            assert not node.transport.is_crashed(1)
            assert asyncio.all_tasks() == before
        finally:
            await node.close()

    asyncio.run(body())


# ----------------------------------------------------------------------
# Fault proxy dials (no sockets needed)
# ----------------------------------------------------------------------
class TestProxyDials:
    def proxy(self):
        return FaultProxy(0, ("127.0.0.1", 1), ("127.0.0.1", 2), seed=1)

    def test_dial_validation(self):
        p = self.proxy()
        with pytest.raises(ValueError):
            p.set_loss_rate(1.0)
        with pytest.raises(ValueError):
            p.set_duplicate_rate(1.5)
        with pytest.raises(ValueError):
            p.set_extra_delay(-0.1)
        with pytest.raises(ValueError):
            p.partition([0, 1], [1, 2])  # overlapping groups

    def test_partition_separates_across_groups_only(self):
        p = self.proxy()  # fronts node 0
        p.partition([0, 1], [2])
        assert not p._separated(1)  # same side as node 0
        assert p._separated(2)
        p.heal()
        assert not p._separated(2)

    def test_blocked_sources_and_unlisted_pids(self):
        p = self.proxy()
        # a proxy holds the links that end at its own node, no others
        p.block_links([(2, 0), (0, 1), (1, 2)])
        assert p._separated(2) and not p._separated(1)
        p.unblock_links([(2, 0), (2, 1)])
        assert not p._separated(2)
        p.partition([1])  # 0 and 2 share the implicit group
        assert p._separated(1) and not p._separated(2)


# ----------------------------------------------------------------------
# Live cluster smoke (the CI service-smoke path)
# ----------------------------------------------------------------------
BASE_PORT = 7640


#: the smoke's whole fault story, in schedule time from "load starts":
#: loss + duplication on the wire, node 2 crashes and rejoins mid-load,
#: then the wire heals and two repair sweeps (n - 1) close what the
#: proxies lost.  One list, both planes: `cluster_smoke` installs it on
#: a live cluster, `test_smoke_schedule_runs_on_the_simulator_too` hands
#: the same tuple to `Scenario.run`.
SMOKE_FAULTS = (
    FaultEvent.loss(0.0, 0.05),
    FaultEvent.duplicate(0.0, 0.05),
    FaultEvent.crash(0.7, 2),
    FaultEvent.recover(1.6, 2),
    FaultEvent.loss(2.6, 0.0),
    FaultEvent.duplicate(2.6, 0.0),
    FaultEvent.repair(2.7),
    FaultEvent.repair(3.2),
)


def cluster_smoke(base_port):
    """3 nodes behind fault proxies: load + loss/dup + crash + rejoin."""

    async def body():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        cluster = LiveCluster(3, base_port=base_port, streams=2, k=2, seed=5)
        await cluster.start()
        try:
            await asyncio.sleep(0.4)
            addrs = {pid: cluster.client_addr(pid) for pid in range(3)}
            spec = WorkloadSpec(
                kind="open", rate=25.0, write_ratio=0.6, hot_key_weight=0.3
            )
            schedule = FaultSchedule(SMOKE_FAULTS)
            schedule.install(cluster)
            report = await run_load(addrs, spec, streams=2, duration=2.5, seed=5)

            assert report.completed > 50, report
            assert report.errors == 0, report
            # node 2 rejected client ops while crashed
            assert report.rejected > 0, report

            # the schedule outlasts the load: heal and repair come after
            horizon = SMOKE_FAULTS[-1].time
            await asyncio.sleep(max(0.0, horizon - cluster.now) + 0.1)
            converged = False
            for _ in range(30):
                await asyncio.sleep(0.5)
                converged = await converged_windows(addrs, 2)
                if converged:
                    break
            assert converged, "replicas did not converge after repair"
            assert schedule.applied == len(SMOKE_FAULTS)
            assert not cluster.fault_failures, cluster.fault_failures

            statuses = {}
            for pid in range(3):
                reply = await client_call(addrs[pid], {"cmd": "status"})
                statuses[pid] = reply["status"]
            for pid, doc in statuses.items():
                assert doc["monitor"]["ok"], (pid, doc["monitor"])
                assert doc["monitor"]["total"] == 0, (pid, doc["monitor"])
                assert doc["broadcast"]["resync_gave_up"] == 0, (pid, doc)
                assert doc["tap"]["spills"] == 0, (pid, doc["tap"])
            # the supervised resync chain actually ran: the recovering
            # node requested, somebody served
            assert statuses[2]["broadcast"]["resyncs_requested"] >= 1
            assert (
                sum(d["broadcast"]["resyncs_served"] for d in statuses.values())
                >= 1
            )

            doc = await capture_history(addrs, 2, 2, criteria=("CCV",))
            # a second list on the same cluster is dated on the same
            # clock; this one is still pending when the cluster closes
            soon = cluster.now + 0.1
            pending = FaultSchedule(
                [FaultEvent.flap(soon, 0, 1, cycles=2, period=0.1)]
            )
            pending.install(cluster)
        finally:
            await cluster.close()
        # nothing of a schedule outlives the cluster: no timer fires, no
        # task is left, and the loop's exception handler heard nothing
        await asyncio.sleep(0.4)
        assert pending.applied == 0
        others = asyncio.all_tasks() - {asyncio.current_task()}
        assert not others, others
        assert not errors, errors
        return doc

    return asyncio.run(body())


def test_live_cluster_crash_rejoin_classifies_ccv(tmp_path):
    doc = cluster_smoke(BASE_PORT)
    ops = sum(len(row) for row in doc["processes"])
    assert ops > 50

    # capture goes through the same JSON + loader path the CLI uses
    path = tmp_path / "capture.json"
    path.write_text(json.dumps(doc))
    history, adt, criteria = load_history(json.loads(path.read_text()))
    assert criteria == ["CCV"]
    # invocation timestamps must ride along: they are what lets the
    # monitor replay the capture in true streaming (recorded-time) order
    assert history.times is not None

    verdict = replay_history(history, adt, criteria=("CCV",))["CCV"]
    assert verdict.conclusive(), verdict
    assert verdict.ok is True, (verdict.ok, verdict.reason)
    assert verdict.violation is None


def test_smoke_schedule_runs_on_the_simulator_too():
    """`SMOKE_FAULTS` is not a live-plane script: the tuple the cluster
    smoke installs is a `ScenarioSpec`'s `faults`, and `Scenario.run`
    drives the same interpreter over it — node 2 goes down and comes
    back, the wire loses and duplicates, two repair sweeps, one state."""
    spec = ScenarioSpec(
        name="service-smoke",
        n=3,
        streams=2,
        k=2,
        delay=DelaySpec("uniform", (0.005, 0.02)),
        faults=SMOKE_FAULTS,
        workload=WorkloadSpec(
            kind="open", rate=25.0, write_ratio=0.6, hot_key_weight=0.3,
            ops_per_process=60,
        ),
    )
    entry = ALGORITHMS["ccv-fig5"]
    result = Scenario(spec).run(entry.cls, seed=5, **entry.kwargs(2, 2))
    assert result.sim.now > SMOKE_FAULTS[-1].time
    assert result.network_stats.lost > 0 and not result.algorithm.network.crashed
    assert result.algorithm.converged()
    assert result.monitor.ok, result.monitor.violations
    assert result.algorithm.broadcast.stats()["resyncs_requested"] >= 1 + 2 * 3


# ----------------------------------------------------------------------
# A write crosses each peer link once; heartbeat digests repair the loss
# ----------------------------------------------------------------------
#: loss and duplication under load, then the wire heals: no crash, and
#: no `repair` event — the heartbeats are the only anti-entropy
LOSSY_THEN_HEALED = (
    FaultEvent.loss(0.0, 0.05),
    FaultEvent.duplicate(0.0, 0.05),
    FaultEvent.loss(2.0, 0.0),
    FaultEvent.duplicate(2.0, 0.0),
)


def _node_state(node):
    broadcast = node.broadcast
    pid = node.my_pid
    return broadcast.seen_ids(pid), broadcast.pending_messages(pid)


def test_heartbeat_digests_heal_wire_loss_without_a_repair_event():
    async def body():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        cluster = LiveCluster(3, base_port=BASE_PORT + 100, streams=2, seed=6)
        await cluster.start()
        try:
            await asyncio.sleep(0.4)
            addrs = {pid: cluster.client_addr(pid) for pid in range(3)}
            FaultSchedule(LOSSY_THEN_HEALED).install(cluster)
            spec = WorkloadSpec(kind="open", rate=40.0, write_ratio=0.8)
            report = await run_load(addrs, spec, streams=2, duration=2.0, seed=6)
            assert report.completed > 200 and report.errors == 0, report
            await asyncio.sleep(max(0.0, LOSSY_THEN_HEALED[-1].time - cluster.now))
            # healed: within a few heartbeats every node holds every id
            healed = cluster.now
            for _ in range(40):
                states = [_node_state(node) for node in cluster.nodes]
                if all(s == (states[0][0], 0) for s in states):
                    break
                await asyncio.sleep(0.05)
            took = cluster.now - healed
            assert all(s == (states[0][0], 0) for s in states), took
            assert took < 8 * HB_INTERVAL, took
            assert await converged_windows(addrs, 2)
            docs = [node.status() for node in cluster.nodes]
            for doc in docs:
                assert doc["monitor"]["ok"] and doc["monitor"]["total"] == 0, doc
                assert doc["broadcast"]["resyncs_requested"] == 0, doc
            lost = sum(proxy.stats["lost"] for proxy in cluster.proxies.values())
            sent = sum(doc["broadcast"]["repairs_sent"] for doc in docs)
            received = sum(doc["broadcast"]["repairs_received"] for doc in docs)
            assert lost > 0 and sent > 0 and received > 0, (lost, sent, received)
            # the next frame from the origin shows the gap, and the origin
            # alone resends it: about one repair per lost frame, where
            # every holder resending came to ~1.9
            assert sum(doc["broadcast"]["nacks_sent"] for doc in docs) > 0
            assert sent < 1.5 * lost, (lost, sent)
        finally:
            await cluster.close()
        assert not errors, errors

    asyncio.run(body())


def test_a_down_origins_lost_frames_come_from_the_lowest_live_holder():
    """Node 2 loses origin 0's last frames and origin 0 crashes: no
    later frame shows node 2 the gap, and origin 0 repairs nothing.
    Node 1 holds them and resends them once its view has origin 0 down
    (``HB_TIMEOUT`` without a heartbeat) and node 2's next digest comes
    round: ~1.06 s after the crash here, where every holder resending a
    heartbeat after the loss took ~0.30 s."""

    async def body():
        cluster = LiveCluster(3, base_port=BASE_PORT + 140, streams=2, proxied=False)
        await cluster.start()
        try:
            await asyncio.sleep(0.4)
            # node 2 loses every message frame it reads, and only those
            handlers = cluster.nodes[2].transport.handlers
            receive = handlers[2]
            handlers[2] = lambda src, message: None
            for i in range(5):
                request = {"cmd": "put", "x": i % 2, "v": i + 1}
                assert (await client_call(cluster.client_addr(0), request))["ok"]
            await asyncio.sleep(0.05)  # node 2 has read the frames
            cluster.crash(0)
            handlers[2] = receive
            crashed = cluster.now
            held = {
                mid for mid in cluster.nodes[1].broadcast.seen_ids(1) if mid[0] == 0
            }
            assert len(held) == 5
            assert not held & cluster.nodes[2].broadcast.seen_ids(2)
            for _ in range(80):
                if held <= cluster.nodes[2].broadcast.seen_ids(2):
                    break
                await asyncio.sleep(0.05)
            took = cluster.now - crashed
            assert held <= cluster.nodes[2].broadcast.seen_ids(2), took
            assert took < HB_TIMEOUT + 3 * HB_INTERVAL, took
            assert cluster.nodes[1].broadcast.stats()["repairs_sent"] >= 5
            assert cluster.nodes[2].broadcast.stats()["nacks_sent"] == 0
        finally:
            await cluster.close()

    asyncio.run(body())


def test_a_fault_free_saturated_burst_repairs_nothing():
    async def body():
        cluster = LiveCluster(3, base_port=BASE_PORT + 110, streams=4, proxied=False)
        await cluster.start()
        try:
            await asyncio.sleep(0.3)
            addrs = {pid: cluster.client_addr(pid) for pid in range(3)}
            spec = WorkloadSpec(kind="closed", write_ratio=0.9)
            report = await run_load(
                addrs, spec, streams=4, duration=1.5, seed=7, window=8,
                closed=True, codec=wire.CODEC_BINARY,
            )
            assert report.completed > 1000 and report.errors == 0, report
            # let every node's digest of the burst's end go round twice
            await asyncio.sleep(3 * HB_INTERVAL)
            for node in cluster.nodes:
                stats = node.broadcast.stats()
                assert stats["repairs_sent"] == 0, (node.my_pid, stats)
                assert stats["repairs_received"] == 0, (node.my_pid, stats)
                wire_stats = node.transport.wire_stats
                assert wire_stats["dups_dropped"] == 0, wire_stats
        finally:
            await cluster.close()

    asyncio.run(body())


def _record(node, count):
    """Record ``count`` writes straight into ``node``'s recorder."""
    for i in range(count):
        node.recorder.record(
            node.my_pid, Invocation("w", (i % 2, i + 1)), None, float(i), i + 0.5
        )


def test_a_capture_pages_a_row_no_one_frame_can_carry(monkeypatch):
    """A fast run records more of a node's operations than one reply
    frame can carry (~154k at the real ``MAX_FRAME``); the capture asks
    for them page by page and gets all of them, in order."""
    monkeypatch.setattr(wire, "MAX_FRAME", 64 * 1024)

    async def body():
        cluster = LiveCluster(3, base_port=BASE_PORT + 120, streams=2, proxied=False)
        await cluster.start()
        try:
            _record(cluster.nodes[0], 2000)
            whole = {"ok": True, "ops": cluster.nodes[0]._history_page(0)}
            assert len(wire.encode_body(whole)) > wire.MAX_FRAME
            monkeypatch.setattr(ServiceNode, "HISTORY_PAGE", 200)
            addrs = {pid: cluster.client_addr(pid) for pid in range(3)}
            return await capture_history(addrs, 2, 2, criteria=("CCV",))
        finally:
            await cluster.close()

    doc = asyncio.run(body())
    row = doc["processes"][0]
    assert [op["args"] for op in row] == [[i % 2, i + 1] for i in range(2000)]
    assert [op["start"] for op in row] == [float(i) for i in range(2000)]
    assert doc["processes"][1:] == [[], []]


@pytest.mark.parametrize("codec", [wire.CODEC_JSON, wire.CODEC_BINARY])
def test_a_reply_no_frame_can_carry_fails_its_own_call(monkeypatch, codec):
    """It used to raise inside the connection's callback, which closed
    the connection: every call on it failed with ``session closed``."""
    monkeypatch.setattr(wire, "MAX_FRAME", 64 * 1024)

    async def body():
        cluster = LiveCluster(3, base_port=BASE_PORT + 130, streams=2, proxied=False)
        await cluster.start()
        session = ClientSession(cluster.client_addr(0), codec=codec, window=4)
        try:
            _record(cluster.nodes[0], 2000)
            await session.connect()
            big = {"cmd": "history"}  # one page: all 2000
            alone = await session.call(big)
            # batched beside a call whose reply fits: each gets its own
            batched = await asyncio.gather(
                session.call(big), session.call({"cmd": "ping"})
            )
            after = await session.call({"cmd": "history", "since": 1990})
        finally:
            await session.close()
            await cluster.close()
        return alone, batched, after

    alone, (big, ping), after = asyncio.run(body())
    for reply in (alone, big):
        assert reply["ok"] is False and "too large" in reply["error"], reply
    assert ping["ok"] is True
    assert after["ok"] is True and len(after["ops"]) == 10


# ----------------------------------------------------------------------
# A node is one process: one endpoint, peers known from digests only
# ----------------------------------------------------------------------
def _frame(node, frame):
    node.transport._receive_body(wire.encode_body(frame, wire.CODEC_BINARY))


def test_node_hosts_one_endpoint_and_learns_peers_from_digests_only():
    async def body():
        cluster = LiveCluster(3, base_port=BASE_PORT + 40, proxied=False)
        node = cluster.nodes[1]  # never started: frames are fed by hand
        assert list(node.broadcast.endpoints) == [1]
        assert list(node.transport.handlers) == [1]
        endpoint = node.broadcast.endpoints[1]
        view = endpoint.peers
        assert view.remote == {0, 2} and view.rows[1] is endpoint.frontier

        def peer_rows():
            return [list(view.rows[0]), list(view.rows[2])]

        # messages move the node's own row, never a peer's
        for seq in range(3):
            message = {
                "id": (0, seq),
                "origin": 0,
                "payload": (0, 10 + seq, seq + 1, 0),
                "stamp": (seq + 1, 0, 0),
            }
            _frame(node, {"t": "msg", "src": 0, "body": message})
        assert endpoint.frontier == [3, 0, 0]
        assert node.broadcast.delivered_count == 3
        assert peer_rows() == [[0, 0, 0], [0, 0, 0]]
        # a heartbeat's digest moves its sender's row, and only that
        hb = {"kind": "hb", "frontier": [3, 0, 0]}
        _frame(node, {"t": "ctl", "src": 0, "body": hb})
        assert peer_rows() == [[3, 0, 0], [0, 0, 0]]
        # rows are monotone: a stale digest changes nothing
        _frame(node, {"t": "ctl", "src": 0, "body": dict(hb, frontier=[1, 0, 0])})
        _frame(node, {"t": "ctl", "src": 2, "body": dict(hb, frontier=[2, 0, 1])})
        assert peer_rows() == [[3, 0, 0], [2, 0, 1]]
        # the stability frontier is what every row has reached
        node.broadcast.sweep()
        assert stability_frontier(node.broadcast, 1) == [2, 0, 0]
        assert [m["id"] for m in node.broadcast.retained_log(1)] == [(0, 2)]
        await asyncio.sleep(0)  # let the view's heartbeat tasks finish

    asyncio.run(body())


#: `repro status --json` is an interface: dashboards key on these
STATUS_KEYS = {
    "pid", "algorithm", "crashed", "now", "ops", "backlog", "connected",
    "view", "stats", "wire", "tap", "broadcast", "monitor",
}
BROADCAST_STATUS_KEYS = {
    "delivered", "log_sizes", "resync_attempts", "resync_retries",
    "resync_converged", "resync_gave_up", "resyncs_served",
    "resyncs_requested", "repairs_sent", "repairs_received", "nacks_sent",
}


@pytest.mark.parametrize("algorithm", ["ccv-fig5", "pram", "lww"])
def test_status_document_keys_are_pinned(algorithm):
    async def body():
        cluster = LiveCluster(
            3, base_port=BASE_PORT + 50, proxied=False, algorithm=algorithm
        )
        doc = cluster.nodes[0].status()
        assert set(doc) == STATUS_KEYS
        assert set(doc["broadcast"]) == BROADCAST_STATUS_KEYS
        assert set(doc["monitor"]) == {
            "ok", "total", "dropped", "out_of_order", "violations",
        }
        json.dumps(doc)  # what `repro status --json` prints

    asyncio.run(body())


# ----------------------------------------------------------------------
# Bad client requests are answered, not executed
# ----------------------------------------------------------------------
BAD_REQUESTS = [
    {"cmd": "put", "v": 5},  # no stream
    {"cmd": "get", "x": None},
    {"cmd": "put", "x": 99, "v": 5},  # out of range: used to wedge the node
    {"cmd": "put", "x": -1, "v": 5},  # used to alias the last stream
    {"cmd": "put", "x": True, "v": 5},
    {"cmd": "put", "x": 0},  # no value
    {"cmd": "window", "x": "0"},
    {"cmd": "watch", "interval": 0},
    {"cmd": "watch", "interval": float("inf")},
    {"cmd": "status", "since": "0"},
]


def test_bad_client_requests_get_an_error_reply_and_wedge_nothing():
    async def body():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        cluster = LiveCluster(3, base_port=BASE_PORT + 60, streams=2, proxied=False)
        await cluster.start()
        try:
            await asyncio.sleep(0.2)
            addrs = {pid: cluster.client_addr(pid) for pid in range(3)}
            session = ClientSession(addrs[0])
            await session.connect()
            for request in BAD_REQUESTS:
                reply = await session.call(dict(request))
                assert reply["ok"] is False and reply["error"], request
            # same connection, still serving; the write leaves the node
            assert (await session.call({"cmd": "put", "x": 1, "v": 7}))["ok"]
            await session.close()
            for _ in range(40):
                await asyncio.sleep(0.05)
                if await converged_windows(addrs, 2):
                    break
            else:
                pytest.fail("replicas did not converge after the bad requests")
            for pid in range(3):
                window = await client_call(addrs[pid], {"cmd": "window", "x": 1})
                assert 7 in window["value"]
                status = (await client_call(addrs[pid], {"cmd": "status"}))["status"]
                assert status["monitor"]["ok"] and status["ops"] == (pid == 0)
                assert cluster.nodes[pid].broadcast.pending_messages(pid) == 0
            gc.collect()
            await asyncio.sleep(0)
            assert errors == []
        finally:
            await cluster.close()

    asyncio.run(body())


# ----------------------------------------------------------------------
# Any registry algorithm behind real sockets
# ----------------------------------------------------------------------
WAIT_FREE = sorted(key for key, entry in ALGORITHMS.items() if entry.cls.wait_free)
LIVE_CASES = [(key, codec) for key in WAIT_FREE for codec in wire.CODECS]


@pytest.mark.parametrize(
    "case,algorithm,codec",
    [(i, key, codec) for i, (key, codec) in enumerate(LIVE_CASES)],
    ids=[f"{key}-{codec}" for key, codec in LIVE_CASES],
)
def test_every_wait_free_algorithm_serves_a_put_on_the_live_plane(
    case, algorithm, codec
):
    """put on node 0 -> get on node 1 returns it -> windows converge ->
    no causal buffer holds anything -> the loop saw no exception."""

    async def body():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        cluster = LiveCluster(
            3, base_port=7800 + 10 * case, algorithm=algorithm,
            streams=2, proxied=False, codec=codec,
        )
        if ALGORITHMS[algorithm].gossip:
            for node in cluster.nodes:
                node.algorithm.gossip_interval = 0.02
        await cluster.start()
        try:
            await asyncio.sleep(0.2)
            addrs = {pid: cluster.client_addr(pid) for pid in range(3)}
            put = await client_call(addrs[0], {"cmd": "put", "x": 1, "v": 41})
            assert put["ok"], put
            for _ in range(100):
                await asyncio.sleep(0.05)
                seen = await client_call(addrs[1], {"cmd": "get", "x": 1})
                assert seen["ok"], seen
                if 41 in seen["value"] and await converged_windows(addrs, 2):
                    break
            else:
                pytest.fail(f"{algorithm}: the put never reached every node")
            assert await converged_windows(addrs, 2) is True
            for node in cluster.nodes:
                if isinstance(node.broadcast, CausalBroadcast):
                    assert node.broadcast.pending_messages(node.my_pid) == 0
            gc.collect()
            await asyncio.sleep(0)
            assert errors == []
        finally:
            await cluster.close()

    asyncio.run(body())


def test_a_live_gossip_node_speaks_only_for_itself():
    """Every state frame a node sends carries its own pid as source, and
    a round costs one frame — not n under pids the node does not host."""

    async def body():
        rounds = 3
        cluster = LiveCluster(
            3, base_port=BASE_PORT + 70, algorithm="gossip", proxied=False
        )
        for node in cluster.nodes:  # never started: sends are recorded
            sent = []
            node.transport.send = lambda src, dst, payload, sent=sent: sent.append(
                (src, dst, payload[0])
            )
            node.algorithm.gossip_interval = 0.01
            node.algorithm.start_gossip(rounds=rounds)
            for _ in range(100):
                await asyncio.sleep(0.01)
                if node.algorithm.rounds == rounds:
                    break
            await asyncio.sleep(0.03)  # a tick past the budget sends nothing
            assert len(sent) == rounds, sent
            assert {src for src, _dst, _kind in sent} == {node.my_pid}
            assert all(dst != node.my_pid and kind == "state" for _s, dst, kind in sent)

    asyncio.run(body())


def test_a_node_refuses_an_algorithm_that_is_not_wait_free(capsys):
    """The request handler replies synchronously: the sequencer is
    rejected at construction, not on the first operation."""
    with pytest.raises(ValueError, match="'sc-sequencer' is not wait-free"):
        LiveCluster(3, base_port=BASE_PORT + 80, algorithm="sc-sequencer")
    for shape in ([], ["--pid", "1"]):
        assert main(["serve", "--algorithm", "sc-sequencer", *shape]) == 2
        assert "'sc-sequencer' is not wait-free" in capsys.readouterr().err
