"""Transport conformance: one contract, two planes.

The broadcast stack is written against :class:`repro.runtime.transport.
Transport`; this module runs the same behavioural assertions against
every implementation — the simulated :class:`SimTransport` (= the
``Network``/``Simulator`` pair) and the live :class:`AsyncioTransport`
on loopback TCP under both wire codecs (JSON compat and binary, with
frame coalescing on) — so a contract drift between the planes, or
between the codecs, fails a test here before it corrupts a live
classification run.

Covered: point-to-point and multicast delivery with source fidelity,
per-link FIFO order, timer scheduling (delay order), the local/remote
crash surface, duplicate *surfacing* (a duplication fault reaches the
layer above on both planes — with no "seen?" predicate attached, dedup
is the broadcast layer's job, and it must get the same raw stream to
dedup either way), both relays (``direct`` and ``flood``) delivering
each broadcast once at their own message cost, the offered predicate
(``attach_dedup``: a copy of a message its destination already holds
never reaches the handler — skipped at send time on the simulated
plane, on the header peek under the live binary codec; the JSON codec
decodes it and leaves the drop to the handler),
and the control call: one crash → traffic → recover script whose resync
request reaches a helper in-line on the simulated plane and as a control
frame on the live one.
"""

import asyncio

import pytest

from repro.runtime.broadcast import CausalBroadcast
from repro.runtime.monitors import RuntimeMonitor
from repro.runtime.network import DelayModel, Network
from repro.runtime.simulator import Simulator
from repro.runtime.transport import Transport
from repro.service import wire
from repro.service.cluster import port_layout
from repro.service.proxy import FaultProxy
from repro.service.transport import AsyncioTransport

BASE_PORT = 7610


# ----------------------------------------------------------------------
# Worlds: build n transports, deliver, tear down
# ----------------------------------------------------------------------
class SimWorld:
    """All n pids share one SimTransport over a deterministic delay."""

    plane = "sim"

    def __init__(self, n: int, duplicate_rate: float = 0.0) -> None:
        self.n = n
        self.sim = Simulator(seed=1)
        self.net = Network(self.sim, n, delay=DelayModel.constant(0.05))
        if duplicate_rate:
            self.net.set_duplicate_rate(duplicate_rate)

    def transport(self, pid: int) -> Transport:
        return self.net

    def send(self, src: int, dst: int, payload) -> None:
        self.net.send(src, dst, payload)

    def multicast(self, src: int, payload) -> None:
        self.net.multicast(src, payload)

    def crash(self, pid: int) -> None:
        self.net.crash(pid)

    def recover(self, pid: int) -> None:
        self.net.recover(pid)

    async def settle(self, seconds: float = 1.0) -> None:
        self.sim.run()

    async def close(self) -> None:
        pass


class LiveWorld:
    """n AsyncioTransports on loopback, optionally behind fault proxies.

    ``codec`` picks the wire encoding (the contract must hold over both
    the JSON compat codec and the binary codec — same raw stream above).
    """

    plane = "live"

    def __init__(
        self,
        n: int,
        duplicate_rate: float = 0.0,
        codec: str = wire.CODEC_BINARY,
    ) -> None:
        self.n = n
        self.duplicate_rate = duplicate_rate
        self.codec = codec
        proxied = duplicate_rate > 0
        self.layout = port_layout(n, BASE_PORT, proxied=proxied)
        self.proxies = []
        if proxied:
            self.proxies = [
                FaultProxy(
                    pid,
                    listen=self.layout["proxy"][pid],
                    upstream=self.layout["peer"][pid],
                    seed=1,
                )
                for pid in range(n)
            ]
        self.transports = [
            AsyncioTransport(
                pid,
                addrs=self.layout["dial"],
                my_addr=self.layout["peer"][pid],
                seed=1,
                codec=codec,
            )
            for pid in range(n)
        ]

    async def start(self) -> None:
        for proxy in self.proxies:
            proxy.set_duplicate_rate(self.duplicate_rate)
            await proxy.start()
        for transport in self.transports:
            await transport.start()

    def transport(self, pid: int) -> Transport:
        return self.transports[pid]

    def send(self, src: int, dst: int, payload) -> None:
        self.transports[src].send(src, dst, payload)

    def multicast(self, src: int, payload) -> None:
        self.transports[src].multicast(src, payload)

    def crash(self, pid: int) -> None:
        self.transports[pid].crashed_local = True

    def recover(self, pid: int) -> None:
        self.transports[pid].crashed_local = False

    async def settle(self, seconds: float = 1.0) -> None:
        await asyncio.sleep(seconds)

    async def close(self) -> None:
        for transport in self.transports:
            await transport.close()
        for proxy in self.proxies:
            await proxy.close()


async def make_world(plane: str, n: int, duplicate_rate: float = 0.0):
    if plane == "sim":
        return SimWorld(n, duplicate_rate=duplicate_rate)
    codec = wire.CODEC_JSON if plane == "live-json" else wire.CODEC_BINARY
    world = LiveWorld(n, duplicate_rate=duplicate_rate, codec=codec)
    await world.start()
    return world


def attach_recorders(world, n):
    """Per-pid delivery logs of (src, payload)."""
    logs = {pid: [] for pid in range(n)}

    def handler_for(pid):
        def handler(src, payload):
            logs[pid].append((src, payload))

        return handler

    for pid in range(n):
        world.transport(pid).attach(pid, handler_for(pid))
    return logs


def run(coro):
    return asyncio.run(coro)


PLANES = ("sim", "live-json", "live-binary")


# ----------------------------------------------------------------------
# Delivery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("plane", PLANES)
def test_send_delivers_with_source_fidelity(plane):
    async def body():
        world = await make_world(plane, 3)
        logs = attach_recorders(world, 3)
        world.send(0, 1, {"op": "x", "seq": 1})
        world.send(2, 1, {"op": "y", "seq": 2})
        await world.settle()
        await world.close()
        assert sorted(logs[1]) == [
            (0, {"op": "x", "seq": 1}),
            (2, {"op": "y", "seq": 2}),
        ]
        assert logs[0] == [] and logs[2] == []

    run(body())


@pytest.mark.parametrize("plane", PLANES)
def test_multicast_reaches_every_other_pid_once(plane):
    async def body():
        world = await make_world(plane, 4)
        logs = attach_recorders(world, 4)
        world.multicast(1, "hello")
        await world.settle()
        await world.close()
        assert logs[1] == []  # no self-delivery at the transport level
        for pid in (0, 2, 3):
            assert logs[pid] == [(1, "hello")]

    run(body())


@pytest.mark.parametrize("plane", PLANES)
def test_per_link_fifo_order(plane):
    """Messages on one (src, dst) link arrive in send order — the
    property the causal layers' contiguous sequence numbers lean on."""

    async def body():
        world = await make_world(plane, 2)
        logs = attach_recorders(world, 2)
        for i in range(50):
            world.send(0, 1, i)
        await world.settle()
        await world.close()
        assert [payload for _src, payload in logs[1]] == list(range(50))

    run(body())


# ----------------------------------------------------------------------
# Timers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("plane", PLANES)
def test_timers_fire_in_delay_order(plane):
    async def body():
        world = await make_world(plane, 2)
        transport = world.transport(0)
        fired = []
        transport.schedule(0.30, fired.append, "late")
        transport.schedule(0.05, fired.append, "early")
        transport.schedule(0.10, fired.append, "middle")
        await world.settle(1.0)
        assert fired == ["early", "middle", "late"]
        await world.close()

    run(body())


@pytest.mark.parametrize("plane", PLANES)
def test_now_advances_monotonically(plane):
    async def body():
        world = await make_world(plane, 2)
        transport = world.transport(0)
        t0 = transport.now
        stamps = []
        transport.schedule(0.05, lambda: stamps.append(transport.now))
        transport.schedule(0.10, lambda: stamps.append(transport.now))
        await world.settle(0.5)
        await world.close()
        assert len(stamps) == 2
        assert t0 <= stamps[0] <= stamps[1]

    run(body())


# ----------------------------------------------------------------------
# Crash surface
# ----------------------------------------------------------------------
@pytest.mark.parametrize("plane", PLANES)
def test_crashed_node_neither_sends_nor_receives(plane):
    async def body():
        world = await make_world(plane, 3)
        logs = attach_recorders(world, 3)
        world.crash(1)
        assert world.transport(1).is_crashed(1)
        world.send(0, 1, "to-crashed")  # dropped at/for pid 1
        world.send(1, 2, "from-crashed")  # crashed pid cannot send
        await world.settle()
        assert logs[1] == [] and logs[2] == []
        world.recover(1)
        assert not world.transport(1).is_crashed(1)
        world.send(0, 1, "after-recover")
        await world.settle()
        await world.close()
        assert logs[1] == [(0, "after-recover")]

    run(body())


# ----------------------------------------------------------------------
# Duplicate surfacing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("plane", PLANES)
def test_duplication_fault_surfaces_to_the_layer_above(plane):
    """With the duplication dial at 1.0 (sim network dial / live fault
    proxy), every message reaches the handler twice: the transport makes
    no dedup promise, so the broadcast layer must see the same raw
    duplicate stream on either plane."""

    async def body():
        world = await make_world(plane, 2, duplicate_rate=1.0)
        logs = attach_recorders(world, 2)
        for i in range(5):
            world.send(0, 1, i)
        await world.settle()
        await world.close()
        payloads = sorted(payload for _src, payload in logs[1])
        assert payloads == sorted(list(range(5)) * 2)

    run(body())


@pytest.mark.parametrize("plane", ("sim", "live-binary"))
def test_a_copy_the_destination_already_holds_never_reaches_its_handler(plane):
    """With a predicate attached that holds ``(0, 0)``, neither a unicast
    nor a multicast copy of that message reaches pid 1's handler; a
    message it does not hold still does."""

    async def body():
        world = await make_world(plane, 2)
        logs = attach_recorders(world, 2)
        world.transport(1).attach_dedup(1, {(0, 0)}.__contains__)
        held = {"id": (0, 0), "origin": 0, "payload": "held"}
        fresh = {"id": (0, 1), "origin": 0, "payload": "fresh"}
        world.send(0, 1, held)
        world.multicast(0, held)
        world.send(0, 1, fresh)
        await world.settle()
        await world.close()
        assert logs[1] == [(0, fresh)]
        if plane == "sim":
            assert world.net.stats.elided == 2
        else:
            assert world.transport(1).wire_stats["dups_dropped"] == 2

    run(body())


# ----------------------------------------------------------------------
# Both relays over both planes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("plane", PLANES)
@pytest.mark.parametrize("relay", ("direct", "flood"))
def test_each_relay_delivers_every_broadcast_once(relay, plane):
    """A broadcast reaches every process once, in causal order, over
    either relay on either plane.  Fault-free, a direct broadcast costs
    n-1 copies and the flood n(n-1): on the simulated plane as sends
    (an elided copy counts), on the live one as message frames read,
    because a live node decodes or drops every copy it is sent."""

    async def body():
        n = 3
        world = await make_world(plane, n)
        services, logs = {}, {pid: [] for pid in range(n)}
        for pid in range(n):
            transport = world.transport(pid)
            service = services.get(id(transport))
            if service is None:
                service = services[id(transport)] = CausalBroadcast(
                    transport, relay=relay
                )
                service.monitor = RuntimeMonitor(n, sim=transport)
            service.endpoint(pid, lambda origin, p, me=pid: logs[me].append(p))
        for i in range(3):
            for pid in range(n):
                services[id(world.transport(pid))].broadcast(pid, (pid, i))
        await world.settle(0.5)
        await world.close()
        for pid in range(n):
            assert sorted(logs[pid]) == sorted(
                (q, i) for q in range(n) for i in range(3)
            )
            for q in range(n):
                assert [i for o, i in logs[pid] if o == q] == [0, 1, 2]
        for service in services.values():
            assert service.monitor.ok, service.monitor.summary()
            assert service.repairs_sent == 0
        copies = (n - 1) * (n if relay == "flood" else 1) * 3 * n
        if plane == "sim":
            assert world.net.stats.sent == copies
        else:
            assert copies == sum(
                world.transport(pid).wire_stats["msg_frames_in"]
                for pid in range(n)
            )

    run(body())


# ----------------------------------------------------------------------
# The control call: resync request -> serve, one script on both planes
# ----------------------------------------------------------------------
def broadcast_stacks(world, n):
    """One ``CausalBroadcast`` per transport — so one for the simulated
    world, hosting all n endpoints, and n single-endpoint ones live —
    with per-pid delivery logs and a monitor each."""
    services, logs = {}, {pid: [] for pid in range(n)}
    for pid in range(n):
        transport = world.transport(pid)
        service = services.get(id(transport))
        if service is None:
            service = services[id(transport)] = CausalBroadcast(transport)
            service.GC_INTERVAL = 4
            service.RESYNC_TIMEOUT = 0.25
            service.monitor = RuntimeMonitor(n, sim=transport)
        service.endpoint(pid, lambda origin, p, me=pid: logs[me].append(p))
    by_pid = [services[id(world.transport(pid))] for pid in range(n)]
    return by_pid, logs


def gossip_digests(world, services):
    """What a node's heartbeat does: every live remote peer learns each
    endpoint's digest.  Hosted peers need none — their rows are aliased."""
    for pid, service in enumerate(services):
        transport = world.transport(pid)
        body = service.endpoints[pid].digest()
        for dst in range(world.n):
            if dst != pid and dst not in transport.hosted:
                transport.control(pid, dst, dict(body, kind="hb"))


@pytest.mark.parametrize("plane", PLANES)
def test_crash_traffic_recover_resyncs_through_the_control_call(plane):
    async def body():
        n = 3
        world = await make_world(plane, n)
        services, logs = broadcast_stacks(world, n)
        hosts = 1 if plane == "sim" else n
        assert len({id(s) for s in services}) == hosts
        assert all(len(s.endpoints) == n // hosts for s in services)

        async def round_of(senders, tag):
            for pid in senders:
                for i in range(4):
                    services[pid].broadcast(pid, (tag, pid, i))
            await world.settle(0.25)
            gossip_digests(world, services)
            await world.settle(0.15)
            for service in set(services):
                service.sweep()

        await round_of(range(n), "all")  # seen by everyone: pruned
        assert all(s.gc_pruned > 0 for s in services)
        world.crash(2)
        await round_of((0, 1), "missed")  # 2's frozen row retains these
        assert [m for m in logs[2] if m[0] == "missed"] == []
        for helper in (0, 1):
            retained = {m["id"] for m in services[helper].retained_log(helper)}
            assert {(p, i) for p in (0, 1) for i in range(4, 8)} <= retained
        world.recover(2)
        gossip_digests(world, services)  # the rejoiner hears its peers
        await world.settle(0.15)
        services[2].start_resync(2)
        await world.settle(0.6)  # past the RESYNC_TIMEOUT check
        await world.close()

        assert services[2].seen_ids(2) == services[0].seen_ids(0)
        assert sorted(logs[2]) == sorted(logs[0]) and len(logs[0]) == 20
        assert services[2].resync_attempts >= 1
        assert services[2].resync_converged == 1
        assert services[2].resync_gave_up == 0
        assert services[2].resyncs_requested >= 1
        assert sum(s.resyncs_served for s in set(services)) >= 1
        for service in set(services):
            assert service.monitor.ok, service.monitor.summary()

    run(body())
