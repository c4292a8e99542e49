"""The live plane's sockets call their handlers.

Each of the three TCP hops — a client's :class:`ClientSession`, a node's
client connection, a node's inbound peer connection — is an
``asyncio.Protocol``: bytes go from ``data_received`` through one
:class:`~repro.service.wire.FrameSplitter` to the code that handles
them, and no task runs per connection.  These tests pin what that
plumbing owes:

* **hostile bytes** — an oversize length prefix, a garbage body, a peer
  frame before the hello, a truncated frame followed by EOF and a peer
  frame carrying a former lazy-push body close that one connection on
  each hop; a bystander client's calls still
  complete and the loop's exception handler hears nothing;
* **a stalled reader** — a client that stops reading its replies stops
  its own connection's intake (the socket's write buffer stays under
  its mark plus one reply write) and only its own, and everything it
  asked for arrives, in order, once it reads again;
* **a peer backlog** — a put that meets a peer queue over
  ``HIGH_WATER`` pauses that connection's intake, requests pipelined
  behind it included, until the backlog drains;
* **no tasks per connection** — opening eight sessions on a 3-node
  cluster and calling through them leaves no new asyncio task running,
  and none is left after ``cluster.close()``; a ``watch`` is the one
  command that runs a task, and it ends with its connection.
"""

import asyncio
import socket
import struct

from repro.service import wire
from repro.service.cluster import ClientSession, LiveCluster, client_call
from repro.service.view import HB_INTERVAL

BASE_PORT = 7500
HOST = "127.0.0.1"

#: the four ways a connection's bytes go wrong, as wire bytes
OVERSIZE = struct.pack(">I", wire.MAX_FRAME + 1)  # no body needed
GARBAGE = wire.frame(b"\xb1\x0e\x05")  # a tuple cut short


def truncated(frame: bytes) -> bytes:
    return frame[: len(frame) - 3]


def catching_errors():
    errors = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: errors.append(context)
    )
    return errors


async def closed_by_far_end(addr, payload: bytes, eof: bool = False) -> bool:
    """Write ``payload`` (then EOF); did the far end close on us?"""
    reader, writer = await asyncio.open_connection(*addr)
    try:
        writer.write(payload)
        if eof:
            writer.write_eof()
        await writer.drain()
        return await asyncio.wait_for(reader.read(), 2.0) == b""
    finally:
        writer.close()


async def bystander_calls(session: ClientSession, count: int = 20) -> None:
    replies = await asyncio.gather(
        *(session.call({"cmd": "get", "x": 0}, timeout=2.0) for _ in range(count))
    )
    assert all(reply["ok"] for reply in replies), replies


def test_hostile_bytes_close_only_their_connection_on_every_hop():
    async def body():
        errors = catching_errors()
        cluster = LiveCluster(2, base_port=BASE_PORT, seed=5, proxied=False)
        await cluster.start()
        bystander = ClientSession(
            cluster.client_addr(0), codec=wire.CODEC_BINARY, window=4
        )
        await bystander.connect()
        try:
            await asyncio.sleep(0.2)
            client, peer = cluster.client_addr(0), cluster.layout["peer"][0]
            hello = wire.encode({"t": "hello", "src": 1, "codec": "binary"})
            message = wire.encode(
                {
                    "t": "msg",
                    "src": 1,
                    "body": {
                        "id": (1, 0),
                        "origin": 1,
                        "payload": (0, 555, 1, 1),
                        "stamp": (0, 1),
                    },
                },
                wire.CODEC_BINARY,
            )
            put = wire.encode(
                {"cmd": "put", "x": 0, "v": 444, "rid": 1}, wire.CODEC_BINARY
            )
            # bodies the lazy push sent: no broadcast message any more
            former = [
                wire.encode({"t": "msg", "src": 1, "body": lazy}, wire.CODEC_BINARY)
                for lazy in (
                    {"kind": "adv", "ids": ((1, 0),)},
                    {"kind": "pull", "mid": (0, 0)},
                    {"kind": "pull-reply", "body": {
                        "id": (1, 0), "origin": 1,
                        "payload": (0, 555, 1, 1), "stamp": (0, 1),
                    }},
                )
            ]
            cases = [
                (client, OVERSIZE, False),
                (client, GARBAGE, False),
                (client, truncated(put), True),
                (peer, hello + OVERSIZE, False),
                (peer, hello + GARBAGE, False),
                (peer, message, False),  # a peer frame before the hello
                (peer, hello + truncated(message), True),
                *((peer, hello + lazy, False) for lazy in former),
            ]
            for addr, payload, eof in cases:
                hostile = asyncio.ensure_future(closed_by_far_end(addr, payload, eof))
                await bystander_calls(bystander)
                assert await hostile, (addr, payload)
            # nothing of the truncated put, of the message that came
            # before a hello or was cut short, or of the pull-reply
            # that carried it, reached the replica
            window = await client_call(client, {"cmd": "window", "x": 0})
            assert window["value"] == (0, 0), window

            # the session's own hop: a server that answers in kind
            for reply_bytes in (OVERSIZE, GARBAGE, truncated(GARBAGE + GARBAGE)):

                async def hostile_server(reader, writer, reply_bytes=reply_bytes):
                    await wire.read_body(reader)
                    writer.write(reply_bytes)
                    writer.write_eof()
                    await writer.drain()
                    writer.close()

                server = await asyncio.start_server(
                    hostile_server, HOST, BASE_PORT + 9
                )
                session = ClientSession((HOST, BASE_PORT + 9), window=2)
                await session.connect()
                try:
                    call = asyncio.ensure_future(
                        session.call({"cmd": "ping"}, timeout=2.0)
                    )
                    await bystander_calls(bystander)
                    try:
                        await call
                    except ConnectionError:
                        pass
                    else:
                        raise AssertionError(f"no error on {reply_bytes!r}")
                    assert session._pending == {}
                finally:
                    await session.close()
                    server.close()
                    await server.wait_closed()
            await bystander_calls(bystander)
        finally:
            await bystander.close()
            await cluster.close()
        assert errors == []

    asyncio.run(body())


def test_a_client_that_stops_reading_stalls_only_its_own_connection():
    async def body():
        errors = catching_errors()
        cluster = LiveCluster(2, base_port=BASE_PORT + 12, seed=6, proxied=False)
        await cluster.start()
        node = cluster.nodes[0]
        addr = cluster.client_addr(0)
        bystander = ClientSession(addr, codec=wire.CODEC_BINARY)
        await bystander.connect()
        sock = socket.socket()
        try:
            big = "v" * 100_000
            for _ in range(2):  # each get now answers ~200 kB
                assert (await client_call(addr, {"cmd": "put", "x": 0, "v": big}))["ok"]
            total = 300
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(sock, addr)
            reader, writer = await asyncio.open_connection(sock=sock)
            writer.write(
                b"".join(
                    wire.encode({"cmd": "get", "x": 0, "rid": rid}, wire.CODEC_BINARY)
                    for rid in range(total)
                )
            )
            await writer.drain()
            # the node answers until the socket's buffer passes its mark,
            # then reads nothing more from this connection
            stats = node.client_stats
            seen, still = -1, 0
            while still < 5:
                await asyncio.sleep(0.05)
                still = still + 1 if stats["client_frames_in"] == seen else 0
                seen = stats["client_frames_in"]
            (conn,) = [c for c in node._clients if c.sock.get_write_buffer_size()]
            low, high = conn.sock.get_write_buffer_limits()
            assert conn.sock.get_write_buffer_size() < high + 210_000
            answered = stats["client_frames_in"] - 2  # less the two puts
            assert answered < total // 2, answered
            # ...while everyone else is served as ever
            for _ in range(50):
                assert (await bystander.call({"cmd": "get", "x": 1}, timeout=1.0))["ok"]
            assert stats["client_frames_in"] - 2 - 50 == answered
            # reading again resumes it: every reply, in order
            for rid in range(total):
                reply = wire.decode(await asyncio.wait_for(wire.read_body(reader), 5.0))
                assert reply["rid"] == rid and reply["value"] == (big, big)
            writer.close()
        finally:
            sock.close()
            await bystander.close()
            await cluster.close()
        assert errors == []

    asyncio.run(body())


def test_a_peer_backlog_pauses_client_intake_until_it_drains():
    async def body():
        errors = catching_errors()
        cluster = LiveCluster(2, base_port=BASE_PORT + 24, seed=7, proxied=False)
        node, peer = cluster.nodes
        transport = node.transport
        await node.start()  # its peer is not up: node 0's queue only grows
        session = ClientSession(node.client_addr, codec=wire.CODEC_BINARY, window=4)
        other = ClientSession(node.client_addr, codec=wire.CODEC_BINARY)
        await session.connect()
        await other.connect()
        try:
            # each put queues a frame for the peer (heartbeats add more)
            # until one finds the queue over the mark and is held
            for v in range(2 * transport.HIGH_WATER):
                held = asyncio.ensure_future(
                    session.call({"cmd": "put", "x": 1, "v": v}, timeout=20.0)
                )
                done, _ = await asyncio.wait([held], timeout=0.3)
                if not done:
                    break
                assert held.result()["ok"]
            assert transport.backlog() > transport.HIGH_WATER
            behind = asyncio.ensure_future(
                session.call({"cmd": "get", "x": 1}, timeout=20.0)
            )
            await asyncio.sleep(0.5)
            assert not held.done() and not behind.done()
            # another connection's reads are served meanwhile
            got = await other.call({"cmd": "get", "x": 1}, timeout=1.0)
            assert got["value"] == (v - 2, v - 1)
            await peer.start()  # the link comes up and the queue drains
            assert (await asyncio.wait_for(held, 15.0))["ok"]
            assert (await asyncio.wait_for(behind, 1.0))["value"] == (v - 1, v)
            assert transport.backlog() <= transport.HIGH_WATER
        finally:
            await session.close()
            await other.close()
            await cluster.close()
        assert errors == []

    asyncio.run(body())


def test_connections_cost_no_tasks():
    """No task of the node's starts while clients connect, call and the
    nodes beat: every task created in the window is counted as it is
    created, so a short-lived one (a task per heartbeat) counts as much
    as an idle one."""

    async def body():
        loop = asyncio.get_running_loop()
        created = []

        def counting(loop, coro, **kwargs):
            created.append(getattr(coro, "__qualname__", repr(coro)))
            return asyncio.Task(coro, loop=loop, **kwargs)

        cluster = LiveCluster(3, base_port=BASE_PORT + 33, seed=8, proxied=False)
        await cluster.start()
        # nodes start one after another, so a node's first dial to a
        # peer not yet listening waits out a back-off, and its retry's
        # accept may land in the window below: count from when every
        # link is up, not after a fixed sleep a loaded host outlasts
        for _ in range(200):
            if all(all(node.transport.connected.values()) for node in cluster.nodes):
                break
            await asyncio.sleep(0.025)
        sessions = []
        loop.set_task_factory(counting)
        try:
            for i in range(8):
                session = ClientSession(
                    cluster.client_addr(i % 3),
                    codec=wire.CODECS[i % 2],
                    window=1 + 3 * (i % 2),
                )
                await session.connect()
                sessions.append(session)
            # the event loop accepts each connection in a task of its own
            assert len(created) == 8
            assert all("_accept_connection" in name for name in created), created
            created.clear()
            for session in sessions:
                for _ in range(5):
                    reply = await session.call({"cmd": "put", "x": 1, "v": 3})
                    assert reply["ok"]
            # every node sends and hears a few heartbeats in the window
            await asyncio.sleep(3 * HB_INTERVAL)
            assert created == []
        finally:
            loop.set_task_factory(None)
            for session in sessions:
                await session.close()
            await cluster.close()
        await asyncio.sleep(0)
        assert asyncio.all_tasks() == {asyncio.current_task()}

    asyncio.run(body())


def test_a_watch_streams_from_a_task_of_its_own_until_its_client_leaves():
    async def body():
        errors = catching_errors()
        cluster = LiveCluster(2, base_port=BASE_PORT + 45, seed=9, proxied=False)
        await cluster.start()
        node = cluster.nodes[0]
        try:
            reader, writer = await asyncio.open_connection(*node.client_addr)
            writer.write(wire.encode({"cmd": "watch", "interval": 0.02, "rid": 4}))
            writer.write(wire.encode({"cmd": "ping", "rid": 5}))
            frames = [
                wire.decode(await asyncio.wait_for(wire.read_body(reader), 2.0))
                for _ in range(4)
            ]
            # the watch runs beside the connection: a later request on it
            # is still answered
            assert {"ok": True, "pid": 0, "rid": 5} in frames
            watched = [f for f in frames if f["rid"] == 4]
            assert len(watched) == 3 and all(f["status"]["pid"] == 0 for f in watched)
            (conn,) = node._clients
            assert len(conn.tasks) == 1
            writer.close()
            for _ in range(50):
                await asyncio.sleep(0.02)
                if not node._clients and not conn.tasks:
                    break
            assert not node._clients and not conn.tasks
        finally:
            await cluster.close()
        assert errors == []

    asyncio.run(body())
