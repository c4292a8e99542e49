"""The client hop on a live node: session deadlines, dead sessions and
the request boundary under both spellings of a packed frame.

:class:`ClientSession` keeps one loop timer per session instead of one
``asyncio.wait_for`` per call, and the binary codec packs ``put``/``get``
and their ``ok`` replies into fixed headers.  Neither may be observable:

* **timeouts** — against a server that never answers, a call times out
  at its own ``timeout`` (not on a polling grid), a short timeout issued
  after a long one fires first, nothing stays in ``_pending``, and any
  number of in-flight or sequential calls keep at most one timer handle
  of the session on the loop;
* **dead sessions** — ``close()``, an EOF or a garbage reply fails every
  in-flight call with ``ConnectionError`` at once (it used to strand them
  until their timeout), calls queued for a window slot included, and a
  dead session refuses new calls;
* **refused requests** — a request the codec cannot encode fails its
  own call at once, pipelined or not, and the session keeps serving;
* **the boundary** — on a 3-node cluster the packed and the generic-TLV
  spelling of the same request get equal replies (a put, a get, an
  out-of-range stream, a missing value), a put still waits out
  backpressure, ``status()["wire"]`` says how many client frames came in
  packed, and duplicate, ``bool``, non-int and ≥ 2³² rids are echoed in
  well-formed replies while the node keeps serving with nothing on the
  loop's exception handler.
"""

import asyncio

import pytest

from repro.service import wire
from repro.service.cluster import ClientSession, LiveCluster, client_call

BASE_PORT = 7560
HOST = "127.0.0.1"


def timers(live_only=True):
    """Timer handles in the running loop's heap — in these tests only a
    session puts any there."""
    return [
        handle
        for handle in asyncio.get_running_loop()._scheduled
        if not (live_only and handle.cancelled())
    ]


async def silent(reader, writer):
    await reader.read()  # swallow requests, never answer
    writer.close()


async def acking(reader, writer):
    try:
        while True:
            body = await wire.read_body(reader)
            subs = wire.split_batch(body) if wire.is_batch(body) else [body]
            writer.write(
                wire.encode_batch(
                    [
                        wire.encode_body(
                            {"ok": True, "rid": wire.decode(sub)["rid"]},
                            wire.body_codec(sub),
                        )
                        for sub in subs
                    ]
                )
            )
            await writer.drain()
    except (asyncio.IncompleteReadError, OSError):
        writer.close()


def run_against(handler, port, scenario, **session_args):
    """Run ``scenario(session)`` against a one-handler server."""

    async def body():
        server = await asyncio.start_server(handler, HOST, port)
        session = ClientSession((HOST, port), **session_args)
        await session.connect()
        try:
            await scenario(session)
        finally:
            await session.close()
            await asyncio.sleep(0.02)  # let the server side see the EOF
            server.close()
            await server.wait_closed()

    asyncio.run(body())


# ----------------------------------------------------------------------
# Deadlines: one timer per session
# ----------------------------------------------------------------------
@pytest.mark.parametrize("window", [1, 4])
def test_a_call_times_out_at_its_own_timeout(window):
    async def scenario(session):
        loop = asyncio.get_running_loop()
        start = loop.time()
        with pytest.raises(asyncio.TimeoutError):
            await session.call({"cmd": "ping"}, timeout=0.05)
        took = loop.time() - start
        assert 0.05 <= took <= 0.05 + 0.05, took
        assert session._pending == {}

    run_against(silent, BASE_PORT, scenario, window=window)


def test_a_short_timeout_issued_after_a_long_one_fires_first():
    async def scenario(session):
        loop = asyncio.get_running_loop()
        start = loop.time()
        done_at = {}

        async def timed(name, timeout):
            with pytest.raises(asyncio.TimeoutError):
                await session.call({"cmd": "ping"}, timeout=timeout)
            done_at[name] = loop.time() - start

        long = loop.create_task(timed("long", 0.3))
        await asyncio.sleep(0.01)
        short = loop.create_task(timed("short", 0.05))
        await asyncio.gather(long, short)
        assert list(done_at) == ["short", "long"]
        assert 0.06 <= done_at["short"] <= 0.06 + 0.05, done_at
        assert 0.3 <= done_at["long"] <= 0.3 + 0.05, done_at
        assert session._pending == {}

    run_against(silent, BASE_PORT + 1, scenario, window=4)


def test_in_flight_calls_share_one_timer():
    async def scenario(session):
        # later calls with earlier deadlines: each one re-arms
        calls = [
            asyncio.ensure_future(
                session.call({"cmd": "ping"}, timeout=0.3 - 0.02 * i)
            )
            for i in range(8)
        ]
        await asyncio.sleep(0.02)
        assert len(session._pending) == 8
        assert len(timers()) == 1
        results = await asyncio.gather(*calls, return_exceptions=True)
        assert all(isinstance(r, asyncio.TimeoutError) for r in results)
        assert session._pending == {} and timers() == []

    run_against(silent, BASE_PORT + 2, scenario, window=8)


def test_sequential_calls_leave_at_most_one_timer_handle():
    async def scenario(session):
        # a process always has some earlier timer pending (a heartbeat),
        # and the loop only sheds cancelled handles from the heap's head
        heartbeat = asyncio.get_running_loop().call_later(5.0, lambda: None)
        most = 0
        for _ in range(10_000):
            reply = await session.call({"cmd": "get", "x": 0})
            assert reply["ok"]
            # cancelled handles counted too: wait_for left one per call
            most = max(most, len(timers(live_only=False)))
        assert most <= 2  # the heartbeat and the session's one
        assert session._pending == {}
        heartbeat.cancel()

    run_against(acking, BASE_PORT + 3, scenario, codec=wire.CODEC_BINARY)


# ----------------------------------------------------------------------
# Dead sessions fail their callers at once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("window", [1, 4])
def test_close_fails_in_flight_and_queued_calls(window):
    async def scenario(session):
        loop = asyncio.get_running_loop()
        # more calls than window slots: the rest wait on the semaphore
        calls = [
            asyncio.ensure_future(session.call({"cmd": "ping"}, timeout=3.0))
            for _ in range(window + 2)
        ]
        await asyncio.sleep(0.05)
        assert len(session._pending) == window
        closed_at = loop.time()
        await session.close()
        results = await asyncio.wait_for(
            asyncio.gather(*calls, return_exceptions=True), 1.0
        )
        assert loop.time() - closed_at < 0.1
        assert all(isinstance(r, ConnectionError) for r in results), results
        assert session._pending == {} and timers() == []
        with pytest.raises(ConnectionError):
            await session.call({"cmd": "ping"}, timeout=3.0)

    run_against(silent, BASE_PORT + 4, scenario, window=window)


def test_a_call_after_the_server_hung_up_is_refused_at_once():
    async def hangs_up(reader, writer):
        writer.close()

    async def scenario(session):
        loop = asyncio.get_running_loop()
        await asyncio.sleep(0.05)  # the read pump sees the EOF
        start = loop.time()
        with pytest.raises(ConnectionError):
            await session.call({"cmd": "ping"}, timeout=3.0)
        assert loop.time() - start < 0.1
        assert session._pending == {} and timers() == []

    run_against(hangs_up, BASE_PORT + 5, scenario)


def test_a_request_the_codec_refuses_fails_its_own_call_at_once():
    """A pipelined call encodes its request before it queues it, so the
    codec's refusal raises from that call — not from the loop-pass flush
    into the loop's exception handler, which left the call to wait out
    its whole timeout — and the session keeps serving."""

    async def scenario(session):
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _loop, context: errors.append(context))
        start = loop.time()
        with pytest.raises(TypeError):
            await session.call({"cmd": "put", "x": 0, "v": object()}, timeout=5.0)
        assert loop.time() - start < 0.5
        await asyncio.sleep(0.05)  # any flush the call scheduled has run
        assert errors == [] and session._pending == {}
        assert (await session.call({"cmd": "ping"}, timeout=1.0))["ok"]
        assert errors == []

    run_against(
        acking, BASE_PORT + 6, scenario, codec=wire.CODEC_BINARY, window=4
    )


# ----------------------------------------------------------------------
# The request boundary on a live cluster
# ----------------------------------------------------------------------
def generic_tlv(frame):
    """``frame`` as the binary codec spells a dict it does not pack."""
    out = bytearray((wire.MAGIC_BINARY,))
    wire._enc_value(frame, out)
    return bytes(out)


async def exchange(addr, frames):
    """Send each wire frame on one connection; the reply body to each."""
    reader, writer = await asyncio.open_connection(*addr)
    try:
        replies = []
        for frame in frames:
            writer.write(frame)
            await writer.drain()
            replies.append(await asyncio.wait_for(wire.read_body(reader), 2.0))
        return replies
    finally:
        writer.close()


def live_cluster(port, scenario):
    async def body():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        cluster = LiveCluster(3, base_port=port, streams=2, proxied=False)
        await cluster.start()
        try:
            await asyncio.sleep(0.2)
            await scenario(cluster)
            # still serving, and the write leaves the node
            addr = cluster.client_addr(0)
            assert (await client_call(addr, {"cmd": "put", "x": 0, "v": 99}))["ok"]
            for _ in range(40):
                await asyncio.sleep(0.05)
                seen = await client_call(
                    cluster.client_addr(2), {"cmd": "window", "x": 0}
                )
                if 99 in seen["value"]:
                    break
            else:
                pytest.fail("write did not propagate")
            assert all(node.status()["monitor"]["ok"] for node in cluster.nodes)
        finally:
            await cluster.close()
        assert errors == []

    asyncio.run(body())


STREAM_ERROR = "x must be an int in [0, 2)"
#: (request, does it pack, the reply both spellings must get)
SPELLINGS = [
    ({"cmd": "put", "x": 1, "v": 77, "rid": 5}, True, {"ok": True, "rid": 5}),
    (
        {"cmd": "get", "x": 1, "rid": 6},
        True,
        {"ok": True, "value": (77, 77), "rid": 6},  # each put ran twice
    ),
    (
        {"cmd": "get", "x": 60000, "rid": 7},
        True,
        {"ok": False, "error": STREAM_ERROR, "rid": 7},
    ),
    (
        {"cmd": "put", "x": 70000, "v": 1, "rid": 8},
        False,  # past the header's u16: generic TLV either way
        {"ok": False, "error": STREAM_ERROR, "rid": 8},
    ),
    (
        {"cmd": "put", "x": 1, "rid": 9},
        False,
        {"ok": False, "error": "put needs a value v", "rid": 9},
    ),
]


def test_packed_and_tlv_spellings_get_equal_replies():
    async def scenario(cluster):
        node = cluster.nodes[0]
        for request, packs, expected in SPELLINGS:
            spellings = [
                wire.encode_body(request, wire.CODEC_BINARY),
                generic_tlv(request),
            ]
            assert (spellings[0][0] == wire.MAGIC_REQUEST) == packs, request
            assert spellings[1][0] == wire.MAGIC_BINARY
            assert wire.decode(spellings[0]) == wire.decode(spellings[1])
            replies = await exchange(
                node.client_addr, [wire.frame(body) for body in spellings]
            )
            # replies to a binary request come back binary, and an ok
            # reply packs whichever spelling asked
            kind = wire.MAGIC_REPLY if expected["ok"] else wire.MAGIC_BINARY
            assert [reply[0] for reply in replies] == [kind, kind], request
            assert [wire.decode(reply) for reply in replies] == [expected] * 2
        counted = node.status()["wire"]
        assert counted["client_frames_in"] == 2 * len(SPELLINGS)
        assert counted["client_frames_packed"] == 3
        # a JSON client sees the same block, and is itself counted
        status = (await client_call(node.client_addr, {"cmd": "status"}))["status"]
        assert status["wire"]["client_frames_in"] == 2 * len(SPELLINGS) + 1
        assert status["wire"]["client_frames_packed"] == 3

    live_cluster(BASE_PORT + 10, scenario)


def test_a_put_still_waits_out_backpressure():
    async def scenario(cluster):
        node = cluster.nodes[0]
        transport = node.transport
        depth = [transport.HIGH_WATER + 1]
        transport.backlog = lambda: depth[0]  # a peer queue over the mark
        session = ClientSession(node.client_addr, codec=wire.CODEC_BINARY)
        reader = ClientSession(node.client_addr, codec=wire.CODEC_BINARY)
        await session.connect()
        await reader.connect()
        try:
            put = asyncio.ensure_future(
                session.call({"cmd": "put", "x": 0, "v": 5}, timeout=5.0)
            )
            await asyncio.sleep(0.2)
            assert not put.done()
            # reads are local and are not held
            got = await reader.call({"cmd": "get", "x": 0}, timeout=1.0)
            assert got == {"ok": True, "value": (0, 0), "rid": 0}
            depth[0] = 0
            transport._wake_drain_waiters()
            assert await asyncio.wait_for(put, 1.0) == {"ok": True, "rid": 0}
            got = await reader.call({"cmd": "get", "x": 0}, timeout=1.0)
            assert got["value"] == (0, 5)
        finally:
            del transport.backlog
            await session.close()
            await reader.close()

    live_cluster(BASE_PORT + 20, scenario)


ODD_RIDS = [True, False, "abc", 1.5, None, [1, 2], -1, 2**32, 2**70]


@pytest.mark.parametrize("codec", wire.CODECS)
def test_odd_and_duplicate_rids_are_echoed_and_the_node_keeps_serving(codec):
    async def scenario(cluster):
        addr = cluster.client_addr(0)
        frames = [
            wire.encode({"cmd": "get", "x": 0, "rid": rid}, codec)
            for rid in ODD_RIDS
        ]
        replies = await exchange(addr, frames)
        for rid, reply in zip(ODD_RIDS, replies):
            assert wire.body_codec(reply) == codec
            decoded = wire.decode(reply)
            assert decoded == {"ok": True, "value": (0, 0), "rid": rid}
            assert type(decoded["rid"]) is type(rid)
        # one rid, four times over, in one container and then again
        same = wire.encode_body({"cmd": "put", "x": 1, "v": 3, "rid": 7}, codec)
        batch = wire.encode_batch([same] * 3)
        answers = await exchange(addr, [batch, wire.frame(same)])
        assert wire.decode_frames(answers[0]) == [{"ok": True, "rid": 7}] * 3
        assert wire.decode_frames(answers[1]) == [{"ok": True, "rid": 7}]

    live_cluster(BASE_PORT + 30 + 10 * wire.CODECS.index(codec), scenario)
