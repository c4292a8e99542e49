"""Header-only dedup and hostile bytes on the live transport (PR 13).

The packed broadcast-message frame lets :class:`AsyncioTransport` ask
the broadcast layer "seen?" off the frame header and drop a duplicate
undecoded, an optimisation the layer above must not be able to observe:

* **dedup equivalence** — the same seeded frame sequence (duplicates,
  reordering, batch containers, generic-TLV and JSON message frames,
  control frames) produces the identical first-seen handler sequence
  with and without the predicate registered, and every message frame is
  accounted for: ``msg_frames_in == handler calls + dups_dropped``;
* **relay** — a flood relay of the message being dispatched queues the
  bytes a fresh send from the relaying node would, in that node's codec;
* **hostile bytes** — a peer or client connection fed a malformed body,
  a well-formed packed message whose header names a pid or a stamp
  length from another cluster, or a JSON / generic-TLV message envelope
  that does the same in its decoded fields (id, origin, stamp) or is no
  broadcast message at all (a former lazy-push ``adv``/``pull``/
  ``pull-reply`` body), or a control frame whose digest does not fit the
  cluster, is closed, nothing reaches the loop's exception handler, and
  the node keeps serving and converging; a client whose server never
  answers does not leak its pending entry.
"""

import asyncio
import gc
import random

import pytest

from repro.runtime.broadcast import DIGEST_SPILL
from repro.service import wire
from repro.service.cluster import ClientSession, LiveCluster, client_call
from repro.service.transport import AsyncioTransport, _PeerConnection

BASE_PORT = 7720
ADDRS = {pid: ("127.0.0.1", BASE_PORT + pid) for pid in range(3)}


class FakeSocket:
    """The part of an asyncio transport the inbound protocol touches."""

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


def serve(transport, stream: bytes, seed: int = 0) -> None:
    """Feed ``stream`` to ``transport``'s inbound protocol after a hello,
    cut into seeded random reads, as a socket would deliver it; reading
    stops when the protocol closes the connection."""
    rng = random.Random(seed)
    data = wire.encode({"t": "hello", "src": 0}) + stream

    async def body():
        conn = _PeerConnection(transport)
        sock = FakeSocket()
        conn.connection_made(sock)
        at = 0
        while at < len(data) and not sock.closed:
            step = rng.randint(1, 600)
            conn.data_received(data[at : at + step])
            at += step
        conn.connection_lost(None)

    asyncio.run(body())


def message(origin, seq, n=3, **extra):
    body = {
        "id": (origin, seq),
        "origin": origin,
        "payload": (seq % 2, 1000 * origin + seq, seq, origin),
        "stamp": tuple(seq + 1 if i == origin else 0 for i in range(n)),
    }
    body.update(extra)
    return body


def seeded_stream(seed):
    """Wire bytes of a shuffled message sequence: every message two to
    three times (the flood's copies), a fifth of them in a shape that
    falls back to generic TLV, a tenth from a JSON sender, heartbeats in
    between, folded into batch containers of random size."""
    rng = random.Random(seed)
    bodies = []
    for origin in (0, 2):
        for seq in range(40):
            roll = rng.random()
            if roll < 0.2:
                msg, codec = message(origin, seq, kind="bcast"), wire.CODEC_BINARY
            elif roll < 0.3:
                msg, codec = message(origin, seq), wire.CODEC_JSON
            else:
                msg, codec = message(origin, seq), wire.CODEC_BINARY
            for src in rng.sample((0, 2, 0), rng.randint(2, 3)):
                bodies.append(
                    wire.encode_body({"t": "msg", "src": src, "body": msg}, codec)
                )
    for i in range(10):
        bodies.append(
            wire.encode_body(
                {"t": "ctl", "src": 0, "body": {"kind": "hb", "count": i}},
                wire.CODEC_BINARY,
            )
        )
    rng.shuffle(bodies)
    stream = b""
    while bodies:
        take = rng.randint(1, 7)
        chunk, bodies = bodies[:take], bodies[take:]
        stream += (
            wire.frame(chunk[0]) if len(chunk) == 1 else wire.encode_batch(chunk)
        )
    return stream


def receiver(with_predicate):
    """Transport for pid 1 under a broadcast-shaped handler: first-seen
    messages are recorded, later copies counted as handler-level dups."""
    transport = AsyncioTransport(1, ADDRS)
    seen, first_seen, calls, controls = set(), [], [], []

    def handler(src, msg):
        calls.append(msg["id"])
        if msg["id"] not in seen:
            seen.add(msg["id"])
            first_seen.append((src, msg))

    transport.attach(1, handler)
    transport.control_handler = lambda src, body: controls.append((src, body))
    if with_predicate:
        transport.attach_dedup(1, seen.__contains__)
    return transport, first_seen, calls, controls


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_header_dedup_is_invisible_above_the_transport(seed):
    stream = seeded_stream(seed)
    plain, plain_first, plain_calls, plain_ctl = receiver(False)
    dedup, dedup_first, dedup_calls, dedup_ctl = receiver(True)
    serve(plain, stream)
    serve(dedup, stream)

    assert dedup_first == plain_first
    assert len(plain_first) == 80
    assert dedup_ctl == plain_ctl and len(plain_ctl) == 10

    for transport, calls in ((plain, plain_calls), (dedup, dedup_calls)):
        stats = transport.wire_stats
        assert stats["msg_frames_in"] == len(calls) + stats["dups_dropped"]
        assert stats["frames_in"] == stats["msg_frames_in"] + 10
    assert plain.wire_stats["dups_dropped"] == 0
    assert plain.wire_stats["msg_frames_in"] == dedup.wire_stats["msg_frames_in"]
    # only copies of packed frames can be dropped on the header; copies
    # in the generic/JSON shapes still reach the handler's own check
    dropped = dedup.wire_stats["dups_dropped"]
    assert 0 < dropped == len(plain_calls) - len(dedup_calls)
    assert len(dedup_calls) > len(dedup_first)


def test_an_earlier_frame_of_a_batch_makes_a_later_copy_a_duplicate():
    transport, first_seen, calls, _ = receiver(True)
    body = wire.encode_body(
        {"t": "msg", "src": 0, "body": message(0, 0)}, wire.CODEC_BINARY
    )
    relayed = wire.encode_body(
        {"t": "msg", "src": 2, "body": message(0, 0)}, wire.CODEC_BINARY
    )
    serve(transport, wire.encode_batch([body, relayed, body]))
    assert calls == [(0, 0)] and first_seen == [(0, message(0, 0))]
    assert transport.wire_stats["dups_dropped"] == 2


def test_crashed_transport_drops_before_the_peek():
    transport, first_seen, calls, _ = receiver(True)
    transport.crashed_local = True
    serve(transport, seeded_stream(1))
    assert calls == [] and transport.wire_stats["msg_frames_in"] == 0
    assert transport.stats.dropped_to_crashed > 0


def packed(src, origin, seq=0, stamp=None):
    body = {"id": (origin, seq), "origin": origin, "payload": seq}
    if stamp is not None:
        body["stamp"] = stamp
    raw = wire.encode_body({"t": "msg", "src": src, "body": body}, wire.CODEC_BINARY)
    assert raw[0] == wire.MAGIC_MSG
    return raw


#: packed message frames no member of an n=3 cluster sends
FOREIGN_HEADERS = {
    "origin": packed(0, 200),
    "origin, stamped": packed(0, 3, stamp=(0, 0, 0)),
    "src": packed(200, 2),
    "short stamp": packed(0, 2, stamp=(0, 1)),
    "long stamp": packed(0, 2, stamp=(0, 0, 1, 0)),
}


@pytest.mark.parametrize("codec", wire.CODECS)
@pytest.mark.parametrize("shape", sorted(FOREIGN_HEADERS))
def test_a_header_from_outside_the_cluster_costs_the_connection(shape, codec):
    """The dedup predicate indexes a per-origin row, as the broadcast
    layer's does: an origin it has no row for used to raise IndexError
    out of the connection task."""
    transport = AsyncioTransport(1, ADDRS, codec=codec)
    frontier, calls = [0, 0, 0], []

    def handler(_src, msg):
        calls.append(msg["id"])
        frontier[msg["origin"]] += 1

    transport.attach(1, handler)
    transport.attach_dedup(1, lambda mid: mid[1] < frontier[mid[0]])
    before = [packed(0, 0), packed(2, 2, stamp=(0, 0, 1))]
    serve(
        transport,
        wire.encode_batch(before + [FOREIGN_HEADERS[shape]])
        + wire.frame(packed(0, 0, seq=1)),
    )
    # both member shapes were served, the foreign frame was not counted,
    # and what followed it on the closed connection was never read
    assert calls == [(0, 0), (2, 0)]
    assert transport.wire_stats["frames_in"] == 2
    assert transport.wire_stats["dups_dropped"] == 0


def tlv(frame):
    """``frame`` in the binary codec's generic TLV shape, never packed."""
    out = bytearray((wire.MAGIC_BINARY,))
    wire._enc_value(frame, out)
    return bytes(out)


#: the two decoded shapes of a message frame: no header to peek at
ENVELOPE_SHAPES = {
    "json": lambda frame: wire.encode_body(frame, wire.CODEC_JSON),
    "tlv": tlv,
}


def envelope(src, **body):
    return {"t": "msg", "src": src, "body": body}


#: message envelopes no member of an n=3 cluster sends
FOREIGN_ENVELOPES = {
    "src": envelope(200, id=(1, 0), origin=1, payload=0),
    "no body": {"t": "msg", "src": 0},
    "origin": envelope(0, id=(200, 0), origin=200, payload=0),
    "id not a pair": envelope(0, id="x", origin=0, payload=0),
    "no id": envelope(0, origin=0, payload=0),
    "negative seq": envelope(0, id=(0, -1), origin=0, payload=0),
    "bool origin": envelope(0, id=(True, 0), origin=True, payload=0),
    "origin not the id's": envelope(0, id=(1, 0), origin=2, payload=0),
    "no payload": envelope(0, id=(1, 0), origin=1),
    "short stamp": envelope(0, id=(1, 0), origin=1, payload=0, stamp=(0, 1)),
    "long stamp": envelope(0, id=(1, 0), origin=1, payload=0, stamp=(0, 1, 0, 0)),
    "stamp of strings": envelope(
        0, id=(1, 0), origin=1, payload=0, stamp=("a", "b", "c")
    ),
    "id of three": envelope(0, id=(1, 0, 0), origin=1, payload=0),
    "seq not an int": envelope(0, id=(1, 0.5), origin=1, payload=0),
    # the lazy push's bodies, well-formed as it sent them: no member
    # sends them any more, and they are no broadcast message
    "former adv": envelope(0, kind="adv", ids=((0, 0), (2, 3))),
    "former pull": envelope(0, kind="pull", mid=(1, 0), adv=((0, 1),)),
    "former pull-miss": envelope(0, kind="pull-miss", mid=(2, 5)),
    "former pull-reply": envelope(
        0, kind="pull-reply", body={"id": (0, 1), "origin": 0, "payload": 0}
    ),
}

#: ...and ones every kind of member sends, in the same two shapes
MEMBER_ENVELOPES = [
    envelope(0, id=(0, 0), origin=0, payload=0, kind="bcast"),
    envelope(2, id=(2, 0), origin=2, payload=(1, 2), stamp=(0, 0, 1)),
]


def recording_transport(codec):
    """A transport under a broadcast layer: one that offered its dedup
    predicate, so message bodies are in its shape (nothing is ever seen
    here, every body reaches the handler)."""
    transport = AsyncioTransport(1, ADDRS, codec=codec)
    bodies = []
    transport.attach(1, lambda _src, msg: bodies.append(msg))
    transport.attach_dedup(1, lambda _mid: False)
    return transport, bodies


@pytest.mark.parametrize("codec", wire.CODECS)
@pytest.mark.parametrize("shape", sorted(ENVELOPE_SHAPES))
@pytest.mark.parametrize("name", sorted(FOREIGN_ENVELOPES))
def test_an_envelope_from_outside_the_cluster_costs_the_connection(
    name, shape, codec
):
    """The JSON and generic-TLV shapes get the packed header's check on
    their decoded fields: each of these used to raise IndexError or
    KeyError out of the connection task, or to mark an id seen."""
    encode = ENVELOPE_SHAPES[shape]
    foreign = encode(FOREIGN_ENVELOPES[name])
    assert foreign[0] != wire.MAGIC_MSG
    transport, bodies = recording_transport(codec)
    before = [encode(MEMBER_ENVELOPES[0]), packed(2, 2, stamp=(0, 0, 1))]
    serve(
        transport,
        wire.encode_batch(before + [foreign]) + wire.frame(packed(0, 0, seq=1)),
    )
    assert [msg["id"] for msg in bodies] == [(0, 0), (2, 0)]
    assert transport.wire_stats["frames_in"] == 2


@pytest.mark.parametrize("codec", wire.CODECS)
@pytest.mark.parametrize("shape", sorted(ENVELOPE_SHAPES))
def test_member_envelopes_of_every_kind_pass_the_check(shape, codec):
    transport, bodies = recording_transport(codec)
    encode = ENVELOPE_SHAPES[shape]
    serve(transport, b"".join(wire.frame(encode(f)) for f in MEMBER_ENVELOPES))
    assert bodies == [frame["body"] for frame in MEMBER_ENVELOPES]
    assert transport.wire_stats["frames_in"] == len(MEMBER_ENVELOPES)


def relaying_transport(codec):
    """Pid 1 under a flood-shaped handler: each message it is handed is
    multicast on, and sent to pid 2 once more."""
    transport = AsyncioTransport(1, ADDRS, codec=codec)
    log = []

    def handler(_src, msg):
        log.append(msg)
        transport.multicast(1, msg)
        transport.send(1, 2, msg)

    transport.attach(1, handler)
    return transport, log


def test_a_relay_of_the_dispatched_message_encodes_as_a_fresh_send():
    transport, log = relaying_transport(wire.CODEC_BINARY)
    msg = message(0, 7)
    serve(
        transport,
        wire.encode({"t": "msg", "src": 0, "body": msg}, wire.CODEC_BINARY),
    )
    fresh = wire.encode_body({"t": "msg", "src": 1, "body": msg}, wire.CODEC_BINARY)
    assert list(transport._queues[0]) == [fresh]
    assert list(transport._queues[2]) == [fresh, fresh]
    assert wire.decode(fresh)["src"] == 1  # re-addressed from the relay
    # an equal message sent later (a resync resend from the log) comes
    # to the same bytes
    transport.send(1, 2, log[0])
    assert transport._queues[2][-1] == fresh


def test_a_json_node_relays_in_json():
    transport, _ = relaying_transport(wire.CODEC_JSON)
    serve(
        transport,
        wire.encode({"t": "msg", "src": 0, "body": message(0, 7)}, wire.CODEC_BINARY),
    )
    assert wire.body_codec(transport._queues[0][0]) == wire.CODEC_JSON
    assert wire.decode(transport._queues[0][0])["src"] == 1


# ----------------------------------------------------------------------
# Hostile bytes on real connections
# ----------------------------------------------------------------------
HOSTILE_BODIES = [
    b"\xb1\x0e\x05",
    b"\xb1\x04\x00",
    b"\xb1\x12\xff",
    b"\xb1" + b"\x0c\x01" * 5000 + b"\x00",
    b"\xb3\x00\x02\x00",  # packed header cut short: fails the peek
    b"\xb3\x00\x01\x00\x01\x00\x00\x00\x05\xff\xff",  # ...and the decode
    b"\xb2\x00\x00",
    b"\xb1\x0c\x00",  # well-formed, but a list is not a frame
]


async def closes(addr, payload: bytes) -> bool:
    """Write ``payload`` to ``addr``; did the far end close on us?"""
    reader, writer = await asyncio.open_connection(*addr)
    try:
        writer.write(payload)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), 2.0) == b""
    finally:
        writer.close()


def test_garbage_closes_the_connection_and_the_node_keeps_serving():
    async def body():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        cluster = LiveCluster(2, base_port=BASE_PORT + 10, seed=3, proxied=False)
        await cluster.start()
        try:
            await asyncio.sleep(0.2)
            peer = cluster.layout["peer"][0]
            client = cluster.client_addr(0)
            hello = wire.encode({"t": "hello", "src": 1, "codec": "binary"})
            for hostile in HOSTILE_BODIES:
                assert await closes(peer, hello + wire.frame(hostile)), hostile
                assert await closes(client, wire.frame(hostile)), hostile
            # well-formed, but from a cluster this n=2 one is not
            for foreign in (packed(1, 200), packed(200, 1), packed(1, 1, stamp=(1,))):
                assert await closes(peer, hello + wire.frame(foreign)), foreign
            # ...and the same in the shapes with no header to peek at
            for encode in ENVELOPE_SHAPES.values():
                for forged in (
                    envelope(1, id=(200, 0), origin=200, payload=0),
                    envelope(1, id="x", origin=1, payload=0),
                    envelope(1, origin=1, payload=0),
                    # fits by accident: would mark node 1's first write seen
                    envelope(1, id=(1, 0), origin=1, payload=0, stamp=(1,)),
                    # a former lazy-push advertisement of that same write
                    envelope(1, kind="adv", ids=((1, 0),)),
                ):
                    raw = hello + wire.frame(encode(forged))
                    assert await closes(peer, raw), forged
            # a connection task that died on an uncaught exception tells
            # the loop's handler when it is collected
            gc.collect()
            await asyncio.sleep(0)
            assert errors == []
            # still serving: a write through node 0 reaches node 1
            reply = await client_call(client, {"cmd": "put", "x": 0, "v": 41})
            assert reply["ok"]
            for _ in range(40):
                await asyncio.sleep(0.05)
                seen = await client_call(
                    cluster.client_addr(1), {"cmd": "window", "x": 0}
                )
                if 41 in seen["value"]:
                    break
            else:
                pytest.fail("write did not propagate after the garbage")
            # node 1's genuine first broadcast (1, 0) is not taken for a
            # duplicate of the forged one: both replicas converge on it
            reply = await client_call(
                cluster.client_addr(1), {"cmd": "put", "x": 1, "v": 99}
            )
            assert reply["ok"]
            for _ in range(40):
                await asyncio.sleep(0.05)
                windows = [
                    (await client_call(
                        cluster.client_addr(pid), {"cmd": "window", "x": 1}
                    ))["value"]
                    for pid in (0, 1)
                ]
                if windows[0] == windows[1] and 99 in windows[0]:
                    break
            else:
                pytest.fail(f"replicas did not converge on x=1: {windows}")
            status = (await client_call(client, {"cmd": "status"}))["status"]
            assert status["monitor"]["ok"]
            for counter in ("msg_frames_in", "dups_dropped"):
                assert counter in status["wire"]
        finally:
            await cluster.close()

    asyncio.run(body())


#: heartbeat digests no member of an n=3 cluster sends
FOREIGN_DIGESTS = [
    {"kind": "hb", "frontier": [1, "x", 0]},
    {"kind": "hb", "frontier": [1, 0]},
    {"kind": "hb", "frontier": [1, -1, 0]},
    {"kind": "hb", "frontier": "abc"},
    {"kind": "hb", "frontier": [0, 0, 0], "spill": 5},
    {"kind": "hb", "frontier": [0, 0, 0], "spill": [[99, 0]]},
    {"kind": "hb", "frontier": [0, 0, 0], "spill": [[1, "x"]]},
    {"kind": "resync-req", "frontier": [1, 0, 0], "spill": [7]},
    # spill runs (origin, lo, hi): empty, a foreign origin, too long
    {"kind": "hb", "frontier": [0, 0, 0], "spill": [[0, 5, 3]]},
    {"kind": "hb", "frontier": [0, 0, 0], "spill": [[3, 0, 1]]},
    {"kind": "hb", "frontier": [0, 0, 0], "spill": [[0, 0, DIGEST_SPILL + 1]]},
    # a repair carries one message body of this cluster
    {"kind": "repair", "body": 5},
    {"kind": "repair", "body": {"kind": "adv", "ids": ((0, 0),)}},
    {"kind": "repair", "body": {"id": (7, 0), "origin": 7, "payload": 1}},
]


def test_a_digest_that_does_not_fit_closes_the_connection_before_it_is_learned():
    """A control frame's ``frontier``/``spill`` used to reach
    ``PeerView.learn`` unchecked: a stray entry moved a peer's row part-way
    and then raised ``TypeError`` out of the connection task, and a foreign
    id was learned as one a peer had seen."""

    async def body():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        cluster = LiveCluster(3, base_port=BASE_PORT + 30, seed=4, proxied=False)
        await cluster.start()
        try:
            await asyncio.sleep(0.2)
            peers = cluster.nodes[1].broadcast.endpoints[1].peers
            rows = [list(row) for row in peers.rows]
            spills = [set(spill) for spill in peers.spills]
            hello = wire.encode({"t": "hello", "src": 0, "codec": "binary"})
            for digest in FOREIGN_DIGESTS:
                for codec in (wire.CODEC_BINARY, wire.CODEC_JSON):
                    frame = {"t": "ctl", "src": 0, "body": digest}
                    raw = hello + wire.frame(wire.encode_body(frame, codec))
                    peer = cluster.layout["peer"][1]
                    assert await closes(peer, raw), (digest, codec)
            gc.collect()
            await asyncio.sleep(0)
            assert errors == []
            assert [list(row) for row in peers.rows] == rows
            assert [set(spill) for spill in peers.spills] == spills
            reply = await client_call(
                cluster.client_addr(0), {"cmd": "put", "x": 0, "v": 7}
            )
            assert reply["ok"]
            for _ in range(40):
                await asyncio.sleep(0.05)
                seen = await client_call(
                    cluster.client_addr(1), {"cmd": "window", "x": 0}
                )
                if 7 in seen["value"]:
                    break
            else:
                pytest.fail("write did not propagate after the digests")
        finally:
            await cluster.close()

    asyncio.run(body())


def test_client_session_fails_pending_calls_on_a_garbage_reply():
    async def body():
        async def garbage_server(reader, writer):
            await wire.read_body(reader)
            writer.write(wire.frame(b"\xb1\x0c\x00"))  # a list, not a reply
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(
            garbage_server, "127.0.0.1", BASE_PORT + 20
        )
        session = ClientSession(("127.0.0.1", BASE_PORT + 20))
        await session.connect()
        try:
            with pytest.raises(ConnectionError):
                await session.call({"cmd": "ping"}, timeout=2.0)
            assert session._pending == {}
        finally:
            await session.close()
            server.close()
            await server.wait_closed()

    asyncio.run(body())


@pytest.mark.parametrize("window", [1, 4])
def test_client_call_timeout_does_not_leak_its_pending_entry(window):
    async def body():
        async def silent_server(reader, writer):
            await reader.read()  # swallow requests, never answer
            writer.close()

        server = await asyncio.start_server(
            silent_server, "127.0.0.1", BASE_PORT + 21
        )
        session = ClientSession(("127.0.0.1", BASE_PORT + 21), window=window)
        await session.connect()
        try:
            results = await asyncio.gather(
                *(session.call({"cmd": "ping"}, timeout=0.1) for _ in range(6)),
                return_exceptions=True,
            )
            assert all(isinstance(r, asyncio.TimeoutError) for r in results)
            assert session._pending == {}
        finally:
            await session.close()
            await asyncio.sleep(0.05)  # let the server side see the EOF
            server.close()
            await server.wait_closed()

    asyncio.run(body())
