"""Codec equivalence: both wire codecs must round-trip every payload
the runtime actually ships, and agree with each other.

The live plane negotiates ``json`` (PR 9 compat) or ``binary`` (PR 10
hot path) per connection, and a mixed cluster carries both on the same
sockets via per-frame self-description.  These tests pin the contract
that makes that safe:

* every runtime payload shape round-trips identically through either
  codec (tuple-keyed dicts, vector stamps, LWW nested tuples, the
  ``__t``/``__d`` tag-collision shapes the JSON codec must escape);
* a seeded structural fuzz over the value grammar agrees across codecs;
* the framing-level batch container is codec-neutral (sub-bodies of
  different codecs coexist in one container);
* the packed broadcast-message layout (first byte ``0xB3``) is a
  codec-internal detail: seeded random body messages round-trip to the
  equal envelope, the header peek agrees with the decoded id, a
  re-addressed body equals a fresh encode byte for byte, and every
  shape that does not fit the header falls back to generic TLV;
* the packed client frames (``0xB4`` request, ``0xB5`` reply) are the
  same kind of detail one hop out: generated requests and replies —
  the four exact shapes and every near-miss — round-trip to the equal
  dict, only the exact shapes pack, and every truncation or single-byte
  corruption of a packed body decodes to a dict or raises
  ``ValueError``;
* no malformed body — truncated, bad tag, bad key index, over-deep —
  raises anything but ``ValueError`` (the one exception the connection
  loops catch);
* a live cluster with one JSON node among binary peers converges with
  clean monitors (the compat-fallback smoke).
"""

import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.spec import WorkloadSpec
from repro.service import wire
from repro.service.cluster import LiveCluster, client_call
from repro.service.load import converged_windows, run_load

BASE_PORT = 7680


def roundtrip(value, codec):
    body = wire.encode_body(value, codec)
    assert wire.body_codec(body) == codec
    return wire.decode(body)


def both(value):
    """Round-trip through both codecs; assert agreement; return it."""
    via_json = roundtrip(value, wire.CODEC_JSON)
    via_bin = roundtrip(value, wire.CODEC_BINARY)
    assert via_json == via_bin
    return via_bin


# ----------------------------------------------------------------------
# Runtime payload shapes
# ----------------------------------------------------------------------
class TestRuntimeShapes:
    def test_vector_stamp(self):
        stamp = (0, 17, 3, 2**40)
        assert both(stamp) == stamp

    def test_tuple_keyed_dict(self):
        # dedup frontiers key rows by (origin, local_id) message ids
        delivered = {(0, 1): True, (2, 40): False, (1, 0): True}
        assert both(delivered) == delivered

    def test_lww_entries_nest_tuples_in_tuples(self):
        rows = [
            ((3, 0), ("w", "x", 1)),
            ((3, 1), ("r", "x", None)),
            ((4, 0), ("w", "y", (1, 2))),
        ]
        assert both(rows) == rows

    def test_causal_broadcast_frame(self):
        frame = {
            "t": "msg",
            "src": 2,
            "body": {
                "kind": "bcast",
                "id": (2, 5),
                "origin": 2,
                "stamp": (1, 0, 6),
                "payload": {"op": ("w", "x", 3), "seq": 6},
            },
        }
        assert both(frame) == frame

    def test_resync_digest_with_frontier_rows(self):
        frame = {
            "t": "ctl",
            "src": 0,
            "body": {
                "kind": "digest",
                "frontier": [[3, 1, 0], [2, 2, 2]],
                "ids": [(0, i) for i in range(4)],
                "spill": {("a", 1): [1, (2, 3)], ("b", 2): []},
            },
        }
        assert both(frame) == frame

    def test_keys_outside_the_intern_table(self):
        # the binary key table is an optimisation, not a requirement
        frame = {"definitely-not-interned-key": 1, "another one": (2,)}
        assert both(frame) == frame


# ----------------------------------------------------------------------
# Tag-collision shapes (the JSON codec's escape hatch)
# ----------------------------------------------------------------------
class TestTagCollisions:
    def test_dict_with_literal_tag_keys(self):
        for value in (
            {"__t": "not a tuple"},
            {"__d": [1, 2, 3]},
            {"__t": {"__d": {"__t": 0}}},
            {"__t": [1, 2], "other": 3},
        ):
            assert both(value) == value

    def test_tag_strings_as_plain_values(self):
        value = ["__t", "__d", ("__t",), {"k": "__d"}]
        assert both(value) == value

    def test_tag_keys_inside_tuple_keyed_dict(self):
        value = {("__t", 0): {"__d": "x"}}
        assert both(value) == value


# ----------------------------------------------------------------------
# Scalar edges
# ----------------------------------------------------------------------
class TestScalarEdges:
    def test_int_width_boundaries(self):
        edges = []
        for bound in (2**7, 2**31, 2**63, 2**200):
            edges += [bound - 1, bound, -bound, -bound - 1]
        edges += [0, 1, -1]
        assert both(edges) == edges

    def test_bool_is_not_int(self):
        value = [True, False, 1, 0]
        decoded = both(value)
        assert [type(v) for v in decoded] == [bool, bool, int, int]

    def test_floats_bit_for_bit(self):
        import math

        values = [0.0, -0.0, 1.5, 1e300, 5e-324, math.pi]
        decoded = both(values)
        assert [v.hex() for v in decoded] == [v.hex() for v in values]

    def test_unicode_and_long_strings(self):
        values = ["", "héllo ≤≥", "x" * 300, "\x00\n\"\\", "🦀" * 70]
        assert both(values) == values

    def test_none_and_empty_containers(self):
        value = [None, [], (), {}, {"x": ()}]
        assert both(value) == value

    def test_bytes_binary_only(self):
        for blob in (b"", b"\x00\xb1\xb2", bytes(range(256)) * 2):
            assert roundtrip(blob, wire.CODEC_BINARY) == blob


# ----------------------------------------------------------------------
# Structural fuzz: seeded grammar, both codecs must agree
# ----------------------------------------------------------------------
def random_value(rng, depth=0):
    kinds = ["int", "str", "bool", "none", "float"]
    if depth < 4:
        kinds += ["list", "tuple", "dict", "tupledict"] * 2
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.choice(
            [rng.randint(-128, 127), rng.randint(-(2**40), 2**40)]
        )
    if kind == "str":
        return rng.choice(["", "__t", "stamp", "αβγ", "k" * rng.randint(1, 40)])
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "float":
        return rng.choice([0.0, -2.5, 1e9, rng.random()])
    size = rng.randint(0, 4)
    if kind == "list":
        return [random_value(rng, depth + 1) for _ in range(size)]
    if kind == "tuple":
        return tuple(random_value(rng, depth + 1) for _ in range(size))
    if kind == "dict":
        return {
            rng.choice(["a", "b", "__t", "__d", "stamp", "payload"]):
                random_value(rng, depth + 1)
            for _ in range(size)
        }
    # tuple-keyed dict — the message-id map shape
    return {
        (rng.randint(0, 4), rng.randint(0, 99)): random_value(rng, depth + 1)
        for _ in range(size)
    }


class TestFuzz:
    def test_codecs_agree_on_seeded_grammar(self):
        rng = random.Random(1234)
        for _ in range(300):
            value = random_value(rng)
            assert both(value) == value

    def test_binary_rejects_trailing_garbage(self):
        body = wire.encode_body({"x": 1}, wire.CODEC_BINARY)
        with pytest.raises(ValueError):
            wire.decode(body + b"\x00")


# ----------------------------------------------------------------------
# Batch container is codec-neutral
# ----------------------------------------------------------------------
class TestBatchContainer:
    def test_mixed_codec_sub_bodies(self):
        frames = [{"rid": i, "v": (i, i + 1)} for i in range(5)]
        bodies = [
            wire.encode_body(f, wire.CODEC_JSON if i % 2 else wire.CODEC_BINARY)
            for i, f in enumerate(frames)
        ]
        batch = wire.encode_batch(bodies)
        body = batch[4:]  # strip the outer length prefix
        assert wire.is_batch(body)
        assert [wire.decode(sub) for sub in wire.split_batch(body)] == frames
        assert wire.decode_frames(body) == frames

    def test_single_body_is_not_a_batch(self):
        body = wire.encode_body({"x": 1}, wire.CODEC_BINARY)
        assert not wire.is_batch(body)
        assert wire.decode_frames(body) == [{"x": 1}]

    def test_truncated_sub_body_raises(self):
        bodies = [wire.encode_body({"x": 1}, wire.CODEC_BINARY)]
        batch = wire.encode_batch(bodies)[4:]
        with pytest.raises(ValueError):
            wire.split_batch(batch[:-1])


# ----------------------------------------------------------------------
# The incremental splitter every connection reads through
# ----------------------------------------------------------------------
def split_all(chunks):
    """Frames a splitter hands on for ``chunks`` fed one by one, as
    ``(decoded bodies, batched)``."""
    got = []
    splitter = wire.FrameSplitter(
        lambda bodies, batched: got.append(
            ([wire.decode(b) for b in bodies], batched)
        )
    )
    for chunk in chunks:
        splitter.feed(chunk)
    return got


class TestFrameSplitter:
    FRAMES = [{"rid": i, "v": (i, -i, 300 * i)} for i in range(6)]

    def stream(self):
        bodies = [wire.encode_body(f, wire.CODEC_BINARY) for f in self.FRAMES]
        return (
            wire.frame(bodies[0])
            + wire.encode_batch(bodies[1:4])
            + wire.frame(wire.encode_body(self.FRAMES[4], wire.CODEC_JSON))
            + wire.encode_batch(bodies[5:])
        )

    def expected(self):
        f = self.FRAMES
        return [([f[0]], False), (f[1:4], True), ([f[4]], False), ([f[5]], True)]

    def test_any_cut_of_the_stream_splits_the_same(self):
        stream = self.stream()
        assert split_all([stream]) == self.expected()
        for cut in range(len(stream) + 1):
            assert split_all([stream[:cut], stream[cut:]]) == self.expected()
        assert split_all([stream[i : i + 1] for i in range(len(stream))]) == (
            self.expected()
        )

    def test_an_oversize_prefix_fails_before_its_body_arrives(self):
        splitter = wire.FrameSplitter(lambda bodies, batched: None)
        splitter.feed(b"\x01")  # a partial prefix is only buffered
        with pytest.raises(ValueError):
            splitter.feed((wire.MAX_FRAME + 1).to_bytes(4, "big")[1:])

    def test_a_malformed_container_raises(self):
        body = wire.encode_batch([b"\xb1\x00"])[4:]
        with pytest.raises(ValueError):
            split_all([wire.frame(body[:-1])])

    def test_held_stops_after_the_frame_and_resume_goes_on(self):
        got = []

        def on_frame(bodies, batched):
            got.append(wire.decode(bodies[0]))
            splitter.held = True

        splitter = wire.FrameSplitter(on_frame)
        stream = self.stream()
        splitter.feed(stream[:-3])
        assert got == self.FRAMES[:1]
        splitter.feed(stream[-3:])  # held: buffered, not split
        assert got == self.FRAMES[:1]
        for _ in range(3):
            splitter.resume()
        assert got == [self.FRAMES[i] for i in (0, 1, 4, 5)]


# ----------------------------------------------------------------------
# The bytes on the wire
# ----------------------------------------------------------------------
#: a packed message, request and reply, and generic TLV, byte for byte:
#: encoders may get faster, the bytes may not move
WIRE_BYTES = [
    (
        {
            "t": "msg",
            "src": 1,
            "body": {
                "id": (2, 300),
                "origin": 2,
                "payload": (1, -5, 70000, [3, 200, -129, (0,)], "v"),
                "stamp": (4, 0, 301),
            },
        },
        "b3000100020000012c000300000004000000000000012d0e05030103fb04000111"
        "700c04030304000000c804ffffff7f0e010300080176",
    ),
    (
        {
            "t": "msg",
            "src": 0,
            "body": {
                "id": (0, 7),
                "origin": 0,
                "payload": [0, 1, -1, 127, -128, 128],
            },
        },
        "b30000000000000007ffff0c060300030103ff037f03800400000080",
    ),
    (
        {"cmd": "put", "x": 1, "v": (5, -3, 1000), "rid": 9},
        "b4010000000900010e03030503fd04000003e8",
    ),
    ({"cmd": "get", "x": 1, "rid": 10}, "b4020000000a0001"),
    (
        {"ok": True, "value": (7, [1, 2], 300), "rid": 9},
        "b501000000090e0303070c0203010302040000012c",
    ),
    ({"ok": True, "rid": 11}, "b5000000000b"),
    (
        {
            "t": "ctl",
            "src": 2,
            "body": {"kind": "hb", "frontier": [3, 0, 129], "spill": [(1, 4, 6)]},
        },
        "b110031200080363746c120103021202100312030802686212190c03030303000400"
        "000081121a0c010e03030103040306",
    ),
]


@pytest.mark.parametrize("frame, hexbytes", WIRE_BYTES)
def test_the_binary_codec_bytes_are_pinned(frame, hexbytes):
    body = wire.encode_body(frame, wire.CODEC_BINARY)
    assert body.hex() == hexbytes
    assert wire.decode(body) == frame


# ----------------------------------------------------------------------
# Packed broadcast-message frames (0xB3)
# ----------------------------------------------------------------------
SEQ_EDGES = (0, 1, 127, 128, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1)


def random_message(rng):
    """A body-message envelope as the broadcast layers send it: n up to
    64, seq up to the header's last value, with or without a stamp,
    tuple / str / nested payloads."""
    n = rng.randint(1, 64)
    origin = rng.randrange(n)
    seq = rng.choice([rng.choice(SEQ_EDGES), rng.randrange(2**32)])
    payload = rng.choice(
        [
            (rng.randrange(4), rng.randrange(2**31), rng.randrange(2**20), origin),
            "payload-%d" % rng.randrange(100),
            random_value(rng),
        ]
    )
    message = {"id": (origin, seq), "origin": origin, "payload": payload}
    if rng.random() < 0.7:
        message["stamp"] = tuple(
            rng.choice([rng.randrange(100), rng.choice(SEQ_EDGES)])
            for _ in range(n)
        )
    return {"t": "msg", "src": rng.randrange(n), "body": message}


def envelope(**changes):
    message = {"id": (1, 5), "origin": 1, "payload": ("w", 0, 3), "stamp": (1, 6, 0)}
    message.update(changes)
    return {"t": "msg", "src": 2, "body": message}


#: envelopes one step away from the packed shape: each must encode as
#: generic TLV (never an error) and still round-trip
FALLBACK_SHAPES = {
    "list id": envelope(id=[1, 5]),
    "id of three": envelope(id=(1, 5, 0)),
    "id origin differs": envelope(id=(2, 5)),
    "kind present": envelope(kind="bcast"),
    "extra key": {**envelope(), "hop": 1},
    "no payload": {"t": "msg", "src": 2, "body": {"id": (1, 5), "origin": 1, "stamp": ()}},
    "fourth key is not stamp": {
        "t": "msg", "src": 2,
        "body": {"id": (1, 5), "origin": 1, "payload": 0, "adv": ()},
    },
    "seq past u32": envelope(id=(1, 2**32)),
    "negative seq": envelope(id=(1, -1)),
    "origin past u16": envelope(id=(2**16, 5), origin=2**16),
    "stamp entry past u32": envelope(stamp=(1, 2**32)),
    "negative stamp entry": envelope(stamp=(1, -1)),
    "list stamp": envelope(stamp=[1, 6, 0]),
    "bool stamp entry": envelope(stamp=(1, True)),
    "bool seq": envelope(id=(1, True)),
    "str origin": envelope(id=("a", 5), origin="a"),
    "src past u16": {**envelope(), "src": 2**16},
    "negative src": {**envelope(), "src": -1},
    "str src": {**envelope(), "src": "p2"},
    "body is not a dict": {"t": "msg", "src": 2, "body": [1, 2]},
    "control frame": {"t": "ctl", "src": 2, "body": envelope()["body"]},
}


class TestPackedMessageFrames:
    def test_seeded_messages_round_trip_peek_and_readdress(self):
        rng = random.Random(20260930)
        for _ in range(400):
            frame = random_message(rng)
            body = wire.encode_body(frame, wire.CODEC_BINARY)
            assert body[0] == wire.MAGIC_MSG
            assert wire.body_codec(body) == wire.CODEC_BINARY
            decoded = wire.decode(body)
            assert decoded == frame == roundtrip(frame, wire.CODEC_JSON)
            assert type(decoded["body"]["id"]) is tuple
            assert type(decoded["body"].get("stamp", ())) is tuple
            # the peek reads what a full decode would
            src, *mid, stamps = wire.msg_header(body)
            assert (src, tuple(mid)) == (frame["src"], decoded["body"]["id"])
            stamp = decoded["body"].get("stamp")
            assert stamps == (None if stamp is None else len(stamp))
            # canonical: what was decoded encodes back to the same bytes
            assert wire.encode_body(decoded, wire.CODEC_BINARY) == body
            # splice == fresh encode, byte for byte
            relay_src = rng.randrange(64)
            assert wire.readdress(body, relay_src) == wire.encode_body(
                {**frame, "src": relay_src}, wire.CODEC_BINARY
            )

    def test_stamp_and_no_stamp_stay_distinct(self):
        bare = envelope()
        del bare["body"]["stamp"]
        empty = envelope(stamp=())
        for frame in (bare, empty):
            body = wire.encode_body(frame, wire.CODEC_BINARY)
            assert body[0] == wire.MAGIC_MSG
            assert wire.decode(body) == frame
        assert "stamp" not in wire.decode(
            wire.encode_body(bare, wire.CODEC_BINARY)
        )["body"]

    @pytest.mark.parametrize("shape", sorted(FALLBACK_SHAPES))
    def test_near_misses_fall_back_to_generic_tlv(self, shape):
        frame = FALLBACK_SHAPES[shape]
        body = wire.encode_body(frame, wire.CODEC_BINARY)
        assert body[0] == wire.MAGIC_BINARY
        assert wire.msg_header(body) is None
        decoded = wire.decode(body)
        assert decoded == frame
        # equal *and* the same types: a bool pid must not come back an int
        assert repr(decoded) == repr(frame)

    def test_peek_ignores_every_other_body_kind(self):
        frame = envelope()
        assert wire.msg_header(wire.encode_body(frame, wire.CODEC_JSON)) is None
        assert wire.msg_header(wire.encode_batch([b"x"])[4:]) is None
        assert wire.msg_header(b"") is None

    def test_packed_frames_ride_batch_containers(self):
        rng = random.Random(5)
        frames = [random_message(rng) for _ in range(6)]
        bodies = [wire.encode_body(f, wire.CODEC_BINARY) for f in frames]
        batch = wire.encode_batch(bodies)[4:]
        assert wire.split_batch(batch) == bodies
        assert wire.decode_frames(batch) == frames


# ----------------------------------------------------------------------
# Packed client frames (0xB4 request, 0xB5 reply)
# ----------------------------------------------------------------------
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.sampled_from(["v", "rid", "a", "__t"]), inner, max_size=3),
    ),
    max_leaves=6,
)
EDGES = (0, 1, 2**16 - 1, 2**16, 2**32 - 1, 2**32, -1)
#: header fields: in range, just outside, and not an int at all
fields = st.one_of(
    st.sampled_from(EDGES),
    st.integers(-3, 2**33),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
)
rids = st.integers(0, 2**32 - 1)
streams = st.integers(0, 2**16 - 1)
exact_frames = st.one_of(
    st.fixed_dictionaries({"cmd": st.just("put"), "x": streams, "v": values, "rid": rids}),
    st.fixed_dictionaries({"cmd": st.just("get"), "x": streams, "rid": rids}),
    st.fixed_dictionaries({"ok": st.just(True), "rid": rids}),
    st.fixed_dictionaries({"ok": st.just(True), "value": values, "rid": rids}),
)
#: anything request- or reply-like: other verbs, errors, bad header
#: fields, keys dropped and keys added
loose_frames = st.one_of(
    st.fixed_dictionaries(
        {"cmd": st.sampled_from(["put", "get", "window", "status", 7, None])},
        optional={"x": fields, "v": values, "rid": fields, "since": fields},
    ),
    st.fixed_dictionaries(
        {"ok": st.sampled_from([True, False, 1, None])},
        optional={"rid": fields, "value": values, "error": st.text(max_size=6)},
    ),
)


def fits(value, bits):
    return type(value) is int and 0 <= value < 2**bits


def expected_magic(frame):
    """The body kind the layouts in ``wire``'s docstring assign."""
    keys = set(frame)
    if (frame.get("cmd") == "put" and keys == {"cmd", "x", "v", "rid"}) or (
        frame.get("cmd") == "get" and keys == {"cmd", "x", "rid"}
    ):
        if fits(frame["x"], 16) and fits(frame["rid"], 32):
            return wire.MAGIC_REQUEST
    if frame.get("ok") is True and keys in ({"ok", "rid"}, {"ok", "value", "rid"}):
        if fits(frame["rid"], 32):
            return wire.MAGIC_REPLY
    return wire.MAGIC_BINARY


def typed(frame):
    # equal *and* the same types (True is not 1), whatever the key order
    return {key: repr(value) for key, value in frame.items()}


NEAR_MISSES = {
    "other verb": {"cmd": "window", "x": 1, "rid": 3},
    "put without v": {"cmd": "put", "x": 1, "rid": 3},
    "put with an extra key": {"cmd": "put", "x": 1, "v": 2, "rid": 3, "ttl": 9},
    "get with a v": {"cmd": "get", "x": 1, "v": 2, "rid": 3},
    "get without rid": {"cmd": "get", "x": 1},
    "bool x": {"cmd": "get", "x": True, "rid": 3},
    "str x": {"cmd": "get", "x": "1", "rid": 3},
    "negative x": {"cmd": "get", "x": -1, "rid": 3},
    "x past u16": {"cmd": "put", "x": 70000, "v": 2, "rid": 3},
    "bool rid": {"cmd": "put", "x": 1, "v": 2, "rid": False},
    "float rid": {"cmd": "get", "x": 1, "rid": 3.0},
    "rid past u32": {"cmd": "get", "x": 1, "rid": 2**32},
    "negative rid": {"cmd": "get", "x": 1, "rid": -1},
    "refusal": {"ok": False, "rid": 3},
    "error reply": {"ok": False, "error": "crashed", "rid": 3},
    "ok is 1": {"ok": 1, "rid": 3},
    "reply with an extra key": {"ok": True, "value": 1, "rid": 3, "pid": 0},
    "ping reply": {"ok": True, "pid": 0, "rid": 3},
    "reply without rid": {"ok": True},
    "reply rid None": {"ok": True, "rid": None},
    "reply rid past u32": {"ok": True, "value": (1, 2), "rid": 2**32},
    "reply bool rid": {"ok": True, "rid": True},
}

PACKED_FRAMES = [
    {"cmd": "put", "x": 3, "v": 2_000_000_017, "rid": 41},
    {"cmd": "put", "x": 0, "v": {"a": ("é", None)}, "rid": 2**32 - 1},
    {"cmd": "get", "x": 2**16 - 1, "rid": 0},
    {"ok": True, "rid": 7},
    {"ok": True, "value": (1_000_000_001, None), "rid": 300},
    {"ok": True, "value": None, "rid": 1},
]


class TestPackedClientFrames:
    @given(exact_frames)
    @settings(max_examples=150, deadline=None)
    def test_the_four_exact_shapes_pack(self, frame):
        body = wire.encode_body(frame, wire.CODEC_BINARY)
        assert body[0] == (
            wire.MAGIC_REQUEST if "cmd" in frame else wire.MAGIC_REPLY
        )
        assert wire.body_codec(body) == wire.CODEC_BINARY
        decoded = wire.decode(body)
        assert decoded == frame and typed(decoded) == typed(frame)
        # canonical, as the message layout is
        assert wire.encode_body(decoded, wire.CODEC_BINARY) == body

    @given(st.one_of(exact_frames, loose_frames))
    @settings(max_examples=400, deadline=None)
    def test_generated_frames_round_trip_and_only_exact_shapes_pack(self, frame):
        body = wire.encode_body(frame, wire.CODEC_BINARY)
        assert body[0] == expected_magic(frame)
        assert wire.body_codec(body) == wire.CODEC_BINARY
        decoded = wire.decode(body)
        assert decoded == frame and typed(decoded) == typed(frame)

    @pytest.mark.parametrize("shape", sorted(NEAR_MISSES))
    def test_near_misses_fall_back_to_generic_tlv(self, shape):
        frame = NEAR_MISSES[shape]
        body = wire.encode_body(frame, wire.CODEC_BINARY)
        assert body[0] == wire.MAGIC_BINARY
        decoded = wire.decode(body)
        assert decoded == frame and repr(decoded) == repr(frame)

    @pytest.mark.parametrize(
        "frame, size",
        [
            ({"cmd": "put", "x": 3, "v": 2_000_000_017, "rid": 41}, 13),
            ({"cmd": "get", "x": 3, "rid": 41}, 8),
            ({"ok": True, "rid": 41}, 6),
        ],
    )
    def test_packed_sizes(self, frame, size):
        assert len(wire.encode_body(frame, wire.CODEC_BINARY)) == size

    @pytest.mark.parametrize("frame", PACKED_FRAMES, ids=repr)
    def test_truncation_and_corruption_decode_or_raise_value_error(self, frame):
        body = wire.encode_body(frame, wire.CODEC_BINARY)
        assert body[0] in (wire.MAGIC_REQUEST, wire.MAGIC_REPLY)
        for cut in range(len(body)):
            with pytest.raises(ValueError):
                wire.decode(body[:cut])
        with pytest.raises(ValueError):
            wire.decode(body + b"\x00")
        for at in range(len(body)):
            for byte in range(256):
                if byte == body[at]:
                    continue
                hostile = body[:at] + bytes((byte,)) + body[at + 1 :]
                try:
                    decoded = wire.decode(hostile)
                except ValueError:
                    continue
                assert isinstance(decoded, dict), (at, byte, decoded)

    @pytest.mark.parametrize(
        "body",
        [
            b"\xb4\x00\x00\x00\x00\x05\x00\x02",  # verb 0
            b"\xb4\x03\x00\x00\x00\x05\x00\x02",  # verb past the table
            b"\xb4\x02\x00\x00\x00\x05\x00\x02\x00",  # get with a tail
            b"\xb4\x01\x00\x00\x00\x05\x00\x02",  # put without a value
            b"\xb4\x01\x00\x00\x00\x05\x00\x02\x00\x00",  # two values
            b"\xb5\x02\x00\x00\x00\x05",  # unknown flags
            b"\xb5\x00\x00\x00\x00\x05\x00",  # ack with a tail
            b"\xb5\x01\x00\x00\x00\x05",  # value flag, no value
            b"\xb5\x01\x00\x00\x00\x05\x13",  # value is an unknown tag
        ],
    )
    def test_malformed_packed_bodies_raise_value_error(self, body):
        with pytest.raises(ValueError):
            wire.decode(body)

    def test_packed_frames_ride_batch_containers_unchanged(self):
        frames = PACKED_FRAMES + [NEAR_MISSES["error reply"]]
        bodies = [wire.encode_body(f, wire.CODEC_BINARY) for f in frames]
        bodies.append(wire.encode_body(PACKED_FRAMES[0], wire.CODEC_JSON))
        batch = wire.encode_batch(bodies)[4:]
        assert wire.split_batch(batch) == bodies
        assert wire.decode_frames(batch) == frames + [PACKED_FRAMES[0]]

    def test_json_spelling_is_untouched(self):
        for frame in PACKED_FRAMES:
            body = wire.encode_body(frame, wire.CODEC_JSON)
            assert body[:1] == b"{" and wire.body_codec(body) == wire.CODEC_JSON
            assert wire.decode(body) == frame


# ----------------------------------------------------------------------
# Malformed bodies raise ValueError, nothing else
# ----------------------------------------------------------------------
def valid_bodies():
    frame = {
        "t": "ctl",
        "src": 0,
        "body": {"kind": "hb", "frontier": [3, 2**20, 0], "note": "é" * 3},
    }
    return {
        "json": wire.encode_body(frame, wire.CODEC_JSON),
        "binary": wire.encode_body(frame, wire.CODEC_BINARY),
        "packed": wire.encode_body(
            envelope(payload={"op": ("w", "x", 2**40), "seq": 6}),
            wire.CODEC_BINARY,
        ),
    }


class TestMalformedBodies:
    @pytest.mark.parametrize("kind", ["json", "binary", "packed"])
    def test_every_proper_prefix_raises_value_error(self, kind):
        body = valid_bodies()[kind]
        wire.decode(body)
        for cut in range(len(body)):
            with pytest.raises(ValueError):
                wire.decode(body[:cut])

    def test_truncated_packed_header_fails_the_peek(self):
        body = valid_bodies()["packed"]
        for cut in range(1, 11):  # magic present, fixed header cut short
            with pytest.raises(ValueError):
                wire.msg_header(body[:cut])
        assert wire.msg_header(body[:11]) == (2, 1, 5, 3)

    def test_batch_prefix_is_an_error_or_a_prefix_of_the_frames(self):
        # a container carries no count, so a cut on a sub-body boundary
        # is a shorter container; anywhere else it must be a ValueError
        bodies = list(valid_bodies().values())
        frames = [wire.decode(b) for b in bodies]
        batch = wire.encode_batch(bodies)[4:]
        assert wire.decode_frames(batch) == frames
        boundaries = 0
        for cut in range(1, len(batch)):
            try:
                got = wire.decode_frames(batch[:cut])
            except ValueError:
                continue
            boundaries += 1
            assert got == frames[: len(got)] and len(got) < len(frames)
        assert boundaries == len(frames)  # the empty container + 2 cuts

    @pytest.mark.parametrize(
        "body",
        [
            b"\xb1\x0e\x05",  # tuple of five, no items
            b"\xb1\x04\x00",  # int32 cut short
            b"\xb1\x12\xff",  # key index past the intern table
            b"\xb1" + b"\x0c\x01" * 5000 + b"\x00",  # 5000 nested lists
            b"\xb1\x10\x01\x0c\x00\x00",  # a list as a dict key
            b"\xb1\x13",  # unknown tag
            b"\xb1\x09\xff\xff\xff\xffab",  # str32 longer than the body
            b"\xb3\x00\x02\x00\x01\x00\x00\x00\x05\x00\x40" + b"\x00" * 8,
            b"\xb3\x00\x02\x00\x01\x00\x00\x00\x05\xff\xff\x13",
            b"\xb3\x00\x02\x00\x01\x00\x00\x00\x05\xff\xff\x00\x00",
            b"\xb2\x00\x00",  # batch: length prefix cut short
            b"\xb2\x00\x00\x00\x09\x00",  # batch: sub-body cut short
            b"[" * 5000,  # JSON nested past the parser's recursion
            b"\xff\xfe",  # not UTF-8
        ],
    )
    def test_hostile_bodies_raise_value_error(self, body):
        with pytest.raises(ValueError):
            wire.decode_frames(body)

    def test_nesting_up_to_the_cap_still_decodes(self):
        value = []
        for _ in range(wire.MAX_DEPTH - 1):
            value = [value]
        assert roundtrip(value, wire.CODEC_BINARY) == value
        with pytest.raises(ValueError):
            roundtrip([value], wire.CODEC_BINARY)


# ----------------------------------------------------------------------
# Mixed-codec cluster smoke: one JSON node among binary peers
# ----------------------------------------------------------------------
class TestMixedCluster:
    def test_json_node_among_binary_peers_converges(self):
        async def body():
            cluster = LiveCluster(
                3,
                base_port=BASE_PORT,
                seed=7,
                streams=2,
                k=2,
                proxied=False,
                codec={0: wire.CODEC_JSON},  # pids 1, 2 default to binary
            )
            await cluster.start()
            try:
                await asyncio.sleep(0.3)
                addrs = {pid: cluster.client_addr(pid) for pid in range(3)}
                spec = WorkloadSpec(
                    kind="open", rate=25.0, write_ratio=0.6, hot_key_weight=0.3
                )
                report = await run_load(
                    addrs, spec, streams=2, duration=1.2, seed=7
                )
                assert report.completed > 30, report
                assert report.errors == 0, report
                converged = False
                for _ in range(20):
                    await asyncio.sleep(0.25)
                    if await converged_windows(addrs, 2):
                        converged = True
                        break
                assert converged, "mixed-codec cluster did not converge"
                for pid in range(3):
                    reply = await client_call(addrs[pid], {"cmd": "status"})
                    status = reply["status"]
                    assert status["monitor"]["ok"], status["monitor"]
                    # sender codec actually differs across the cluster
                    expect = wire.CODEC_JSON if pid == 0 else wire.CODEC_BINARY
                    assert status["wire"]["codec"] == expect
            finally:
                await cluster.close()

        asyncio.run(body())
