"""Wire format of the live service plane: length-prefixed frames, two
self-describing body codecs — the binary one with packed layouts for
the hot frame shapes (the broadcast message, the ``put``/``get`` request
and its reply).

One frame is a 4-byte big-endian length followed by a body.  Two body
codecs share the framing, distinguished by the body's first byte:

``json`` (the PR 9 format, kept as the compat fallback)
    a UTF-8 JSON text.  The runtime payloads are not plain JSON values —
    message ids are tuples used as dict keys and compared structurally,
    vector stamps are tuples, and LWW log entries nest tuples inside
    tuples — so the codec tags them: a tuple encodes as ``{"__t":
    [items]}``, and a dict whose keys are not all strings (or that
    collides with a tag key) as ``{"__d": [[key, value], ...]}``.
    JSON text never starts with byte ``0xB1`` (not a valid first byte
    of a JSON document), which is what makes the dispatch sound.

``binary`` (PR 10, the hot-path default)
    a compact struct-packed tag-length-value encoding, pure stdlib.
    Tuples, non-string dict keys and arbitrary nesting are native — no
    recursive tag/untag walk, one pass per value — the common small
    payloads (pids, sequence numbers, vector stamps) pack into one to
    five bytes each, and the dict keys the runtime actually sends
    (``src``, ``stamp``, ``payload``, …) intern to two bytes via a
    frozen key table.  The body starts with the magic byte ``0xB1``.

    One frame shape dominates a saturated cluster — the broadcast body
    envelope ``{"t": "msg", "src": s, "body": {"id": (origin, seq),
    "origin": origin, "payload": p[, "stamp": (...)]}}``, sent n-1 times
    per write, once to each peer — so
    the binary codec gives it a **packed layout** (PR 13), a third
    self-describing body kind with first byte ``0xB3``::

        0xB3 | src u16 | origin u16 | seq u32 | stamp length u16
             | stamp entries u32 ... | TLV-encoded payload

    (big-endian; stamp length ``0xFFFF`` = no ``stamp`` key).  It is a
    codec-internal optimisation, not a protocol knob: ``encode_body``
    recognises the envelope and packs it, and **falls back to generic
    TLV** whenever the shape does not fit exactly — a non-tuple id, a
    ``kind`` key (every control message of the lazy relay and the
    sequencer), any extra or missing key, an int outside its header
    field, a bool where a pid belongs — never an error; ``decode`` of a
    ``0xB3`` body returns the *equal* envelope a generic frame would.
    Callers cannot tell, which is what keeps the fault proxy, captures
    and mixed JSON/binary clusters codec-blind.  Three things ride on
    the fixed header:

    * the header is one ``struct`` call where TLV spends ~15 recursive
      value calls, and only ``payload`` goes through TLV at all;
    * :func:`msg_header` reads the fixed fields off the header without
      decoding — the transport refuses a frame whose pids or stamp do
      not fit its cluster, then asks the broadcast layer "seen?" and
      drops a duplicate (a frame the wire duplicated, a resync replay,
      a lazy relay's push of an id already held) unparsed;
    * the encoding is canonical, so :func:`readdress` — overwrite the
      two ``src`` bytes — yields byte for byte what encoding the same
      message from the new sender would; a relay (the lazy one's push,
      or the flood where a node runs it) forwards the bytes it received
      instead of re-encoding the dict it just decoded.

    The client hop gets the same treatment for the frames every
    operation pays for — one request and one reply — as two more
    self-describing body kinds::

        0xB4 | verb u8 | rid u32 | x u16 | TLV-encoded v   (put only)
        0xB5 | flags u8 | rid u32 | TLV-encoded value      (flags 1 only)

    ``0xB4`` is ``{"cmd": "put", "x", "v", "rid"}`` (verb 1) or
    ``{"cmd": "get", "x", "rid"}`` (verb 2; other verb bytes are free
    for later commands); ``0xB5`` is ``{"ok": True, "rid"}`` (flags 0)
    or ``{"ok": True, "value", "rid"}`` (flags 1).  The same fallback
    rule holds: any near-miss — another ``cmd``, ``ok: False`` or an
    ``error``, an extra or missing key, an ``x`` or ``rid`` that is not
    an ``int`` (a ``bool`` is not) or does not fit its field — encodes
    as generic TLV, never an error, and ``decode`` returns the equal
    dict either way, so the server validates a packed request exactly
    as it validates any other.

A third body shape rides above both codecs: the **batch container**
(first byte ``0xB2``), a concatenation of length-prefixed sub-bodies.
It belongs to the *framing* layer, not the codec — each sub-body is
itself self-describing, so a container can carry either codec's frames
(mixed, even).  That placement is what makes frame coalescing nearly
free: the transport encodes each logical frame exactly once when it is
queued (a multicast shares one encoding across all destinations), and
folding a queue into a container is pure bytes concatenation — one
length prefix, one write for up to
:attr:`~repro.service.transport.AsyncioTransport.BATCH_MAX` frames.

:func:`decode` dispatches on the first byte, so a receiver handles both
codecs frame by frame with no negotiation state — which is what lets a
mixed cluster (one JSON node among binary nodes) interoperate, and what
keeps the :class:`~repro.service.proxy.FaultProxy`'s opaque forwarding
(:func:`read_body`, then :func:`frame`) codec-blind.  *Senders* declare their
codec in the hello frame (which is always JSON so the oldest receiver
can read it); a receiver that sees an unknown codec name simply relies
on the per-frame dispatch.

Both codecs round-trip ints exactly and floats bit-for-bit (JSON via
``repr``, binary via IEEE-754 doubles), so a decoded frame compares
equal to what was sent — which the dedup frontiers and causal stamps
rely on.  The framing helpers cap the body size so a corrupt length
prefix cannot balloon a read, and every decoder here — TLV, packed
header and peek, batch split, JSON — turns truncation, unknown tags,
out-of-table key indices and nesting past :data:`MAX_DEPTH` into
``ValueError``, the one exception the connections treat as "close
this connection": hostile bytes cost a peer its socket and nothing
more.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

#: frame length prefix: unsigned 32-bit big-endian
_LEN = struct.Struct(">I")

#: hard cap on a single frame body (16 MiB) — a corrupt or hostile
#: length prefix fails fast instead of buffering unbounded input
MAX_FRAME = 16 * 1024 * 1024

_TAGS = ("__t", "__d")

#: codec names (what hello frames carry)
CODEC_JSON = "json"
CODEC_BINARY = "binary"
CODECS = (CODEC_JSON, CODEC_BINARY)

#: first body byte of a binary frame; JSON text (ws, ``{[``, digits,
#: ``"tfn-``) can never start with it
MAGIC_BINARY = 0xB1

#: first body byte of a batch container frame: a concatenation of
#: length-prefixed sub-bodies, each itself self-describing (either
#: codec — the container is codec-neutral).  Folding a queue into a
#: container is pure bytes concatenation: the sub-bodies were encoded
#: once, when first queued, and a multicast shares one encoding across
#: every peer.
MAGIC_BATCH = 0xB2

#: first body byte of a packed broadcast-message frame — the binary
#: codec's layout for the hot peer frame shape (see the module docstring)
MAGIC_MSG = 0xB3

#: first body bytes of a packed ``put``/``get`` client request and of a
#: packed ``ok`` reply — the binary codec's layouts for the client hop
MAGIC_REQUEST = 0xB4
MAGIC_REPLY = 0xB5

#: deepest container nesting the decoders accept; runtime payloads nest
#: a handful of levels, so anything near the cap is hostile input
MAX_DEPTH = 64


# ----------------------------------------------------------------------
# JSON codec (compat fallback)
# ----------------------------------------------------------------------
def _tag(obj: Any) -> Any:
    if isinstance(obj, tuple):
        return {"__t": [_tag(v) for v in obj]}
    if isinstance(obj, list):
        return [_tag(v) for v in obj]
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and not any(
            k in _TAGS for k in obj
        ):
            return {k: _tag(v) for k, v in obj.items()}
        return {"__d": [[_tag(k), _tag(v)] for k, v in obj.items()]}
    return obj


def _untag(obj: Any) -> Any:
    if isinstance(obj, list):
        return [_untag(v) for v in obj]
    if isinstance(obj, dict):
        if "__t" in obj:
            return tuple(_untag(v) for v in obj["__t"])
        if "__d" in obj:
            return {_untag(k): _untag(v) for k, v in obj["__d"]}
        return {k: _untag(v) for k, v in obj.items()}
    return obj


def _encode_json(obj: Any) -> bytes:
    return json.dumps(
        _tag(obj), separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


# ----------------------------------------------------------------------
# Binary codec (tag-length-value, struct-packed)
# ----------------------------------------------------------------------
# value tags; "short" container/string variants carry a 1-byte length,
# the long variants a 4-byte one — runtime payloads are overwhelmingly
# small, so the common case costs two bytes of overhead per value
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT8 = 0x03  # signed 8-bit
_T_INT32 = 0x04  # signed 32-bit
_T_INT64 = 0x05  # signed 64-bit
_T_INTBIG = 0x06  # 4-byte length + signed big-endian bytes
_T_FLOAT = 0x07  # IEEE-754 double
_T_STR8 = 0x08
_T_STR32 = 0x09
_T_BYTES8 = 0x0A
_T_BYTES32 = 0x0B
_T_LIST8 = 0x0C
_T_LIST32 = 0x0D
_T_TUPLE8 = 0x0E
_T_TUPLE32 = 0x0F
_T_DICT8 = 0x10
_T_DICT32 = 0x11
_T_KEY = 0x12  # 1-byte index into the shared key table

#: the dict keys the runtime actually sends, interned to 2 bytes each —
#: a frozen wire-protocol table (append-only: changing an index breaks
#: decode of in-flight frames across versions, so new keys go at the
#: end).  Unknown keys fall back to ordinary string encoding.
_KEYS = (
    "t", "src", "body", "kind", "payload", "origin", "id", "mid",
    "local_id", "stamp", "seq", "pull", "ids", "adv", "op",
    "invocation", "state", "w", "r", "cmd", "rid", "ok", "x", "v",
    "value", "frontier", "spill", "target", "hb", "error", "count",
    "ops", "codec", "status", "since", "interval", "method", "args",
    "output", "start", "end",
)
_KEY_IDX = {key: i for i, key in enumerate(_KEYS)}

_I8 = struct.Struct(">b")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

#: precomputed 2-byte encodings for the hottest tags — small ints
#: (pids, sequence numbers, vector-stamp entries) and interned keys —
#: turning the common case into one dict/list lookup + one ``+=``
_INT8_ENC = tuple(
    bytes((_T_INT8, value & 0xFF)) for value in range(-128, 128)
)
_KEY_ENC = {key: bytes((_T_KEY, i)) for i, key in enumerate(_KEYS)}


def _enc_value(obj: Any, out: bytearray) -> None:
    kind = obj.__class__
    if kind is int:
        if -128 <= obj <= 127:
            out += _INT8_ENC[obj + 128]
        elif -2147483648 <= obj <= 2147483647:
            out.append(_T_INT32)
            out += _I32.pack(obj)
        elif -(2**63) <= obj < 2**63:
            out.append(_T_INT64)
            out += _I64.pack(obj)
        else:
            raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
            out.append(_T_INTBIG)
            out += _U32.pack(len(raw))
            out += raw
    elif kind is str:
        raw = obj.encode("utf-8")
        size = len(raw)
        if size <= 255:
            out.append(_T_STR8)
            out.append(size)
        else:
            out.append(_T_STR32)
            out += _U32.pack(size)
        out += raw
    elif kind is dict:
        size = len(obj)
        if size <= 255:
            out.append(_T_DICT8)
            out.append(size)
        else:
            out.append(_T_DICT32)
            out += _U32.pack(size)
        for key, value in obj.items():
            enc = _KEY_ENC.get(key) if key.__class__ is str else None
            if enc is not None:
                out += enc
            else:
                _enc_value(key, out)
            _enc_value(value, out)
    elif kind is list or kind is tuple:
        size = len(obj)
        if kind is list:
            short, wide = _T_LIST8, _T_LIST32
        else:
            short, wide = _T_TUPLE8, _T_TUPLE32
        if size <= 255:
            out.append(short)
            out.append(size)
        else:
            out.append(wide)
            out += _U32.pack(size)
        for value in obj:
            # the small ints of stamps and payloads, without a call each
            if value.__class__ is int and -128 <= value <= 127:
                out += _INT8_ENC[value + 128]
            else:
                _enc_value(value, out)
    elif obj is None:
        out.append(_T_NONE)
    elif obj is True:
        out.append(_T_TRUE)
    elif obj is False:
        out.append(_T_FALSE)
    elif kind is float:
        out.append(_T_FLOAT)
        out += _F64.pack(obj)
    elif isinstance(obj, (bytes, bytearray)):
        size = len(obj)
        if size <= 255:
            out.append(_T_BYTES8)
            out.append(size)
        else:
            out.append(_T_BYTES32)
            out += _U32.pack(size)
        out += obj
    elif isinstance(obj, (int, float, str, list, tuple, dict)):
        # subclasses (e.g. IntEnum) encode as their base value
        base: Any
        if isinstance(obj, bool):
            base = bool(obj)
        elif isinstance(obj, int):
            base = int(obj)
        elif isinstance(obj, float):
            base = float(obj)
        elif isinstance(obj, str):
            base = str(obj)
        elif isinstance(obj, tuple):
            base = tuple(obj)
        elif isinstance(obj, list):
            base = list(obj)
        else:
            base = dict(obj)
        _enc_value(base, out)
    else:
        raise TypeError(
            f"binary codec cannot encode {type(obj).__name__!r}"
        )


def _encode_binary(obj: Any) -> bytes:
    if obj.__class__ is dict:
        packed = None
        if len(obj) == 3 and obj.get("t") == "msg":
            packed = _pack_msg(obj)
        elif "cmd" in obj:
            packed = _pack_request(obj)
        elif obj.get("ok") is True:
            packed = _pack_reply(obj)
        if packed is not None:
            return packed
    out = bytearray((MAGIC_BINARY,))
    _enc_value(obj, out)
    return bytes(out)


def _dec_value(buf: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == _T_INT8:
        value = buf[pos]
        return (value - 256 if value > 127 else value), pos + 1
    if tag == _T_KEY:
        return _KEYS[buf[pos]], pos + 1
    if tag == _T_STR8:
        size = buf[pos]
        pos += 1
        return buf[pos : pos + size].decode("utf-8"), pos + size
    if tag == _T_DICT8 or tag == _T_DICT32:
        if tag == _T_DICT8:
            size = buf[pos]
            pos += 1
        else:
            size = _U32.unpack_from(buf, pos)[0]
            pos += 4
        if depth >= MAX_DEPTH:
            raise ValueError(f"binary codec: nesting deeper than {MAX_DEPTH}")
        depth += 1
        result: Dict[Any, Any] = {}
        for _ in range(size):
            key, pos = _dec_value(buf, pos, depth)
            value, pos = _dec_value(buf, pos, depth)
            result[key] = value
        return result, pos
    if tag == _T_LIST8 or tag == _T_LIST32 or tag == _T_TUPLE8 or tag == _T_TUPLE32:
        if tag == _T_LIST8 or tag == _T_TUPLE8:
            size = buf[pos]
            pos += 1
        else:
            size = _U32.unpack_from(buf, pos)[0]
            pos += 4
        if depth >= MAX_DEPTH:
            raise ValueError(f"binary codec: nesting deeper than {MAX_DEPTH}")
        depth += 1
        items: List[Any] = []
        append = items.append
        for _ in range(size):
            if buf[pos] == _T_INT8:  # inline, as the encoder writes them
                value = buf[pos + 1]
                append(value - 256 if value > 127 else value)
                pos += 2
            else:
                value, pos = _dec_value(buf, pos, depth)
                append(value)
        if tag == _T_TUPLE8 or tag == _T_TUPLE32:
            return tuple(items), pos
        return items, pos
    if tag == _T_INT32:
        return _I32.unpack_from(buf, pos)[0], pos + 4
    if tag == _T_INT64:
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_FLOAT:
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_STR32:
        size = _U32.unpack_from(buf, pos)[0]
        pos += 4
        return buf[pos : pos + size].decode("utf-8"), pos + size
    if tag == _T_BYTES8:
        size = buf[pos]
        pos += 1
        return bytes(buf[pos : pos + size]), pos + size
    if tag == _T_BYTES32:
        size = _U32.unpack_from(buf, pos)[0]
        pos += 4
        return bytes(buf[pos : pos + size]), pos + size
    if tag == _T_INTBIG:
        size = _U32.unpack_from(buf, pos)[0]
        pos += 4
        return (
            int.from_bytes(buf[pos : pos + size], "big", signed=True),
            pos + size,
        )
    raise ValueError(f"binary codec: unknown tag 0x{tag:02x} at {pos - 1}")


#: what a truncated or corrupt body makes the decoders trip over — a
#: read past the end, a short fixed-width field, an unhashable dict key
#: — all surfaced as the one exception the connections catch
_MALFORMED = (IndexError, struct.error, TypeError)


def _decode_tail(body: bytes, pos: int) -> Any:
    """The one TLV value that runs from ``pos`` to the end of ``body``."""
    try:
        value, end = _dec_value(body, pos, 0)
    except _MALFORMED as exc:
        raise ValueError(f"binary codec: malformed frame ({exc})") from None
    if end != len(body):
        raise ValueError("binary codec: frame length does not match its value")
    return value


def _decode_binary(body: bytes) -> Any:
    return _decode_tail(body, 1)


# ----------------------------------------------------------------------
# Packed broadcast-message frames (binary codec, first byte 0xB3)
# ----------------------------------------------------------------------
#: fixed header after the magic byte: src, origin (u16), seq (u32),
#: stamp length (u16; _NO_STAMP = the message carries no stamp), then
#: that many u32 stamp entries, then the TLV-encoded payload
_MSG_HEAD = struct.Struct(">HHIH")
_MSG_ID_AT = 3  # where (origin, seq) starts: all that follows the src
_MSG_BODY_AT = 1 + _MSG_HEAD.size
_U16 = struct.Struct(">H")
_NO_STAMP = 0xFFFF

#: compiled layouts by stamp length: the whole header for packing, the
#: stamp entries alone for unpacking (a cluster uses one length; hostile
#: lengths are compiled each time once the caches are full)
_MSG_PACKERS: Dict[int, struct.Struct] = {}
_STAMP_UNPACKERS: Dict[int, struct.Struct] = {}
_LAYOUTS_CACHED = 64


def _layout(cache: Dict[int, struct.Struct], fmt: str, count: int) -> struct.Struct:
    layout = cache.get(count)
    if layout is None:
        layout = struct.Struct(fmt % count)
        if len(cache) < _LAYOUTS_CACHED:
            cache[count] = layout
    return layout


def _pack_msg(obj: Dict[str, Any]) -> Optional[bytes]:
    """Packed encoding of ``{"t": "msg", "src": s, "body": {"id":
    (origin, seq), "origin": origin, "payload": p[, "stamp": (...)]}}``,
    or ``None`` when ``obj`` is not *exactly* that shape with every
    header int in range — the caller then encodes it as generic TLV, so
    a near-miss (non-tuple id, a ``kind`` key, a bool pid) costs bytes,
    never an error."""
    src = obj.get("src")
    message = obj.get("body")
    if src.__class__ is not int or message.__class__ is not dict:
        return None
    mid = message.get("id")
    origin = message.get("origin")
    if (
        mid.__class__ is not tuple
        or len(mid) != 2
        or origin.__class__ is not int
        or mid[0].__class__ is not int
        or mid[0] != origin
        or mid[1].__class__ is not int
        or "payload" not in message
    ):
        return None
    stamp: Any = ()
    count = _NO_STAMP
    if len(message) != 3:
        stamp = message.get("stamp")
        if len(message) != 4 or stamp.__class__ is not tuple:
            return None
        count = len(stamp)
        if count >= _NO_STAMP:
            return None
        for entry in stamp:
            if entry.__class__ is not int:
                return None
    try:
        out = bytearray(
            _layout(_MSG_PACKERS, ">BHHIH%dI", len(stamp)).pack(
                MAGIC_MSG, src, origin, mid[1], count, *stamp
            )
        )
    except struct.error:  # an int outside its header field
        return None
    _enc_value(message["payload"], out)
    return bytes(out)


def _decode_msg(body: bytes) -> Dict[str, Any]:
    pos = _MSG_BODY_AT
    stamp = None
    try:
        src, origin, seq, count = _MSG_HEAD.unpack_from(body, 1)
        if count != _NO_STAMP:
            stamp = _layout(_STAMP_UNPACKERS, ">%dI", count).unpack_from(
                body, pos
            )
            pos += 4 * count
    except struct.error:
        raise ValueError("binary codec: truncated message header") from None
    message = {
        "id": (origin, seq),
        "origin": origin,
        "payload": _decode_tail(body, pos),
    }
    if stamp is not None:
        message["stamp"] = stamp
    return {"t": "msg", "src": src, "body": message}


def msg_header(body: bytes) -> Optional[Tuple[int, int, int, Optional[int]]]:
    """``(src, origin, seq, stamp entries or None)`` of a packed
    broadcast-message body read straight off its header — no decode — or
    ``None`` for any other body.  This is what lets a receiver refuse a
    frame from outside its cluster, and drop a duplicate, before paying
    for the parse."""
    if not body or body[0] != MAGIC_MSG:
        return None
    try:
        src, origin, seq, count = _MSG_HEAD.unpack_from(body, 1)
    except struct.error:
        raise ValueError("binary codec: truncated message header") from None
    return src, origin, seq, None if count == _NO_STAMP else count


def readdress(body: bytes, src: int) -> bytes:
    """A packed broadcast-message body re-addressed as sent by ``src``:
    one concat, and — the encoding being canonical — byte for byte what
    :func:`encode_body` would produce for the same message from ``src``
    (which must fit the header's u16, as every pid that packs does)."""
    return body[:1] + _U16.pack(src) + body[_MSG_ID_AT:]


# ----------------------------------------------------------------------
# Packed client frames (binary codec, first bytes 0xB4 / 0xB5)
# ----------------------------------------------------------------------
#: request: magic, verb, rid (u32), x (u16), then the TLV value of a put
_REQ_HEAD = struct.Struct(">BBIH")
_VERB_PUT = 1
_VERB_GET = 2
#: reply: magic, flags, rid (u32), then the TLV value when flags say so
_REPLY_HEAD = struct.Struct(">BBI")
_REPLY_ACK = 0
_REPLY_VALUE = 1


def _pack_request(obj: Dict[str, Any]) -> Optional[bytes]:
    """Packed encoding of ``{"cmd": "put", "x", "v", "rid"}`` or
    ``{"cmd": "get", "x", "rid"}``, or ``None`` when ``obj`` is not
    exactly one of the two with ``x`` and ``rid`` ints inside their
    header fields — the caller then encodes it as generic TLV."""
    cmd = obj["cmd"]
    rid = obj.get("rid")
    x = obj.get("x")
    if rid.__class__ is not int or x.__class__ is not int:
        return None
    try:
        if cmd == "get":
            if len(obj) != 3:
                return None
            return _REQ_HEAD.pack(MAGIC_REQUEST, _VERB_GET, rid, x)
        if cmd != "put" or len(obj) != 4 or "v" not in obj:
            return None
        out = bytearray(_REQ_HEAD.pack(MAGIC_REQUEST, _VERB_PUT, rid, x))
    except struct.error:  # negative, or too wide for its field
        return None
    _enc_value(obj["v"], out)
    return bytes(out)


def _decode_request(body: bytes) -> Dict[str, Any]:
    try:
        _magic, verb, rid, x = _REQ_HEAD.unpack_from(body)
    except struct.error:
        raise ValueError("binary codec: truncated request header") from None
    if verb == _VERB_PUT:
        value = _decode_tail(body, _REQ_HEAD.size)
        return {"cmd": "put", "x": x, "v": value, "rid": rid}
    if verb != _VERB_GET:
        raise ValueError(f"binary codec: unknown request verb {verb}")
    if len(body) != _REQ_HEAD.size:
        raise ValueError("binary codec: trailing bytes after a get request")
    return {"cmd": "get", "x": x, "rid": rid}


def _pack_reply(obj: Dict[str, Any]) -> Optional[bytes]:
    """Packed encoding of ``{"ok": True, "rid"}`` or ``{"ok": True,
    "value", "rid"}`` (the caller checked ``ok``), or ``None`` for any
    other reply — errors, extra keys, a ``rid`` that is not an int in
    the header's u32."""
    rid = obj.get("rid")
    if rid.__class__ is not int:
        return None
    try:
        if len(obj) == 2:
            return _REPLY_HEAD.pack(MAGIC_REPLY, _REPLY_ACK, rid)
        if len(obj) != 3 or "value" not in obj:
            return None
        out = bytearray(_REPLY_HEAD.pack(MAGIC_REPLY, _REPLY_VALUE, rid))
    except struct.error:
        return None
    _enc_value(obj["value"], out)
    return bytes(out)


def _decode_reply(body: bytes) -> Dict[str, Any]:
    try:
        _magic, flags, rid = _REPLY_HEAD.unpack_from(body)
    except struct.error:
        raise ValueError("binary codec: truncated reply header") from None
    if flags == _REPLY_VALUE:
        value = _decode_tail(body, _REPLY_HEAD.size)
        return {"ok": True, "value": value, "rid": rid}
    if flags != _REPLY_ACK:
        raise ValueError(f"binary codec: unknown reply flags {flags}")
    if len(body) != _REPLY_HEAD.size:
        raise ValueError("binary codec: trailing bytes after an ack")
    return {"ok": True, "rid": rid}


# ----------------------------------------------------------------------
# Public frame API
# ----------------------------------------------------------------------
_ENCODERS: Dict[str, Callable[[Any], bytes]] = {
    CODEC_JSON: _encode_json,
    CODEC_BINARY: _encode_binary,
}


#: the binary codec's body kinds, by first byte
_DECODERS: Dict[int, Callable[[bytes], Any]] = {
    MAGIC_BINARY: _decode_binary,
    MAGIC_MSG: _decode_msg,
    MAGIC_REQUEST: _decode_request,
    MAGIC_REPLY: _decode_reply,
}


def encode_body(obj: Any, codec: str = CODEC_JSON) -> bytes:
    """Serialize one frame body (no length prefix) in ``codec``."""
    try:
        return _ENCODERS[codec](obj)
    except KeyError:
        raise ValueError(
            f"unknown codec {codec!r}; known: {', '.join(CODECS)}"
        ) from None


def frame(body: bytes) -> bytes:
    """Length-prefix an already-encoded body into one wire frame."""
    if len(body) > MAX_FRAME:
        raise ValueError(f"frame too large: {len(body)} bytes")
    return _LEN.pack(len(body)) + body


def encode(obj: Any, codec: str = CODEC_JSON) -> bytes:
    """Serialize one frame (length prefix included)."""
    return frame(encode_body(obj, codec))


def body_codec(body: bytes) -> str:
    """Which codec a frame body is in (first-byte dispatch)."""
    if body and body[0] in _DECODERS:
        return CODEC_BINARY
    return CODEC_JSON


# ----------------------------------------------------------------------
# Batch containers (framing-level, codec-neutral)
# ----------------------------------------------------------------------
def is_batch(body: bytes) -> bool:
    """Is this body a batch container of sub-bodies?"""
    return bool(body) and body[0] == MAGIC_BATCH


def encode_batch(bodies: List[bytes]) -> bytes:
    """Fold already-encoded frame bodies into one container *frame*
    (length prefix included).  Pure concatenation — the whole point:
    the sub-bodies were encoded exactly once, upstream, and a multicast
    shares one encoding across every destination queue."""
    parts = [b"", bytes((MAGIC_BATCH,))]
    total = 1
    for body in bodies:
        parts.append(_LEN.pack(len(body)))
        parts.append(body)
        total += 4 + len(body)
    if total > MAX_FRAME:
        raise ValueError(f"batch frame too large: {total} bytes")
    parts[0] = _LEN.pack(total)
    return b"".join(parts)


def split_batch(body: bytes) -> List[bytes]:
    """Sub-bodies of a batch container body, in fold order."""
    out: List[bytes] = []
    pos = 1
    end = len(body)
    while pos < end:
        if pos + 4 > end:
            raise ValueError("batch container: truncated length prefix")
        (length,) = _LEN.unpack_from(body, pos)
        pos += 4
        if pos + length > end:
            raise ValueError("batch container: truncated sub-body")
        out.append(body[pos : pos + length])
        pos += length
    return out


class FrameSplitter:
    """Wire bytes in, frame bodies out, for a connection's protocol.

    :meth:`feed` takes whatever a socket read returned and hands each
    complete wire frame to ``on_frame(bodies, batched)`` as it
    completes: a plain frame as ``[body], False``, a batch container as
    its sub-bodies in fold order and ``True``.  A length prefix over
    :data:`MAX_FRAME` raises ``ValueError`` before any of its body is
    buffered, as does a malformed container, and so does whatever
    ``on_frame`` raises — the protocol closes that one connection.

    Setting :attr:`held` (from inside ``on_frame``, or while the reads
    are paused) stops the splitting after the current frame; what is
    left stays buffered until :meth:`resume`.
    """

    def __init__(self, on_frame: Callable[[List[bytes], bool], None]) -> None:
        self.on_frame = on_frame
        self.held = False
        self._buf = bytearray()
        #: buffered bytes needed before the next frame can complete
        self._need = _LEN.size

    def feed(self, data: bytes) -> None:
        buf = self._buf
        if buf:
            buf += data
            if len(buf) < self._need or self.held:
                return
            data = bytes(buf)
            buf.clear()
        self._split(data)

    def resume(self) -> None:
        """Clear :attr:`held` and split what was buffered meanwhile."""
        self.held = False
        data = bytes(self._buf)
        self._buf.clear()
        self._split(data)

    def _split(self, data: bytes) -> None:
        pos, end = 0, len(data)
        need = _LEN.size
        while not self.held and end - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(data, pos)
            if length > MAX_FRAME:
                raise ValueError(f"frame too large: {length} bytes")
            stop = pos + _LEN.size + length
            if stop > end:
                need = stop - pos
                break
            body = data[pos + _LEN.size : stop]
            pos = stop
            if body and body[0] == MAGIC_BATCH:
                self.on_frame(split_batch(body), True)
            else:
                self.on_frame([body], False)
        if pos < end:
            self._buf += memoryview(data)[pos:]
        self._need = need


def decode_frames(body: bytes) -> List[Any]:
    """Decode a body into its logical frames: one for a plain body, all
    sub-bodies for a batch container (order preserved)."""
    if is_batch(body):
        return [decode(sub) for sub in split_batch(body)]
    return [decode(body)]


def decode(body: bytes) -> Any:
    """Deserialize a frame body (length prefix already stripped).

    Dispatches on the body's first byte, so JSON and binary frames can
    interleave on one connection and no negotiation state is needed to
    read — senders choose, receivers just decode.
    """
    if body:
        decoder = _DECODERS.get(body[0])
        if decoder is not None:
            return decoder(body)
    try:
        return _untag(json.loads(body.decode("utf-8")))
    except RecursionError:
        raise ValueError("json codec: nesting too deep") from None


async def read_body(reader: asyncio.StreamReader) -> bytes:
    """Read one frame's body off a stream (length prefix stripped, not
    decoded) — how the fault proxy reads the frames it forwards; raises
    ``asyncio.IncompleteReadError`` on EOF."""
    prefix = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME:
        raise ValueError(f"frame too large: {length} bytes")
    return await reader.readexactly(length)
