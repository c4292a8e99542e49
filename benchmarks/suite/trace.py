"""Spans around the layers' public callables, recorded from outside.

Nothing in ``src/`` records anything: a traced run replaces the public
entry points of each layer (class attributes, ``service.wire`` module
functions, and the handler tables ``Transport.handlers`` /
``BroadcastService.delivery_handlers``) with timing wrappers, runs the
workload, and puts the originals back.  A span is (name, start, end,
parent = the enclosing span on the call stack, request id where the
boundary exposes one).  A layer's *self* time is its span minus the
part its child spans cover, so the self times of all layers add up to
the time spent under any wrapper, and what is left of the process CPU is
the event loop plus everything not reachable through a public function.

Every span updates the per-name totals; raw spans are kept only for one
span in :data:`SAMPLE_EVERY` of those outside an already sampled subtree
(with its whole subtree) up to :data:`RAW_CAP`, which keeps a run's JSON
under 5 MB.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.algorithms.ccv_window import CCvWindowArray
from repro.criteria.streaming_monitor import StreamingMonitor
from repro.runtime.broadcast import CausalBroadcast
from repro.runtime.monitors import RuntimeMonitor
from repro.runtime.network import Network
from repro.runtime.recorder import HistoryRecorder
from repro.runtime.simulator import Simulator
from repro.service import wire
from repro.service.cluster import ClientSession
from repro.service.tap import RingTap
from repro.service.transport import AsyncioTransport

#: one candidate span in this many keeps its raw subtree
SAMPLE_EVERY = 64
#: most raw spans kept per run (~100 bytes each as JSON)
RAW_CAP = 30_000
#: the broadcast probe reads the retained log (a walk over every
#: process's log) once in this many receives
LOG_PROBE_EVERY = 256

RidFn = Callable[[Tuple[Any, ...], Any], Any]


class Tracer:
    """Span stack, per-name self/total time and a bounded raw sample."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: open spans: [name, start, child_ns, span_id, sampled]
        self.stack: List[List[Any]] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.count: Dict[str, int] = defaultdict(int)
        #: extra counts taken at the same boundaries (bytes, fresh receives)
        self.counters: Dict[str, int] = defaultdict(int)
        #: sampled (span_id, parent_id, name, start_ns, end_ns, rid)
        self.raw: List[Tuple[int, int, str, int, int, Any]] = []
        self._next_id = 0
        self._candidates = 0

    # -- span bookkeeping -------------------------------------------------
    def enter(self, name: str) -> List[Any]:
        stack = self.stack
        sampled = stack[-1][4] if stack else False
        if not sampled:
            # a span outside any sampled subtree is a sampling candidate
            self._candidates += 1
            sampled = (
                self._candidates % SAMPLE_EVERY == 0 and len(self.raw) < RAW_CAP
            )
        self._next_id += 1
        frame = [name, 0, 0, self._next_id, sampled]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: List[Any], rid: Any = None) -> None:
        end = self.clock()
        stack = self.stack
        stack.pop()
        name = frame[0]
        dur = end - frame[1]
        self.self_ns[name] += dur - frame[2]
        self.total_ns[name] += dur
        self.count[name] += 1
        parent = 0
        if stack:
            stack[-1][2] += dur
            parent = stack[-1][3]
        if frame[4]:
            self.raw.append((frame[3], parent, name, frame[1], end, rid))

    # -- wrappers ---------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        rid: Optional[RidFn] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span called ``name``.  ``rid(args, result)``
        names the request for sampled spans; ``after(result)`` runs once
        the span is closed (counts taken at the boundary)."""
        enter, leave = self.enter, self.exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(
                    frame,
                    rid(args, result) if rid is not None and frame[4] else None,
                )
                if after is not None:
                    after(result)

        return traced

    def wrap_async(
        self, name: str, fn: Callable[..., Any], rid: Optional[RidFn] = None
    ) -> Callable[..., Any]:
        """A coroutine function traced one synchronous step at a time:
        the time it spends suspended belongs to whoever runs meanwhile."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> "_SteppedAwaitable":
            return _SteppedAwaitable(tracer, name, fn(*args, **kwargs), args, rid)

        return traced

    # -- results ----------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "count": self.count[name],
                "self_s": self.self_ns[name] / 1e9,
                "total_s": self.total_ns[name] / 1e9,
            }
            for name in sorted(self.count)
        }

    def self_seconds(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def raw_spans(self) -> List[Dict[str, Any]]:
        return [
            {
                "id": sid,
                "parent": parent,
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "rid": rid,
            }
            for sid, parent, name, start, end, rid in self.raw
        ]


class _SteppedAwaitable:
    """Drives a coroutine by hand so each resume-to-suspend step is its
    own span."""

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        coro: Any,
        args: Tuple[Any, ...],
        rid: Optional[RidFn],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.coro = coro
        self.args = args
        self.rid = rid

    def __await__(self):
        tracer = self.tracer
        gen = self.coro.__await__()
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            frame = tracer.enter(self.name)
            try:
                if error is None:
                    waited = gen.send(value)
                else:
                    waited = gen.throw(error)
            except StopIteration as stop:
                rid = self.rid
                tracer.exit(
                    frame,
                    rid(self.args, stop.value)
                    if rid is not None and frame[4]
                    else None,
                )
                return stop.value
            except BaseException:
                tracer.exit(frame)
                raise
            tracer.exit(frame)
            try:
                value = yield waited
                error = None
            except BaseException as exc:  # cancellation: hand it to the coroutine
                value = None
                error = exc


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _message_id(args: Tuple[Any, ...], _result: Any) -> Any:
    """Broadcast request id ``(origin, seq)`` from a handler's or a
    multicast's message argument (the last positional one)."""
    message = args[-1]
    if isinstance(message, dict):
        mid = message.get("id")
        return list(mid) if mid is not None else None
    return None


def _reply_rid(_args: Tuple[Any, ...], result: Any) -> Any:
    return result.get("rid") if isinstance(result, dict) else None


_MONITOR_HOOKS = (
    "on_deliver",
    "on_fifo_deliver",
    "on_causal_deliver",
    "on_gc",
    "on_pruned_gap",
    "on_resync_stranded",
    "on_pull_stranded",
)

#: (owner, attribute, span name, request id)
PATCHES: Tuple[Tuple[Any, str, str, Optional[RidFn]], ...] = (
    (wire, "encode_body", "wire.encode", None),
    (wire, "encode", "wire.encode", None),
    (wire, "encode_batch", "wire.encode", None),
    (wire, "frame", "wire.encode", None),
    (wire, "decode", "wire.decode", None),
    (wire, "split_batch", "wire.decode", None),
    (wire, "decode_frames", "wire.decode", None),
    (AsyncioTransport, "send", "transport.send", _message_id),
    (AsyncioTransport, "multicast", "transport.send", _message_id),
    (CausalBroadcast, "broadcast", "broadcast.send", None),
    (CCvWindowArray, "invoke", "algorithms.invoke", None),
    (RingTap, "push", "tap.push", None),
    (RingTap, "flush", "tap.drain", None),
    (HistoryRecorder, "record", "recorder.record", None),
    *((RuntimeMonitor, hook, "monitors.check", None) for hook in _MONITOR_HOOKS),
    (Simulator, "run", "simulator.run", None),
    (Network, "send", "network.send", _message_id),
    (Network, "multicast", "network.send", _message_id),
    (StreamingMonitor, "finalize", "streaming_monitor.finalize", None),
)

#: wire functions whose results are bytes put on a socket
_WIRE_FRAMERS = ("frame", "encode_batch")


class Installed:
    """The wrappers of one traced run; :meth:`remove` undoes them all."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def _set(self, owner: Any, attr: str, new: Any) -> None:
        holder = vars(owner)
        old = holder[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def patch_layers(self) -> None:
        """Wrap every public entry point in :data:`PATCHES`, the client
        session's ``call`` and the streaming monitor's ``feed``."""
        tracer = self.tracer
        counters = tracer.counters

        def count_bytes(result: Any) -> None:
            if result is not None:
                counters["wire.bytes"] += len(result)

        for owner, attr, name, rid in PATCHES:
            after = (
                count_bytes if owner is wire and attr in _WIRE_FRAMERS else None
            )
            self._set(
                owner, attr, tracer.wrap(name, vars(owner)[attr], rid, after)
            )
        self._set(
            ClientSession,
            "call",
            tracer.wrap_async(
                "client.call", vars(ClientSession)["call"], _reply_rid
            ),
        )
        feed = vars(StreamingMonitor)["feed"]
        feeds = {
            "w": tracer.wrap("streaming_monitor.feed_write", feed),
            "r": tracer.wrap("streaming_monitor.feed_read", feed),
        }

        def traced_feed(self: Any, pid: int, invocation: Any, output: Any) -> Any:
            return feeds.get(invocation.method, feed)(
                self, pid, invocation, output
            )

        self._set(StreamingMonitor, "feed", traced_feed)

    def wrap_handlers(
        self,
        handlers: Dict[int, Callable[..., Any]],
        name: str,
        after_for: Optional[Callable[[int], Callable[[Any], None]]] = None,
    ) -> None:
        """Wrap every entry of a public handler table (the handlers
        given to ``Transport.attach`` / ``BroadcastService.endpoint``);
        ``after_for(pid)`` builds the per-process boundary probe."""
        for pid, handler in list(handlers.items()):
            after = after_for(pid) if after_for is not None else None
            handlers[pid] = self.tracer.wrap(name, handler, _message_id, after)
            self._undo.append(
                lambda pid=pid, handler=handler: handlers.__setitem__(
                    pid, handler
                )
            )

    def wrap_broadcast(self, transport_handlers: Dict[int, Any], broadcast: Any) -> None:
        """Wrap the two handler tables of one broadcast stack: the
        handlers it gave to ``Transport.attach`` (probed for buffer and
        log depth) and the ones the algorithm gave to ``endpoint``."""
        self.wrap_handlers(
            transport_handlers, "broadcast.receive", self._broadcast_probe(broadcast)
        )
        self.wrap_handlers(broadcast.delivery_handlers, "algorithms.apply")

    def _broadcast_probe(
        self, broadcast: Any
    ) -> Callable[[int], Callable[[Any], None]]:
        """Boundary probe for ``broadcast.receive``: peak causal-buffer
        depth after every receive, peak retained log once in
        :data:`LOG_PROBE_EVERY`."""
        counters = self.tracer.counters

        def for_pid(pid: int) -> Callable[[Any], None]:
            def probe(_result: Any) -> None:
                depth = broadcast.pending_messages(pid)
                if depth > counters["broadcast.pending_peak"]:
                    counters["broadcast.pending_peak"] = depth
                counters["broadcast.probes"] += 1
                if counters["broadcast.probes"] % LOG_PROBE_EVERY == 0:
                    retained = max(broadcast.log_sizes())
                    if retained > counters["broadcast.retained_log_max"]:
                        counters["broadcast.retained_log_max"] = retained

            return probe

        return for_pid

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
def ledger(tracer: Tracer, ops: int, cpu_s: float) -> Dict[str, float]:
    """Per-layer self times per client-visible operation, and the
    residual that makes them add up to the window's ``cpu_us_per_op``
    (``cpu_s`` is the process CPU of the traced window, as measured)."""
    out: Dict[str, float] = {}
    for name, ns in tracer.self_ns.items():
        out[f"{name}_us_per_op"] = ns / 1e3 / ops
    cpu_us_per_op = cpu_s / ops * 1e6
    covered = tracer.self_seconds() / ops * 1e6
    out["loop.residual_us_per_op"] = cpu_us_per_op - covered
    out["trace.coverage_share"] = covered / cpu_us_per_op
    return out
