"""Off-path observability tap: a bounded ring buffer between the hot
path and the monitors.

PR 9 fed every delivery straight into the
:class:`~repro.runtime.monitors.RuntimeMonitor` and every completed
client operation straight into the
:class:`~repro.runtime.recorder.HistoryRecorder` — synchronous Python
work inside the asyncio hot path, charged to every frame and every
client reply.  PR 10 moves both behind a :class:`RingTap`: the hot path
appends a ``(sink_method, args)`` event to a bounded ring (one deque
append) and returns; the first push of a burst schedules one loop
callback (``call_soon``), which drains the ring on the loop's next pass
and applies the events to the real monitor/recorder **in append
order**, which is exactly the order the synchronous calls would have
run in — so the monitor's verdicts and the recorder's rows are
identical to the synchronous tap's on the same event stream (pinned by
``tests/test_service_perf.py``), merely later.

Boundedness without lying: when the ring reaches capacity the producer
drains it *inline* (the tap degrades to the synchronous behaviour under
sustained overload instead of dropping events — a dropped delivery
would silently blind the double-apply and causal-order invariants).
``spills`` counts how often that happened; a healthy run shows 0.

Reads (status, history capture) call :meth:`RingTap.flush` first, so
observers never see a half-drained tail.

Two snapshotting details make deferral sound:

- the broadcast layer passes the monitor its **live** frontier rows on
  GC sweeps; :class:`MonitorTap` copies them at enqueue time, because by
  drain time the rows have moved on;
- violation timestamps are taken at drain time (the monitor asks its
  clock when the event is applied), so they can trail the hot-path
  instant by the ring residency — verdict content (kind, pid, detail)
  is unaffected.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..core.operations import Invocation
from ..runtime.monitors import RuntimeMonitor
from ..runtime.recorder import HistoryRecorder


class RingTap:
    """Bounded FIFO event ring, drained by one loop callback per burst."""

    #: events held before the producer drains inline (spill)
    CAPACITY = 1 << 15

    def __init__(self, capacity: int = CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[Tuple[Callable[..., Any], Tuple[Any, ...]]] = deque()
        #: the loop the drain runs on, between start() and close()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._scheduled = False
        # observability
        self.pushed = 0
        self.drained = 0
        self.spills = 0
        self.max_depth = 0

    # -- producer side (synchronous, hot path) --------------------------
    def push(self, fn: Callable[..., Any], *args: Any) -> None:
        ring = self._ring
        ring.append((fn, args))
        self.pushed += 1
        depth = len(ring)
        if depth > self.max_depth:
            self.max_depth = depth
        if depth >= self.capacity:
            # full: drain inline rather than drop — order preserved,
            # verdicts unaffected, hot path momentarily synchronous
            self.spills += 1
            self.flush()
        elif not self._scheduled and self._loop is not None:
            self._scheduled = True
            self._loop.call_soon(self._drain)

    # -- consumer side ---------------------------------------------------
    def flush(self) -> None:
        """Apply every buffered event now (synchronously, in order)."""
        ring = self._ring
        while ring:
            fn, args = ring.popleft()
            self.drained += 1
            fn(*args)

    def _drain(self) -> None:
        self._scheduled = False
        self.flush()

    def start(self) -> None:
        """Begin draining on the running event loop."""
        self._loop = asyncio.get_running_loop()
        if self._ring and not self._scheduled:
            self._scheduled = True
            self._loop.call_soon(self._drain)

    def close(self) -> None:
        """Stop draining and apply whatever is still buffered."""
        self._loop = None
        self.flush()

    def stats(self) -> dict:
        return {
            "pushed": self.pushed,
            "drained": self.drained,
            "depth": len(self._ring),
            "max_depth": self.max_depth,
            "spills": self.spills,
        }


class MonitorTap:
    """RuntimeMonitor facade that defers every hook through a RingTap.

    It only forwards: the broadcast layer calls the six hooks, and
    every read (verdicts, counters) goes to the sink, which the service
    node holds as ``node.monitor`` and reads after a flush.  Mutable
    arguments (the GC sweep's live frontier rows, vector stamps) are
    snapshotted at enqueue time; immutable ones (pids, message-id
    tuples, counts) pass through.
    """

    def __init__(self, tap: RingTap, sink: RuntimeMonitor) -> None:
        self._tap = tap
        self.sink = sink

    def on_deliver(self, pid: int, mid: Any) -> None:
        self._tap.push(self.sink.on_deliver, pid, mid)

    def on_fifo_deliver(self, pid: int, origin: int, seq: int) -> None:
        self._tap.push(self.sink.on_fifo_deliver, pid, origin, seq)

    def on_causal_deliver(
        self, pid: int, mid: Any, origin: int, stamp: Any
    ) -> None:
        self._tap.push(
            self.sink.on_causal_deliver, pid, mid, origin, tuple(stamp)
        )

    def on_gc(self, stable: Any, frontiers: Any, crashed: Any) -> None:
        self._tap.push(
            self.sink.on_gc,
            list(stable),
            [list(row) for row in frontiers],
            set(crashed),
        )

    def on_pruned_gap(self, target: int, origin: int, seq: int) -> None:
        self._tap.push(self.sink.on_pruned_gap, target, origin, seq)

    def on_resync_stranded(self, target: int, attempts: int) -> None:
        self._tap.push(self.sink.on_resync_stranded, target, attempts)


class RecorderTap:
    """HistoryRecorder facade whose ``record`` defers through a RingTap.

    The algorithms only ever call :meth:`record`, which returns nothing
    here as on the sink.  Every read (rows, counts, history assembly)
    goes to the sink, which the service node holds as ``node.recorder``
    and reads after a flush.
    """

    def __init__(self, tap: RingTap, sink: HistoryRecorder) -> None:
        self._tap = tap
        self.sink = sink

    def record(
        self,
        pid: int,
        invocation: Invocation,
        output: Any,
        start: float,
        end: float,
    ) -> None:
        # args are immutable (Invocation is frozen, outputs are values):
        # safe to defer without copying.  The sink packs them into its
        # columns at drain time.
        self._tap.push(self.sink.record, pid, invocation, output, start, end)
