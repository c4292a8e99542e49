"""``monitor_stream``: the streaming bad-pattern monitor on its own.

``StreamingMonitor(8, streams=4, k=2, criteria=("WCC", "CCV"))`` is fed
a correct-by-construction stream (8 processes, 50% writes, delivery lag
≤ 64 — the ``bench_monitor.py`` generator shape) in fixed slices,
``finalize()`` included, for as many passes as the run length allows;
each slice's best pass is kept.  The checking plane shares no code with
the serving path, so this workload must not move when serving is
optimised.  Outside the timed window a second, shorter stream with a
known violation spliced in must be flagged with the expected pattern at
the expected index.
"""

from __future__ import annotations

import random
import statistics
import time
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

from repro.core.operations import BOTTOM, Invocation
from repro.criteria.streaming_monitor import StreamingMonitor

from . import harness

N_PROCS = 8
STREAMS = 4
K = 2
CRITERIA = ("WCC", "CCV")
WRITE_RATIO = 0.5
MAX_LAG = 64
STREAM_OPS = 20_000
#: operations per timed slice (~0.1 ms).  A write costs ~4 us and a read
#: ~60, so single operations would put the median on the step between
#: the two; two to a slice put it inside the one-read half of the slices
#: and the 99th percentile, 100 slices below the top, inside the
#: two-read quarter
SLICE_OPS = 2
SPLICED_OPS = 10_000
#: the spliced gadget: w1, w2 in program order, then a read of (w2, w1)
SPLICE_VALUES = (10_000_000, 10_000_001)
EXPECTED_PATTERN = "WindowOrderCO"

#: what a traced run reports
LAYER_METRICS = (
    "streaming_monitor.feed_write_us_per_op",
    "streaming_monitor.feed_read_us_per_op",
    "streaming_monitor.finalize_s",
    "streaming_monitor.hb_edges_per_op",
    "streaming_monitor.patterns_checked_per_op",
    "streaming_monitor.propagate_steps_per_op",
    "streaming_monitor.cc_rechecks_per_op",
    "streaming_monitor.pending_peak",
    "streaming_monitor.rss_bytes_per_op",
    "streaming_monitor.detect_lag_ops",
    "loop.residual_us_per_op",
    "trace.coverage_share",
    "trace.overhead_share",
)

Op = Tuple[int, Invocation, Any]


def make_stream(seed: int, total: int) -> List[List[Any]]:
    """A CCv-by-construction stream in issue order, as JSON rows
    ``[pid, "w", x, value]`` / ``[pid, "r", x, [window]]``.

    One global issue order arbitrates all writes; each process observes
    a monotone prefix of it (trailing by at most :data:`MAX_LAG` writes)
    plus its own writes, and a read returns the last K visible writes of
    its stream.  Visible sets are prefix-closed, hence causally closed."""
    rng = random.Random(f"monitor_stream:{seed}:{total}")
    issued_at: List[List[int]] = [[] for _ in range(STREAMS)]
    issued_val: List[List[int]] = [[] for _ in range(STREAMS)]
    issued = 0
    frontier = [0] * N_PROCS
    own: List[List[List[Tuple[int, int]]]] = [
        [[] for _ in range(STREAMS)] for _ in range(N_PROCS)
    ]
    rows: List[List[Any]] = []
    value = 0
    for _ in range(total):
        p = rng.randrange(N_PROCS)
        target = max(frontier[p], issued - rng.randrange(MAX_LAG + 1))
        if target > frontier[p]:
            frontier[p] = target
            for mine in own[p]:
                while mine and mine[0][0] < target:
                    mine.pop(0)
        x = rng.randrange(STREAMS)
        if rng.random() < WRITE_RATIO:
            value += 1
            issued_at[x].append(issued)
            issued_val[x].append(value)
            own[p][x].append((issued, value))
            issued += 1
            rows.append([p, "w", x, value])
        else:
            cut = bisect_left(issued_at[x], frontier[p])
            tail = [
                (issued_at[x][i], issued_val[x][i]) for i in range(max(0, cut - K), cut)
            ] + own[p][x][-K:]
            tail.sort()
            window = [v for _, v in tail[-K:]]
            rows.append([p, "r", x, [0] * (K - len(window)) + window])
    return rows


def splice_violation(rows: List[List[Any]], at: int) -> Tuple[List[List[Any]], int]:
    """Insert the gadget at ``at``; the pattern closes at ``at + 2``.
    Fresh values on one process cannot interact with the clean stream,
    so the first violation is exactly there."""
    w1, w2 = SPLICE_VALUES
    x = STREAMS - 1
    gadget = [[0, "w", x, w1], [0, "w", x, w2], [0, "r", x, [w2, w1]]]
    return rows[:at] + gadget + rows[at:], at + 2


def make_inputs(seed: int) -> Dict[str, Any]:
    spliced, index = splice_violation(make_stream(seed + 1, SPLICED_OPS), SPLICED_OPS // 2)
    return {
        "workload": "monitor_stream",
        "seed": seed,
        "stream": make_stream(seed, STREAM_OPS),
        "spliced": spliced,
        "spliced_index": index,
    }


def to_ops(rows: List[List[Any]]) -> List[Op]:
    return [
        (p, Invocation("w", (x, arg)), BOTTOM)
        if method == "w"
        else (p, Invocation("r", (x,)), tuple(arg))
        for p, method, x, arg in rows
    ]


def new_monitor() -> StreamingMonitor:
    return StreamingMonitor(N_PROCS, streams=STREAMS, k=K, criteria=CRITERIA)


def _one_pass(
    ops: List[Op], monitor: StreamingMonitor, calibration: harness.Calibration
) -> Tuple[harness.PassClock, Dict[str, Any]]:
    """Feed the stream slice by slice, then finalize (the last slice:
    time, no operations)."""
    feed = monitor.feed
    clock = harness.PassClock(calibration)
    for lo in range(0, len(ops), SLICE_OPS):
        chunk = ops[lo : lo + SLICE_OPS]
        for p, invocation, output in chunk:
            feed(p, invocation, output)
        clock.mark(len(chunk))
    verdicts = monitor.finalize()
    clock.mark(0)
    return clock, verdicts


def check_spliced(ops: List[Op], expected_index: int) -> Dict[str, Any]:
    """The spliced stream must be flagged at the gadget's closing read."""
    monitor = new_monitor()
    seen_at: Optional[int] = None
    pattern: Optional[str] = None
    for index, (p, invocation, output) in enumerate(ops):
        violation = monitor.feed(p, invocation, output)
        if violation is not None and seen_at is None:
            seen_at, pattern = index, violation.pattern
    verdicts = monitor.finalize()
    first = monitor.stats()["first_violation_index"]
    return {
        "spliced_flagged": any(v.ok is False for v in verdicts.values()),
        "spliced_pattern": pattern,
        "spliced_index": first,
        "spliced_expected_index": expected_index,
        "detect_lag_ops": (seen_at - expected_index) if seen_at is not None else None,
    }


def _build(seed: int) -> Dict[str, Any]:
    """Stream generation and monitor construction: the workload's set-up."""
    inputs = make_inputs(seed)
    return {
        "sha": harness.input_sha256(inputs),
        "ops": to_ops(inputs["stream"]),
        "spliced": to_ops(inputs["spliced"]),
        "spliced_index": inputs["spliced_index"],
        "monitor": new_monitor(),
    }


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    calibration = harness.Calibration()
    checks: Dict[str, Any] = {"clean_ok": True}
    #: resident-set growth over each pass; the first one, on a fresh
    #: heap, is what the monitor's state for the whole stream takes
    rss_growth: List[int] = []

    def one_pass(built: Dict[str, Any]) -> harness.PassClock:
        rss0 = harness.rss_bytes()
        clock, verdicts = _one_pass(built["ops"], built["monitor"], calibration)
        rss_growth.append(harness.rss_bytes() - rss0)
        if not all(verdicts[c].ok is True for c in CRITERIA):
            checks["clean_ok"] = False
        return clock

    # a traced run spends its first third untraced, as the reference the
    # tracing overhead is measured against
    setups, clocks, built, rss_mb = harness.run_passes(
        seconds / 3.0 if traced else seconds, calibration, lambda: _build(seed), one_pass
    )
    ops: List[Op] = built["ops"]
    n = len(ops)
    attempted = n * len(clocks)
    result: Dict[str, Any] = {"input_sha256": built["sha"]}
    spliced = check_spliced(built["spliced"], built["spliced_index"])

    if not traced:
        summary = harness.summarise_passes(n, clocks)
        metrics = summary["metrics"]
        metrics["peak_rss_mb"] = rss_mb
        metrics["setup_s"] = statistics.median(setups)
        result["metrics"] = metrics
        result["detail"] = dict(summary["detail"], setup_s=harness.spread(setups))
    else:
        from . import trace

        tracer = trace.Tracer()
        installed = trace.Installed(tracer)
        traced_clocks: List[harness.PassClock] = []
        installed.patch_layers()
        try:
            deadline = time.perf_counter() + seconds * 2.0 / 3.0
            while not traced_clocks or time.perf_counter() < deadline:
                built["monitor"] = new_monitor()
                traced_clocks.append(one_pass(built))
        finally:
            installed.remove()
        fed = n * len(traced_clocks)
        attempted += fed
        stats = built["monitor"].stats()
        # the slices' own CPU: marking them and reading the reference
        # loop happen between slices, off this clock
        cpu_s = sum(sum(clock.cpu) for clock in traced_clocks)
        metrics = trace.ledger(tracer, fed, cpu_s)
        metrics["streaming_monitor.finalize_s"] = (
            metrics.pop("streaming_monitor.finalize_us_per_op") * n / 1e6
        )
        untraced_cpu = harness.pass_cpu_us_per_op(n, clocks)
        traced_cpu = harness.pass_cpu_us_per_op(n, traced_clocks)
        metrics.update(
            {
                "streaming_monitor.hb_edges_per_op": stats["hb_edges"] / n,
                "streaming_monitor.patterns_checked_per_op": stats["patterns_checked"] / n,
                "streaming_monitor.propagate_steps_per_op": stats["propagate_steps"] / n,
                "streaming_monitor.cc_rechecks_per_op": stats["cc_rechecks"] / n,
                "streaming_monitor.pending_peak": stats["pending_peak"],
                "streaming_monitor.rss_bytes_per_op": rss_growth[0] / n,
                "streaming_monitor.detect_lag_ops": spliced["detect_lag_ops"] or 0,
                "trace.overhead_share": 1.0 - untraced_cpu / traced_cpu,
            }
        )
        result["metrics"] = harness.expect_names(metrics, LAYER_METRICS)
        result["detail"] = {
            "untraced_cpu_us_per_op": untraced_cpu,
            "traced_cpu_us_per_op": traced_cpu,
            "untraced_passes": len(clocks),
            "traced_passes": len(traced_clocks),
            "spans": tracer.table(),
            "monitor_stats": stats,
        }
        result["raw_spans"] = tracer.raw_spans()

    checks.update(spliced)
    checks["correct"] = bool(
        checks["clean_ok"]
        and spliced["spliced_flagged"]
        and spliced["spliced_pattern"] == EXPECTED_PATTERN
        and spliced["spliced_index"] == spliced["spliced_expected_index"]
    )
    result["checks"] = checks
    result["correct"] = checks["correct"]
    result["attempted"] = attempted
    result["failed"] = 0 if checks["clean_ok"] else attempted
    return result
