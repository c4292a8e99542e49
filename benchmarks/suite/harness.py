"""Measuring kit shared by the four workloads: the reference loop,
estimators, slices, memory readings and the input hash.

Nothing here imports the program under test, so the estimators can be
unit-tested without it.

**Noise rule** (the measurements behind it are in ``README.md``).  On
this two-vCPU sandbox the host's speed drifts by a third in phases that
last from milliseconds to whole runs, and no estimator over one run's
own slices removes that.  So every timing is taken per *slice* and
handled twice:

1. **Reference speed.**  A small fixed stdlib loop
   (:func:`calibration_unit`) is timed every ~50 ms next to the
   workload, and each slice's time is divided by how much slower than
   :data:`CALIBRATION_REFERENCE_S` the loop ran around that slice
   (:meth:`Calibration.slowness`).  Timings are reported *at the
   reference speed*; the unscaled figures stay in each run's ``detail``.
2. **A robust summary of the slices.**  The closed loop reports the
   *median* scaled slice; the open loop, which idles between requests
   so that a host stall of a few ms decides a slice, the *better decile*
   (:func:`better_decile`).  Deterministic workloads repeat the identical slice list for several
   passes, keep each scaled slice's *lower quartile over the passes*
   (:func:`best_of_passes`) and report Σwork / Σbest-time.

The open loop's completion rate is set by its schedule, not by the
host, so it alone is reported unscaled.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import pathlib
import resource
import statistics
import time
from array import array
from typing import Any, Callable, Dict, List, Sequence, Tuple

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT_DIR = SUITE / "out"

#: a failed, refused or timed-out live operation is charged this latency
#: (the client call timeout), so it misses any latency limit
FAILED_LATENCY_S = 10.0

#: the reference speed: timings are scaled to the host speed at which
#: :func:`calibration_unit` takes exactly this long.  In a tight loop it
#: takes 0.38–0.43 ms on this sandbox at best; read between the slices
#: of a workload, on caches the workload has just used, 0.5–0.7 ms — so
#: the scaled figures are of the size this sandbox really measures
CALIBRATION_REFERENCE_S = 0.55e-3
#: seconds between readings of the reference loop (~1% of the CPU)
CALIBRATION_EVERY_S = 0.05


# ----------------------------------------------------------------------
# The reference loop
# ----------------------------------------------------------------------
def calibration_unit() -> float:
    """Time one run of the reference loop: dict stores, tuple builds,
    list appends — the interpreter work the program is made of, from the
    standard library only, so no change to the program can move it."""
    t0 = time.perf_counter()
    table: Dict[int, Tuple[int, int]] = {}
    seen: List[int] = []
    for i in range(3000):
        table[i & 255] = (i, i + 1)
        seen.append(table[i & 255][0])
        if len(seen) > 64:
            seen.clear()
    return time.perf_counter() - t0


class Calibration:
    """Timestamped readings of the reference loop."""

    def __init__(self, unit: Callable[[], float] = calibration_unit) -> None:
        self.unit = unit
        self.when: List[float] = []
        self.took: List[float] = []
        #: medians already taken, by the range of readings they cover
        self._medians: Dict[Tuple[int, int], float] = {}

    def read(self, now: float) -> None:
        self.when.append(now)
        self.took.append(self.unit())

    def slowness(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran over
        ``[start, end]``: the median of the readings inside the interval
        and the nearest two on either side (a lone disturbed reading
        must not pass for a slow host), over the reference time."""
        if not self.took:
            raise ValueError("no calibration readings")
        lo = max(0, bisect.bisect_left(self.when, start) - 2)
        hi = min(len(self.when), bisect.bisect_right(self.when, end) + 2)
        median = self._medians.get((lo, hi))
        if median is None:
            median = self._medians[(lo, hi)] = statistics.median(self.took[lo:hi])
        return median / CALIBRATION_REFERENCE_S


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def better_decile(values: Sequence[float], better: str) -> float:
    """The decile of ``values`` on the side host stalls do not reach:
    p90 when higher is better, p10 when lower is better."""
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    if not values:
        raise ValueError("no slices to summarise")
    if len(values) == 1:
        return values[0]
    deciles = statistics.quantiles(values, n=10)
    return deciles[8] if better == "higher" else deciles[0]


def best_of_passes(passes: Sequence[Sequence[float]]) -> List[float]:
    """Per-slice lower quartile over repeated passes of one slice list
    (the minimum when there are fewer than four passes).  The plain
    minimum of *scaled* times would pick, slice by slice, the pass whose
    calibration happened to read slow; the lower quartile still ignores
    every disturbed pass without rewarding a lucky reading."""
    if not passes:
        raise ValueError("no passes to summarise")
    width = len(passes[0])
    if any(len(p) != width for p in passes):
        raise ValueError("passes differ in slice count")
    rank = len(passes) // 4
    return [sorted(p[i] for p in passes)[rank] for i in range(width)]


def percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_vals:
        raise ValueError("empty sample")
    idx = round(q * (len(sorted_vals) - 1))
    return sorted_vals[max(0, min(len(sorted_vals) - 1, idx))]


def spread(values: Sequence[float]) -> Dict[str, float]:
    """min/median/max of a list of readings, for a run's ``detail``."""
    return {
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
        "n": len(values),
    }


# ----------------------------------------------------------------------
# Wall-clock slices (live workloads)
# ----------------------------------------------------------------------
class Slices:
    """Completed operations bucketed by wall-clock slice.

    A slice closes at the first completion past its nominal edge, where
    wall and CPU clocks are read together, so a slice's op count, span
    and CPU time describe exactly the same interval."""

    def __init__(self, start: float, length: float) -> None:
        self.length = length
        self.rows: List[Dict[str, Any]] = []
        self.ops = 0
        self.failed = 0
        self._open(start)

    def _open(self, now: float) -> None:
        self._start = now
        self._cpu = time.process_time()
        self._edge = now + self.length
        self._lat: List[float] = []
        self._failed = 0

    def record(self, now: float, latency: float, ok: bool = True) -> None:
        if now >= self._edge:
            self.close(now)
        if ok:
            self._lat.append(latency)
        else:
            self._lat.append(FAILED_LATENCY_S)
            self._failed += 1

    def close(self, now: float) -> None:
        """End the open slice at ``now`` and start the next one."""
        if self._lat:
            self._lat.sort()
            self.rows.append(
                {
                    "start": self._start,
                    "wall": now - self._start,
                    "cpu": time.process_time() - self._cpu,
                    "ops": len(self._lat),
                    "failed": self._failed,
                    "lat": self._lat,
                }
            )
            self.ops += len(self._lat)
            self.failed += self._failed
        self._open(now)

    def per_slice(
        self, since: float, calibration: Calibration, open_loop: bool
    ) -> Dict[str, List[float]]:
        """Per-slice readings at the reference speed, for the slices
        opened at or after ``since`` (the warm-up cut); ``raw_*`` are the
        same readings as measured.  An open loop's completion rate is
        its schedule's, not the host's, and is not scaled."""
        rows = [r for r in self.rows if r["start"] >= since]
        slow = [calibration.slowness(r["start"], r["start"] + r["wall"]) for r in rows]
        rate = [r["ops"] / r["wall"] for r in rows]
        p50 = [percentile(r["lat"], 0.50) * 1e3 for r in rows]
        p99 = [percentile(r["lat"], 0.99) * 1e3 for r in rows]
        cpu = [r["cpu"] / r["ops"] * 1e6 for r in rows]
        return {
            "ops_per_s": rate if open_loop else [v * s for v, s in zip(rate, slow)],
            "p50_ms": [v / s for v, s in zip(p50, slow)],
            "p99_ms": [v / s for v, s in zip(p99, slow)],
            "cpu_us_per_op": [v / s for v, s in zip(cpu, slow)],
            "slowness": slow,
            "raw_ops_per_s": rate,
            "raw_p50_ms": p50,
            "raw_p99_ms": p99,
            "raw_cpu_us_per_op": cpu,
        }


    def rate(self, since: float) -> float:
        """Completions per second over all the slices opened at or after
        ``since``, as measured: an open loop's goodput.  Its schedule
        fixes it unless the program falls behind, which stretches the
        window and so shows here."""
        rows = [r for r in self.rows if r["start"] >= since]
        return sum(r["ops"] for r in rows) / sum(r["wall"] for r in rows)

    def cpu_us_per_op(self, since: float, calibration: Calibration) -> float:
        """CPU per operation over all the slices opened at or after
        ``since``, at the reference speed, none of them chosen: what the
        traced window of a run is compared against."""
        rows = [r for r in self.rows if r["start"] >= since]
        cpu = sum(
            r["cpu"] / calibration.slowness(r["start"], r["start"] + r["wall"]) for r in rows
        )
        return cpu / sum(r["ops"] for r in rows) * 1e6


#: the live timings, and the side of each that stalls do not reach
BETTER = {
    "ops_per_s": "higher",
    "p50_ms": "lower",
    "p99_ms": "lower",
    "cpu_us_per_op": "lower",
}


def summarise_slices(per_slice: Dict[str, List[float]], open_loop: bool) -> Dict[str, Any]:
    """One value per timing, and min/median/max of every per-slice
    column (scaled, raw and slowness).

    A saturated closed loop takes a host stall as the reference loop
    next to it does, so its scaled slices scatter evenly and their
    *median* repeats best (spread 5% on two batches of ten runs, 7–11%
    for the better decile, which also picks the slices whose reference
    readings happened to err).  An open loop is idle most of the time:
    a stall of a few ms decides a slice's latencies and no reading shows
    it, so it reports the *better decile*, the slices stalls missed."""
    return {
        "metrics": {
            name: better_decile(per_slice[name], better)
            if open_loop
            else statistics.median(per_slice[name])
            for name, better in BETTER.items()
        },
        "detail": {name: spread(vals) for name, vals in per_slice.items()},
    }


# ----------------------------------------------------------------------
# Repeated passes (deterministic workloads)
# ----------------------------------------------------------------------
class PassClock:
    """Times the consecutive slices of one pass and reads the reference
    loop between slices, off the clock.  A pass is thousands of slices
    of a few operations each, so its readings are kept in arrays."""

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        #: per slice: when it opened, wall and CPU seconds, operations
        self.start = array("d")
        self.wall = array("d")
        self.cpu = array("d")
        self.ops = array("l")
        self._open()

    def _open(self) -> None:
        now = time.perf_counter()
        when = self.calibration.when
        if not when or now - when[-1] >= CALIBRATION_EVERY_S:
            self.calibration.read(now)
        self._w = time.perf_counter()
        self._c = time.process_time()

    def mark(self, ops: int) -> None:
        """Close the open slice, which held ``ops`` operations."""
        w, c = time.perf_counter(), time.process_time()
        self.start.append(self._w)
        self.wall.append(w - self._w)
        self.cpu.append(c - self._c)
        self.ops.append(ops)
        self._open()

    def at_reference_speed(self) -> Tuple[List[float], List[float], List[float]]:
        """(wall, cpu, slowness) per slice, times scaled to the
        reference speed.  Call once the pass — and the reading after its
        last slice — is complete."""
        slowness = self.calibration.slowness
        slow = [slowness(a, a + w) for a, w in zip(self.start, self.wall)]
        return (
            [w / s for w, s in zip(self.wall, slow)],
            [c / s for c, s in zip(self.cpu, slow)],
            slow,
        )


def pass_cpu_us_per_op(work: int, clocks: Sequence[PassClock]) -> float:
    """CPU per operation of a typical pass at the reference speed: the
    median over the passes, none of them chosen.  What the traced passes
    of a run, which are timed the same way, are compared against."""
    return statistics.median(sum(c.at_reference_speed()[1]) for c in clocks) / work * 1e6


def summarise_passes(work: int, clocks: Sequence[PassClock]) -> Dict[str, Any]:
    """End-to-end timings of a deterministic workload: each slice's best
    pass at the reference speed, then work / Σbest-time (``work`` is the
    client-visible operations of one pass).  ``p50_ms``/``p99_ms`` are
    the median and the 99th-percentile slice, in ms per 1000 operations,
    over the slices that hold operations."""
    scaled = [clock.at_reference_speed() for clock in clocks]
    wall = best_of_passes([s[0] for s in scaled])
    cpu = best_of_passes([s[1] for s in scaled])
    raw_wall = best_of_passes([clock.wall for clock in clocks])
    per_kop = sorted(w / ops * 1e6 for w, ops in zip(wall, clocks[0].ops) if ops)
    return {
        "metrics": {
            "ops_per_s": work / sum(wall),
            "p50_ms": percentile(per_kop, 0.50),
            "p99_ms": percentile(per_kop, 0.99),
            "cpu_us_per_op": sum(cpu) / work * 1e6,
        },
        "detail": {
            "passes": len(clocks),
            "slices": len(wall),
            "raw_ops_per_s": work / sum(raw_wall),
            "raw_pass_wall_s": spread([sum(clock.wall) for clock in clocks]),
            "slowness": spread([v for s in scaled for v in s[2]]),
            "ms_per_kop": spread(per_kop),
        },
    }


#: a deterministic workload makes at least this many passes, and reads
#: its peak memory after exactly this many: a faster program makes more
#: passes in a run, and must not be charged for what they leave behind
MIN_PASSES = 2


def run_passes(
    seconds: float,
    calibration: Calibration,
    build: Callable[[], Any],
    one_pass: Callable[[Any], PassClock],
) -> Tuple[List[float], List[PassClock], Any, float]:
    """Repeat ``built = build()`` then ``one_pass(built)`` until
    ``seconds`` are up.  Set-up is rebuilt, and timed at the reference
    speed, before every pass, so its median averages over the host's
    slow and fast phases.  Returns (set-up times, clocks, last build,
    peak RSS in MB after :data:`MIN_PASSES` passes)."""
    deadline = time.perf_counter() + seconds
    setups: List[float] = []
    clocks: List[PassClock] = []
    rss_mb = 0.0
    while len(clocks) < MIN_PASSES or time.perf_counter() < deadline:
        calibration.read(time.perf_counter())
        t0 = time.perf_counter()
        built = build()
        t1 = time.perf_counter()
        calibration.read(t1)
        setups.append((t1 - t0) / calibration.slowness(t0, t1))
        clocks.append(one_pass(built))
        if len(clocks) == MIN_PASSES:
            rss_mb = peak_rss_mb()
    return setups, clocks, built, rss_mb


# ----------------------------------------------------------------------
# Memory, inputs, names
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """High-water resident set of this process so far (Linux: kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_bytes() -> int:
    """Current resident set of this process."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")


def input_sha256(inputs: Any) -> str:
    """Hash of the generated inputs, taken before the program sees them
    (``inputs`` is plain JSON data)."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def expect_names(metrics: Dict[str, float], names: Sequence[str]) -> Dict[str, float]:
    """``metrics`` if it holds exactly ``names`` — a workload that stops
    reporting a declared metric, or grows an undeclared one, fails its
    run instead of drifting away from ``BENCHMARK.json``."""
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise RuntimeError(f"metrics missing {missing}, undeclared {extra}")
    return metrics
