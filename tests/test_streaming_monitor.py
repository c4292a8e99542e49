"""Tests for the streaming bad-pattern CC/CCv monitor.

Three layers of evidence that the single-pass monitor and the
enumeration search decide the same language:

- the Fig. 3 litmus gallery (known classifications),
- a corrupted corpus of random differentiated histories cross-validated
  against the search criterion by criterion,
- recorded scenario histories (timestamped, so the replay feeds the
  monitor out of program order and exercises the late-rf re-check path).

Plus the satellite contracts: a mutation corpus splicing known
violations into 10k-op clean streams (pattern class + first-violation
index + mid-stream detection), the recorder's zero-copy subscription
(bit-identical histories with and without a subscriber), the matrix
integration (per-cell streaming verdicts and stats) and the shared
structured violation-reporting shape.

And for the conflict graphs' topological order: golden rows recorded
before it existed (verdict, pattern, index, witness, edge and pattern
counters — it changes how a cycle is found, not which edges are
proposed), and traffic that makes it work: a live run whose arbitration
keeps disagreeing with arrival order, concurrent-writer histories where
CCv fails after earlier relabels, and the same histories fed process by
process, which rebuilds the labels mid-stream.  The edges are one
generator per process, a function of the read's causal past and window
only, so any feed that keeps program order gets the same verdicts and
the same closure of co ∪ conflict edges (a hypothesis property).
"""

import ast
import functools
import json
import pathlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adts.register import Register
from repro.adts.window_stream import WindowStreamArray
from repro.core import History
from repro.core.operations import BOTTOM, Invocation, Operation
from repro.criteria import (
    check,
    check_causal,
    check_convergence,
    check_sequential,
    check_weak_causal,
)
from repro.criteria.causal_search import SearchBudgetExceeded
from repro.criteria import streaming_monitor
from repro.criteria.streaming_monitor import (
    PATTERNS,
    SUPPORTED_CRITERIA,
    StreamingMonitor,
    monitor_for_adt,
    replay_history,
)

# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def random_history(rng, procs, ops, streams, k):
    """A random differentiated W_k history (unique write values, windows
    sampled from written-or-never-written values): the corrupted corpus."""
    val = [1]
    rows = []
    for _ in range(procs):
        row = []
        for _ in range(ops):
            key = rng.randrange(streams)
            if rng.random() < 0.55:
                row.append((Invocation("w", (key, val[0])), BOTTOM))
                val[0] += 1
            else:
                pool = list(range(1, val[0] + 2))
                m = min(rng.randrange(0, k + 1), len(pool))
                window = tuple([0] * (k - m) + sorted(rng.sample(pool, m)))
                row.append((Invocation("r", (key,)), window))
        rows.append(row)
    return History.from_processes(
        [[Operation(inv, out) for inv, out in row] for row in rows]
    )


#: clean-stream shape shared by the mutation corpus
N, STREAMS, K = 4, 3, 2


def clean_ccv_ops(seed, total_ops):
    """A correct-by-construction CCv stream in issue order: one global
    issue order arbitrates writes, each process sees a monotone prefix of
    it plus its own writes, reads return the last-k visible writes."""
    from bisect import bisect_left

    rng = random.Random(seed)
    gw = [[] for _ in range(STREAMS)]  # (issue-index, value) per stream
    issued = 0
    frontier = [0] * N
    own = [[[] for _ in range(STREAMS)] for _ in range(N)]
    ops = []
    value = 0
    for _ in range(total_ops):
        p = rng.randrange(N)
        target = max(frontier[p], issued - rng.randrange(33))
        if target > frontier[p]:
            frontier[p] = target
            for x in range(STREAMS):
                mine = own[p][x]
                while mine and mine[0][0] < target:
                    mine.pop(0)
        x = rng.randrange(STREAMS)
        if rng.random() < 0.5:
            value += 1
            gw[x].append((issued, value))
            own[p][x].append((issued, value))
            issued += 1
            ops.append((p, Invocation("w", (x, value)), BOTTOM))
        else:
            cut = bisect_left(gw[x], (frontier[p], 0))
            tail = gw[x][max(0, cut - K):cut] + own[p][x][-K:]
            tail.sort()
            window = [v for _, v in tail[-K:]]
            ops.append(
                (p, Invocation("r", (x,)), tuple([0] * (K - len(window)) + window))
            )
    return ops


def feed_all(ops, criteria=SUPPORTED_CRITERIA):
    monitor = StreamingMonitor(N, streams=STREAMS, k=K, criteria=criteria)
    for p, invocation, output in ops:
        monitor.feed(p, invocation, output)
    return monitor.finalize(), monitor


def w(x, value):
    return Invocation("w", (x, value))


def r(x):
    return Invocation("r", (x,))


_W1, _W2 = 10_000_000, 10_000_001
_X = STREAMS - 1
_INVERTED = [  # w1, w2 in program order, then a window inverted vs po
    (0, w(_X, _W1), BOTTOM),
    (0, w(_X, _W2), BOTTOM),
    (0, r(_X), (_W2, _W1)),
]
#: the mutation corpus: name -> (clean-stream seed, splice index, gadget)
SPLICES = {
    "window-order": (0, 5_000, _INVERTED),
    "conflict-cycle": (
        1,
        4_000,
        [
            (0, w(0, _W1), BOTTOM),
            (1, w(0, _W2), BOTTOM),
            (2, r(0), (_W1, _W2)),  # arbitration w1 before w2
            (3, r(0), (_W2, _W1)),  # arbitration w2 before w1
        ],
    ),
    "hidden-write": (
        2,
        6_000,
        [(0, w(1, _W1), BOTTOM), (0, r(1), (0, 0))],  # own write hidden
    ),
    "mid-stream": (3, 5_000, _INVERTED),
}


#: the smallest WindowOrderCO stream, under every criterion
FAILURE_SHAPE_OPS = [
    (0, w(0, 1), BOTTOM),
    (0, w(0, 2), BOTTOM),
    (0, r(0), (2, 1)),
]


def spliced_ops(name):
    """(the 10k-op clean stream with the named gadget spliced in, index
    of the gadget's first op)."""
    seed, at, gadget = SPLICES[name]
    ops = clean_ccv_ops(seed, 10_000)
    return ops[:at] + gadget + ops[at:], at


def search_ok(history, adt, criterion):
    """Ground truth from the enumeration search, None on budget blow-up."""
    try:
        return check(history, adt, criterion).ok
    except SearchBudgetExceeded:
        return None


def concurrent_writers(rng, procs, writes, reads, k):
    """One hot stream, every process writing it concurrently, in arrival
    order: writes are delivered causally but each process applies
    concurrent ones in its own order, and a read returns its process's
    last k applied.  CC (hence WCC) by construction; two processes that
    saw a concurrent pair in opposite orders make CCv fail (CyclicCF)."""
    value = 0
    applied = [[] for _ in range(procs)]  # values, in apply order
    seen = [[0] * procs for _ in range(procs)]  # applied count per writer
    messages = []  # (writer, sequence number, writer's `seen` then, value)
    left = [[writes, reads] for _ in range(procs)]
    ops = []
    while any(nw or nr for nw, nr in left):
        p = rng.choice([q for q in range(procs) if left[q][0] or left[q][1]])
        for _ in range(rng.randrange(3)):
            ready = [
                m
                for m in messages
                if m[0] != p
                and m[1] == seen[p][m[0]]
                and all(d <= have for d, have in zip(m[2], seen[p]))
            ]
            if not ready:
                break
            writer, _, _, delivered = rng.choice(ready)
            applied[p].append(delivered)
            seen[p][writer] += 1
        if left[p][0] and (not left[p][1] or rng.random() < 0.5):
            left[p][0] -= 1
            value += 1
            messages.append((p, seen[p][p], tuple(seen[p]), value))
            applied[p].append(value)
            seen[p][p] += 1
            ops.append((p, w(0, value), BOTTOM))
        else:
            left[p][1] -= 1
            tail = applied[p][-k:]
            ops.append((p, r(0), tuple([0] * (k - len(tail)) + tail)))
    return ops


#: (procs, writes, reads per process, k); the first three are within the
#: enumeration search's reach, the last two are not
WRITER_SHAPES = [(4, 2, 2, 1), (4, 2, 2, 2), (6, 1, 2, 1), (6, 4, 4, 1), (8, 6, 6, 2)]
WRITER_SEEDS = 10
SEARCHABLE_OPS = 18


def writer_ops(shape, seed):
    procs, writes, reads, k = shape
    return concurrent_writers(
        random.Random(f"writers:{shape}:{seed}"), procs, writes, reads, k
    )


def history_of(ops, procs):
    rows = [[] for _ in range(procs)]
    for p, invocation, output in ops:
        rows[p].append(Operation(invocation, output))
    return History.from_processes(rows)


def grown_hot_key(ops_per_process, monitor_cls=StreamingMonitor):
    """`hot-key-contention` grown far past the search's reach, the
    monitor attached live through ``subscriber()``: Lamport-stamp
    arbitration disagrees with arrival order all the time."""
    from repro.scenarios import get_scenario
    from repro.scenarios.matrix import ALGORITHMS

    spec = get_scenario("hot-key-contention")
    spec = replace(
        spec, workload=replace(spec.workload, ops_per_process=ops_per_process)
    )
    monitor = monitor_cls(spec.n, streams=spec.streams, k=spec.k, criteria=CCV_SIDE)
    # the flood the hot-key goldens were recorded under, named
    ALGORITHMS["ccv-fig5"].with_relay("flood").run(
        spec, 0, subscriber=monitor.subscriber()
    )
    return monitor.finalize(), monitor


# ----------------------------------------------------------------------
# goldens: recorded at the commit before the conflict graph got its
# topological order, never re-recorded; edited field by field where the
# generator derivation defines a field (the file's comment lists which)
# ----------------------------------------------------------------------
GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "goldens" / "streaming_monitor.json").read_text()
)
GOLDEN_COUNTERS = (
    "first_violation_index",
    "rf_edges",
    "cf_edges",
    "d_edges",
    "hb_edges",
    "patterns_checked",
)
#: rows fed process by process: every read parks until its writers come
OUT_OF_ORDER = "writers-by-process/"
CORPUS_SHAPES = [(2, 6, 1, 1), (3, 4, 2, 1), (2, 5, 1, 3), (4, 3, 3, 2)]
CORPUS_SEEDS = 15


def corpus_history(shape, seed):
    procs, ops, streams, k = shape
    return (
        random_history(random.Random(seed + 10_000), procs, ops, streams, k),
        WindowStreamArray(streams, k),
    )


def golden_row(verdicts, counters=GOLDEN_COUNTERS):
    """What a golden pins of one monitored stream: per criterion the
    verdict, pattern, stream index and witness; the edge and pattern
    counters (JSON-shaped, so it compares to the file as is)."""
    stats = next(iter(verdicts.values())).stats
    row = {"stats": {key: stats.get(key) for key in counters}}
    for criterion, verdict in verdicts.items():
        violation = verdict.violation
        row[criterion] = {
            "ok": verdict.ok,
            "pattern": violation and violation.pattern,
            "index": violation and violation.index,
            "witness": violation and [list(op) for op in violation.witness],
        }
    return row


def _scale_cell(algorithm):
    from repro.scenarios import get_scenario
    from repro.scenarios.matrix import run_scenario_cell
    from repro.scenarios.scenario import Scenario

    spec = get_scenario("scale-n32-hotkey")
    monitor = monitor_for_adt(Scenario(spec).adt(), spec.n, criteria=CCV_SIDE)
    run_scenario_cell(
        "scale-n32-hotkey", algorithm, 0, subscriber=monitor.subscriber()
    )
    return monitor.finalize()


@functools.lru_cache(maxsize=None)
def golden_cases():
    """name -> thunk computing the verdicts that golden's row pins."""
    from repro.litmus import all_litmus

    cases = {
        "clean-10k": lambda: feed_all(clean_ccv_ops(0, 10_000), CCV_SIDE)[0],
        "failure-shape": lambda: feed_all(FAILURE_SHAPE_OPS)[0],
    }
    for name in SPLICES:
        cases[f"splice/{name}"] = lambda name=name: feed_all(
            spliced_ops(name)[0], CCV_SIDE
        )[0]
    for algorithm in ("ccv-fig5", "lww"):
        cases[f"cell/scale-n32-hotkey/{algorithm}/0"] = (
            lambda algorithm=algorithm: _scale_cell(algorithm)
        )
    for ops_per_process in (150, 600):
        cases[f"hot-key/{ops_per_process}"] = (
            lambda ops_per_process=ops_per_process: grown_hot_key(ops_per_process)[0]
        )
    for litmus in all_litmus():
        cases[f"litmus/{litmus.key}"] = lambda litmus=litmus: replay_history(
            litmus.history, litmus.adt
        )
    for shape in CORPUS_SHAPES:
        for seed in range(CORPUS_SEEDS):
            cases[f"corpus/{'x'.join(map(str, shape))}/{seed}"] = (
                lambda shape=shape, seed=seed: replay_history(
                    *corpus_history(shape, seed)
                )
            )
    for shape in WRITER_SHAPES:
        for seed in range(WRITER_SEEDS):
            name = f"{'x'.join(map(str, shape))}/{seed}"
            cases[f"writers/{name}"] = (
                lambda shape=shape, seed=seed: feed_writers(shape, seed)[0]
            )
            cases[f"{OUT_OF_ORDER}{name}"] = (
                lambda shape=shape, seed=seed: feed_writers(shape, seed, True)[0]
            )
    return cases


def golden_row_of(name):
    # an out-of-order feed re-sorts the conflict graphs where it used to
    # re-search every edge, at another moment: it checks the same
    # patterns, but counts them differently
    counters = [
        key
        for key in GOLDEN_COUNTERS
        if key != "patterns_checked" or not name.startswith(OUT_OF_ORDER)
    ]
    return golden_row(golden_cases()[name](), counters)


def feed_writers(shape, seed, program_order=False, monitor_cls=StreamingMonitor):
    ops = writer_ops(shape, seed)
    if program_order:
        ops = sorted(ops, key=lambda op: op[0])  # stable: po within a process
    monitor = monitor_cls(shape[0], streams=1, k=shape[3])
    for p, invocation, output in ops:
        monitor.feed(p, invocation, output)
    return monitor.finalize(), monitor


def draw_small_ops(data, rng):
    """A small concurrent-writer or random history, as ``(ops, procs,
    streams, k)``: the writers' arrival order, or the random rows
    round-robin."""
    k = data.draw(st.integers(1, 2), label="k")
    if data.draw(st.booleans(), label="concurrent writers"):
        procs = data.draw(st.integers(2, 4), label="procs")
        writes = data.draw(st.integers(1, 3), label="writes")
        reads = data.draw(
            st.integers(1, SEARCHABLE_OPS // procs - writes), label="reads"
        )
        return concurrent_writers(rng, procs, writes, reads, k), procs, 1, k
    procs = data.draw(st.integers(2, 3), label="procs")
    streams = data.draw(st.integers(1, 2), label="streams")
    length = data.draw(st.integers(2, 4), label="ops per process")
    history = random_history(rng, procs, length, streams, k)
    events = history.events
    ops = [
        (p, events[chain[i]].invocation, events[chain[i]].output)
        for i in range(length)
        for p, chain in enumerate(history.processes())
    ]
    return ops, procs, streams, k


def po_shuffle(rng, ops):
    """A random interleaving of ``ops`` that keeps each process's program
    order: the feed of n taps, or of a capture without timestamps."""
    left = {}
    for op in reversed(ops):
        left.setdefault(op[0], []).append(op)
    shuffled = []
    while left:
        p = rng.choice([p for p, row in left.items() for _ in row])
        shuffled.append(left[p].pop())
        if not left[p]:
            del left[p]
    return shuffled


def reads_first(rng, ops):
    """An interleaving of ``ops`` that keeps each process's program order
    and holds every write back while some process's next op is a read:
    reads arrive before their writers and park."""
    left = {}
    for op in reversed(ops):
        left.setdefault(op[0], []).append(op)
    order = []
    while left:
        heads = [p for p, row in left.items() if row[-1][1].method == "r"]
        p = rng.choice(heads or list(left))
        order.append(left[p].pop())
        if not left[p]:
            del left[p]
    return order


class CheckedCoSuccs(StreamingMonitor):
    """A monitor that checks, at every call, the co-successor generators
    the order searches step to against their definition by linear scan:
    per process, its first write other than ``u`` whose clock covers
    ``u``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.co_succ_checks = 0

    def _co_succs(self, u):
        succs = super()._co_succs(u)
        expected = []
        for _, us in self._pw:
            first = next(
                (x for x in us if x != u and self._covers(self._u_g[x], u)), None
            )
            if first is not None:
                expected.append(first)
        assert succs == expected, (u, succs, expected)
        self.co_succ_checks += 1
        return succs


def assert_closed_clocks(monitor):
    """Every op's clock row dominates its program predecessor's and the
    rows of the writes it read from: the closure that lets a first check
    skip a window writer the read's past already holds."""
    n, vc = monitor.n, monitor._vc

    def dominates(a, b):
        return all(map(int.__ge__, vc[a * n : (a + 1) * n], vc[b * n : (b + 1) * n]))

    for g, succ in enumerate(monitor._po_succ):
        if succ >= 0:
            assert dominates(succ, g), ("po", g, succ)
    for u, rg in zip(monitor._rf_w, monitor._rf_r):
        assert dominates(rg, monitor._u_g[u]), ("rf", monitor._u_g[u], rg)


def arbitration_closure(monitor):
    """The transitive closure of co ∪ the recorded conflict edges over the
    writes, as pairs of (stream, value): write ordinals are arrival
    order, so they differ between feeds of one history."""
    from repro.util.orders import transitive_closure

    count = len(monitor._u_g)
    pred = [0] * count
    for b in range(count):
        for a in range(count):
            if a != b and monitor._covers(monitor._u_g[b], a):
                pred[b] |= 1 << a
    for a, b in monitor._cf.orders[0].edges():
        pred[b] |= 1 << a
    closed = transitive_closure(pred)
    name = list(zip(monitor._u_key, monitor._u_val))
    return {
        (name[a], name[b])
        for b in range(count)
        for a in range(count)
        if closed[b] >> a & 1
    }


# ----------------------------------------------------------------------
class TestLitmusAgreement:
    def test_monitor_agrees_with_fig3_classification(self):
        from repro.litmus import all_litmus

        conclusive = 0
        for litmus in all_litmus():
            verdicts = replay_history(litmus.history, litmus.adt)
            for criterion, verdict in verdicts.items():
                if verdict.ok is None or criterion not in litmus.expected:
                    continue
                conclusive += 1
                assert verdict.ok == litmus.expected[criterion], (
                    f"{litmus.key}/{criterion}: monitor says {verdict.ok} "
                    f"({verdict.reason}), gallery says "
                    f"{litmus.expected[criterion]}"
                )
        # the window and memory figures must actually be decided (queues
        # and the non-differentiated 3i are legitimately out of scope)
        assert conclusive >= 12

    def test_unsupported_adt_is_inconclusive_not_wrong(self):
        from repro.litmus.figures import fig3f

        litmus = fig3f()  # queue history
        verdicts = replay_history(litmus.history, litmus.adt)
        assert all(v.ok is None for v in verdicts.values())


class TestCorruptedCorpusAgreement:
    def test_random_differentiated_histories(self):
        """Criterion-by-criterion agreement with the search on random
        histories, most of which violate something."""
        disagreements = []
        for shape in CORPUS_SHAPES:
            for seed in range(CORPUS_SEEDS):
                history, adt = corpus_history(shape, seed)
                verdicts = replay_history(history, adt)
                for criterion, verdict in verdicts.items():
                    if verdict.ok is None:
                        continue
                    truth = search_ok(history, adt, criterion)
                    if truth is not None and verdict.ok != truth:
                        disagreements.append(
                            (shape, seed, criterion, verdict.ok, truth,
                             verdict.reason)
                        )
        assert not disagreements, disagreements


class TestRecordedScenarioAgreement:
    def test_timestamped_histories_exercise_out_of_order_replay(self):
        """Recorded histories carry invocation timestamps, so the replay
        feeds the monitor in recorded-time order — reads arrive before
        some of their writers and the late-rf re-check path must keep
        the verdict identical to the search's."""
        from repro.litmus.generators import recorded_window_history

        disagreements = []
        for seed in range(15):
            history, adt = recorded_window_history(
                random.Random(seed), processes=3, ops_per_process=4
            )
            verdicts = replay_history(history, adt)
            for criterion, verdict in verdicts.items():
                if verdict.ok is None:
                    continue
                truth = search_ok(history, adt, criterion)
                if truth is not None and verdict.ok != truth:
                    disagreements.append(
                        (seed, criterion, verdict.ok, truth, verdict.reason)
                    )
        assert not disagreements, disagreements


# ----------------------------------------------------------------------
#: the clean generator arbitrates windows by the global issue order, so
#: it is CCv-correct by construction but *not* CC-correct (a process that
#: delivers a lagging write renders it in arbitration position, not
#: insertion position — CC and CCv are incomparable, Fig. 1), hence the
#: mutation corpus checks the CCv side of the catalogue
CCV_SIDE = ("WCC", "CCV")


class TestMutationCorpus:
    """Known violations spliced into 10k-op clean streams: the monitor
    must flag the right pattern class at the exact stream index."""

    def test_clean_10k_stream_is_clean(self):
        verdicts, monitor = feed_all(clean_ccv_ops(0, 10_000), criteria=CCV_SIDE)
        assert all(v.ok is True for v in verdicts.values()), {
            c: v.reason for c, v in verdicts.items()
        }
        assert monitor.stats()["ops_seen"] == 10_000

    def test_work_per_operation_does_not_grow_with_the_stream(self):
        """The monitor is polynomial because its work per operation is
        bounded by the delivery lag, not by the stream's length: the
        bad-pattern checks, happens-before edges and closure steps (none
        at all on an in-order feed) per op at 16k ops stay within 1.5x
        of 4k ops — work counters, not a wall clock."""
        keys = (
            "patterns_checked", "propagate_steps", "hb_edges",
            "order_searches", "order_moved",
        )
        per_op = {}
        for total in (4_000, 16_000):
            verdicts, monitor = feed_all(
                clean_ccv_ops(0, total), criteria=CCV_SIDE
            )
            assert all(v.ok is True for v in verdicts.values())
            stats = monitor.stats()
            per_op[total] = {key: stats[key] / total for key in keys}
        assert per_op[4_000]["patterns_checked"] > 0 < per_op[4_000]["hb_edges"]
        # arbitration is the issue order here: no edge needs a search
        assert per_op[16_000]["order_searches"] == 0 == per_op[16_000]["order_moved"]
        for key, small in per_op[4_000].items():
            assert per_op[16_000][key] <= 1.5 * small, (key, per_op)

    def test_relabel_work_per_operation_does_not_grow_either(self):
        """Where arbitration (Lamport stamps) keeps disagreeing with the
        arrival order, searches and re-dealt labels per op are set by
        the delivery lag too: flat from 150 to 600 ops per process."""
        per_op = {}
        for ops_per_process in (150, 600):
            verdicts, monitor = grown_hot_key(ops_per_process)
            assert all(v.ok is True for v in verdicts.values())
            stats = monitor.stats()
            per_op[ops_per_process] = {
                key: stats[key] / stats["ops_seen"]
                for key in ("order_searches", "order_moved", "patterns_checked")
            }
        assert per_op[150]["order_searches"] > 0 < per_op[150]["order_moved"]
        for key, small in per_op[150].items():
            assert per_op[600][key] <= 1.5 * small, (key, per_op)

    def test_window_order_violation_pattern_and_index(self):
        ops, at = spliced_ops("window-order")
        verdicts, _ = feed_all(ops, criteria=CCV_SIDE)
        for criterion in CCV_SIDE:  # a co-order violation kills both
            verdict = verdicts[criterion]
            assert verdict.ok is False, (criterion, verdict.reason)
            assert verdict.violation.pattern == "WindowOrderCO"
            assert verdict.violation.index == at + 2

    def test_conflict_cycle_kills_ccv_only(self):
        ops, at = spliced_ops("conflict-cycle")
        verdicts, _ = feed_all(ops, criteria=CCV_SIDE)
        assert verdicts["CCV"].ok is False
        assert verdicts["CCV"].violation.pattern == "CyclicCF"
        assert verdicts["CCV"].violation.index == at + 3
        assert verdicts["WCC"].ok is True

    def test_hidden_write_violation(self):
        ops, at = spliced_ops("hidden-write")
        verdicts, _ = feed_all(ops, criteria=CCV_SIDE)
        for criterion in CCV_SIDE:
            verdict = verdicts[criterion]
            assert verdict.ok is False, (criterion, verdict.reason)
            assert verdict.violation.pattern == "WriteCOInitRead"
            assert verdict.violation.index == at + 1

    def test_mid_stream_detection(self):
        """feed() itself returns the violation the moment it closes —
        no finalize needed, ops before the splice return None."""
        spliced, at = spliced_ops("mid-stream")
        monitor = StreamingMonitor(N, streams=STREAMS, k=K, criteria=CCV_SIDE)
        first = None
        for i, (p, invocation, output) in enumerate(spliced):
            violation = monitor.feed(p, invocation, output)
            if violation is not None:
                first = (i, violation)
                break
        assert first is not None
        index, violation = first
        assert index == at + 2
        assert violation.pattern == "WindowOrderCO"

    def test_violation_failure_shape_is_shared_with_chaos(self):
        """MonitorViolation.as_failure() is the (kind, detail) tuple the
        chaos driver and the explore matrix both report."""
        verdicts, _ = feed_all(FAILURE_SHAPE_OPS)
        kind, detail = verdicts["CCV"].violation.as_failure()
        assert kind == "bad-pattern:WindowOrderCO"
        assert detail["index"] == 2
        assert detail["pattern"] == "WindowOrderCO"
        assert isinstance(detail["witness"], list)
        assert set(detail) >= {"pattern", "criteria", "index", "witness"}


# ----------------------------------------------------------------------
class TestGoldenIdentity:
    """The topological order changed how a cycle is found, not which
    edges are proposed: every stream recorded before it reproduces —
    verdict, pattern, index, witness, edge and pattern counters — except
    where the generator derivation defines the field."""

    @pytest.mark.parametrize("name", sorted(GOLDENS["rows"]))
    def test_row_reproduces(self, name):
        assert golden_row_of(name) == GOLDENS["rows"][name]

    def test_every_case_has_a_row(self):
        assert set(golden_cases()) == set(GOLDENS["rows"])


class TestOrderMaintenance:
    """Traffic the clean generator never produces: conflict edges
    against the arrival order, relabels, cycles found after them."""

    def test_live_hot_key_run_relabels_and_stays_clean(self):
        verdicts, monitor = grown_hot_key(300)
        assert all(v.ok is True for v in verdicts.values()), {
            c: v.reason for c, v in verdicts.items()
        }
        stats = monitor.stats()
        assert 0 < stats["order_searches"] < stats["cf_edges"]  # both paths ran
        assert stats["order_moved"] >= 2 * stats["order_searches"]
        assert stats["propagate_steps"] == 0  # live arrival order: no rebuild

    def test_concurrent_writers_fail_ccv_only_and_agree_with_the_search(self):
        cycles_after_relabels = searched = 0
        for shape in WRITER_SHAPES:
            procs, _, _, k = shape
            for seed in range(WRITER_SEEDS):
                verdicts, monitor = feed_writers(shape, seed)
                assert verdicts["WCC"].ok is True, verdicts["WCC"].reason
                ccv = verdicts["CCV"]
                assert ccv.ok is not None
                if ccv.ok is False:
                    assert ccv.violation.pattern == "CyclicCF"
                    if monitor.stats()["order_moved"]:
                        cycles_after_relabels += 1
                ops = writer_ops(shape, seed)
                if len(ops) <= SEARCHABLE_OPS:
                    truth = search_ok(
                        history_of(ops, procs), WindowStreamArray(1, k), "CCV"
                    )
                    if truth is not None:
                        searched += 1
                        assert ccv.ok == truth, (shape, seed, ccv.reason)
        assert searched >= 25
        assert cycles_after_relabels >= 5

    def test_search_budget_exhaustion_is_inconclusive(self):
        """``propagation_budget`` bounds the relabel searches too: a
        verdict reached inside it stands, nothing is decided past it."""
        shape = WRITER_SHAPES[-1]
        ops = writer_ops(shape, 0)
        unbounded, _ = feed_writers(shape, 0)
        for budget in (0, 3, 30):
            monitor = StreamingMonitor(
                shape[0], streams=1, k=shape[3], propagation_budget=budget
            )
            for p, invocation, output in ops:
                monitor.feed(p, invocation, output)
            for criterion, verdict in monitor.finalize().items():
                if budget == 0:
                    assert verdict.ok is None and "budget" in verdict.reason
                assert verdict.ok in (None, unbounded[criterion].ok)

    def test_one_audit_that_closes_both_graphs_reports_both(self):
        """Process 1's read of 1 after its own write of 5 puts 5 before 1
        in CCv's graph and in D_1.  Its first read, of 2, parks until
        process 0's write of 2 arrives; resolving it puts 1 co-before 5,
        which closes a cycle in both graphs in the same audit.  Each
        criterion gets its own cycle witness."""
        ops = [
            (1, r(0), (2,)), (1, r(0), (0,)), (0, w(0, 1), BOTTOM),
            (1, w(0, 5), BOTTOM), (1, r(0), (1,)), (0, w(0, 2), BOTTOM),
            (0, w(0, 3), BOTTOM), (0, w(0, 4), BOTTOM),
        ]
        monitor = StreamingMonitor(2, streams=1, k=1)
        for p, invocation, output in ops:
            monitor.feed(p, invocation, output)
        verdicts = monitor.finalize()
        expected = {
            "WCC": ("WriteCOInitRead", ((0, 0), (1, 1))),
            "CC": ("CyclicHB", ((1, 2), (0, 0))),
            "CCV": ("CyclicCF", ((1, 2), (0, 0))),
        }
        for criterion, (pattern, witness) in expected.items():
            violation = verdicts[criterion].violation
            assert violation is not None, (criterion, verdicts[criterion].reason)
            assert (violation.pattern, violation.index, violation.witness) == (
                pattern, 5, witness
            ), criterion


#: per pattern, a smallest stream (window size k, ops) that closes it
PATTERN_STREAMS = {
    "ThinAirRead": (1, [(0, r(0), (5,))]),
    "MalformedWindow": (2, [(0, w(0, 1), BOTTOM), (0, r(0), (1, 0))]),
    "CyclicCO": (1, [(0, r(0), (1,)), (0, w(0, 1), BOTTOM)]),
    "WriteCOInitRead": (
        2, [(0, w(0, 1), BOTTOM), (0, w(0, 2), BOTTOM), (0, r(0), (0, 2))]
    ),
    "WindowOrderCO": (2, FAILURE_SHAPE_OPS),
    "WriteCORead": (
        1, [(0, w(0, 1), BOTTOM), (0, w(0, 2), BOTTOM), (0, r(0), (1,))]
    ),
    "CyclicCF": (2, [
        (0, w(0, 1), BOTTOM), (1, w(0, 2), BOTTOM),
        (2, r(0), (1, 2)), (3, r(0), (2, 1)),
    ]),
    # p2's second read puts 1 before 2, which its first read showed alone
    "WriteHBInitRead": (2, [
        (0, w(0, 1), BOTTOM), (0, w(0, 3), BOTTOM), (1, w(0, 2), BOTTOM),
        (2, r(0), (0, 2)), (2, r(0), (2, 3)),
    ]),
    "CyclicHB": (2, [
        (0, w(0, 1), BOTTOM), (1, w(0, 2), BOTTOM),
        (2, r(0), (1, 2)), (2, r(0), (2, 1)),
    ]),
}


class TestPatternTable:
    """:data:`PATTERNS` is the one place that says which criteria a
    pattern refutes: a pattern recorded without a row, or a row no code
    records, fails here."""

    def test_every_recorded_pattern_has_a_row_and_every_row_is_recorded(self):
        tree = ast.parse(pathlib.Path(streaming_monitor.__file__).read_text())
        recorded, violations = set(), []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "_record":
                first = node.args[0]
                if isinstance(first, ast.Constant):
                    recorded.add(first.value)
                else:  # a conflict graph's cycle pattern, from its row
                    assert ast.unparse(first) == "row.pattern", ast.unparse(first)
            elif name == "_Graphs":
                recorded.add(node.args[1].value)
            elif name == "MonitorViolation":
                violations.append(node)
        assert recorded <= set(PATTERNS), recorded - set(PATTERNS)
        assert set(PATTERNS) <= recorded, set(PATTERNS) - recorded
        # one construction, its criteria read off the table
        (violation,) = violations
        (criteria,) = [kw.value for kw in violation.keywords if kw.arg == "criteria"]
        assert ast.unparse(criteria) == "PATTERNS[pattern].criteria"

    @pytest.mark.parametrize("pattern", sorted(PATTERN_STREAMS))
    def test_each_pattern_refutes_exactly_its_row(self, pattern):
        k, ops = PATTERN_STREAMS[pattern]
        n = 1 + max(p for p, _, _ in ops)
        monitor = StreamingMonitor(n, k=k)
        for p, invocation, output in ops:
            monitor.feed(p, invocation, output)
        verdicts = monitor.finalize()
        for criterion in PATTERNS[pattern].criteria:
            assert verdicts[criterion].violation.pattern == pattern, verdicts
        for verdict in verdicts.values():
            if verdict.violation is not None:
                found = verdict.violation
                assert found.criteria == PATTERNS[found.pattern].criteria
            else:
                assert verdict.ok is True, verdict.reason


class TestIllFormedInput:
    @pytest.mark.parametrize("pid", [-1, 3])
    def test_feed_rejects_a_pid_outside_the_process_range(self, pid):
        monitor = StreamingMonitor(3)
        monitor.feed(0, w(0, 1), BOTTOM)
        with pytest.raises(ValueError):
            monitor.feed(pid, w(0, 2), BOTTOM)
        # refused before any state changed
        assert monitor.stats()["ops_seen"] == 1
        assert list(monitor._vc) == [1, 0, 0]
        monitor.feed(1, r(0), (1,))
        assert all(v.ok is True for v in monitor.finalize().values())

    def test_feed_after_finalize_is_refused(self):
        """finalize() turns a read still waiting for its writer into a
        thin-air read, so the stream cannot go on: fed on, the writer
        would arrive after a verdict its arrival refutes."""
        ops = [(0, w(0, 1), BOTTOM), (1, r(0), (1, 5)), (0, w(0, 5), BOTTOM)]
        monitor = StreamingMonitor(2, streams=1, k=2, criteria=CCV_SIDE)
        for p, invocation, output in ops[:2]:
            monitor.feed(p, invocation, output)
        first = monitor.finalize()
        assert {v.violation.pattern for v in first.values()} == {"ThinAirRead"}
        with pytest.raises(ValueError, match="finalize"):
            monitor.feed(*ops[2])
        assert monitor.stats()["ops_seen"] == 2
        again = monitor.finalize()
        assert {c: (v.ok, v.violation) for c, v in again.items()} == {
            c: (v.ok, v.violation) for c, v in first.items()
        }
        # the same feed, finalized once at its end, is clean
        monitor = StreamingMonitor(2, streams=1, k=2, criteria=CCV_SIDE)
        for p, invocation, output in ops:
            monitor.feed(p, invocation, output)
        assert all(v.ok is True for v in monitor.finalize().values())

    @pytest.mark.parametrize("op", [w(5, 1), r(2), r(-1)])
    def test_feed_rejects_a_stream_outside_the_adt(self, op):
        """As the ADT (and so the search) does: no verdict on an
        operation the ADT refuses, and no state changed by it."""
        output = BOTTOM if op.method == "w" else (0, 0)
        with pytest.raises(ValueError, match="out of") as refused:
            check(history_of([(0, op, output)], 1), WindowStreamArray(2, 2), "WCC")
        monitor = StreamingMonitor(2, streams=2, k=2)
        monitor.feed(0, w(1, 1), BOTTOM)
        with pytest.raises(ValueError) as refused_too:
            monitor.feed(1, op, output)
        assert str(refused_too.value) == str(refused.value)
        assert monitor.stats()["ops_seen"] == 1
        monitor.feed(1, r(1), (0, 1))
        assert all(v.ok is True for v in monitor.finalize().values())

    def test_memory_monitor_rejects_an_unknown_register(self):
        from repro.adts.memory import MemoryADT

        monitor = monitor_for_adt(MemoryADT("xy"), 2)
        monitor.feed(0, w("x", 1), BOTTOM)
        with pytest.raises(ValueError, match="unknown register 'z'"):
            monitor.feed(1, w("z", 2), BOTTOM)
        monitor.feed(1, r("x"), 1)
        assert all(v.ok is True for v in monitor.finalize().values())

    @pytest.mark.parametrize("shape", [dict(k=0), dict(streams=0), dict(streams=())])
    def test_constructor_rejects_an_empty_adt(self, shape):
        with pytest.raises(ValueError):
            StreamingMonitor(2, **shape)

    def test_retracted_violation_leaves_no_first_violation_index(self):
        monitor = StreamingMonitor(1, k=2)
        monitor.feed(0, w(0, 1), BOTTOM)
        monitor.feed(0, w(0, 2), BOTTOM)
        assert monitor.feed(0, r(0), (2, 1)).pattern == "WindowOrderCO"
        assert monitor.stats()["first_violation_index"] == 2
        monitor.feed(0, w(0, 1), BOTTOM)  # duplicate value: all bets off
        assert all(v.ok is None for v in monitor.finalize().values())
        assert monitor.stats()["first_violation_index"] is None


def exact_verdicts(history, adt):
    """WCC / CC / CCv by the exact search, and SC."""
    return {
        "WCC": check_weak_causal(history, adt).ok,
        "CC": check_causal(history, adt).ok,
        "CCV": check_convergence(history, adt).ok,
        "SC": check_sequential(history, adt).ok,
    }


class TestReadShape:
    """The monitor reads the shape the ADT returns: a window of exactly
    ``k`` slots from a window stream, one value from a register."""

    @pytest.mark.parametrize(
        "ops",
        [
            [(w(0, 1), BOTTOM), (r(0), (1,))],
            [(w(0, 1), BOTTOM), (w(0, 2), BOTTOM), (w(0, 3), BOTTOM), (r(0), (1, 2, 3))],
        ],
        ids=["short", "long"],
    )
    def test_a_window_of_the_wrong_length_is_malformed(self, ops):
        history = History.from_processes([[Operation(i, o) for i, o in ops]])
        adt = WindowStreamArray(1, 2)
        assert exact_verdicts(history, adt) == dict.fromkeys(
            ("WCC", "CC", "CCV", "SC"), False
        )
        for verdict in replay_history(history, adt).values():
            assert verdict.ok is False, verdict.reason
            assert verdict.violation.pattern == "MalformedWindow"
            assert verdict.violation.index == len(ops) - 1

    def test_a_tuple_valued_register_reads_one_value(self):
        value = (1, 2)
        ops = [(Invocation("w", (value,)), BOTTOM), (Invocation("r"), value)]
        history = History.from_processes([[Operation(i, o) for i, o in ops]])
        assert exact_verdicts(history, Register()) == dict.fromkeys(
            ("WCC", "CC", "CCV", "SC"), True
        )
        verdicts = replay_history(history, Register())
        assert {c: v.ok for c, v in verdicts.items()} == dict.fromkeys(
            SUPPORTED_CRITERIA, True
        ), {c: v.reason for c, v in verdicts.items()}
        # monitor_for_adt passes the shape on; a bare monitor reads a
        # tuple as a window, as it always has
        monitor = monitor_for_adt(Register(), 1)
        direct = StreamingMonitor(1)
        for invocation, output in ops:
            monitor.feed(0, invocation, output)
            direct.feed(0, invocation, output)
        assert all(v.ok is True for v in monitor.finalize().values())
        assert all(v.ok is False for v in direct.finalize().values())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_mutated_window_length_is_never_a_wrong_yes(self, data):
        """Small differentiated W_k histories, one read's window one slot
        shorter or longer: where the exact search says no, the monitor
        never says yes."""
        k = data.draw(st.integers(1, 2), label="k")
        streams = data.draw(st.integers(1, 2), label="streams")
        value = 0
        rows = []
        for _ in range(data.draw(st.integers(1, 3), label="procs")):
            row = []
            for _ in range(data.draw(st.integers(1, 3))):
                key = data.draw(st.integers(0, streams - 1))
                if data.draw(st.booleans()):
                    value += 1
                    row.append((w(key, value), BOTTOM))
                else:
                    shown = data.draw(
                        st.lists(st.integers(1, value + 1), max_size=k, unique=True)
                    )
                    row.append((r(key), (0,) * (k - len(shown)) + tuple(sorted(shown))))
            rows.append(row)
        reads = [
            (p, i)
            for p, row in enumerate(rows)
            for i, (invocation, _) in enumerate(row)
            if invocation.method == "r"
        ]
        if not reads:
            rows[0].append((r(0), (0,) * k))
            reads = [(0, len(rows[0]) - 1)]
        p, i = data.draw(st.sampled_from(reads), label="mutated read")
        invocation, window = rows[p][i]
        if data.draw(st.booleans(), label="shorten"):
            rows[p][i] = (invocation, window[1:])
        else:
            rows[p][i] = (invocation, (0,) + window)
        history = History.from_processes(
            [[Operation(inv, out) for inv, out in row] for row in rows]
        )
        adt = WindowStreamArray(streams, k)
        for criterion, verdict in replay_history(history, adt).items():
            if verdict.ok is True:
                assert search_ok(history, adt, criterion) is not False, (
                    criterion,
                    rows,
                )


# ----------------------------------------------------------------------
class TestRecorderSubscription:
    def test_subscriber_gets_one_record_per_call_equal_to_rows(self):
        from repro.runtime.recorder import HistoryRecorder

        recorder = HistoryRecorder(2)
        seen = []
        recorder.subscribe(seen.append)
        assert recorder.record(0, Invocation("w", (0, 1)), BOTTOM, 0.0, 1.0) is None
        recorder.record(1, Invocation("r", (0,)), (0, 1), 1.0, 2.0)
        assert seen == [recorder.rows[0][0], recorder.rows[1][0]]
        assert [(r.pid, r.invocation, r.output) for r in seen] == [
            (0, Invocation("w", (0, 1)), BOTTOM),
            (1, Invocation("r", (0,)), (0, 1)),
        ]
        # the columns build a fresh record on every read
        assert recorder.rows[0][0] is not recorder.rows[0][0]

    def test_history_bit_identical_with_and_without_subscriber(self):
        """Property test over seeds: subscribing is a pure observation —
        the recorded rows (values, outputs, timestamps) are identical."""
        from repro.scenarios.matrix import run_scenario_cell

        def rows_of(result):
            return [
                [
                    (r.invocation.method, r.invocation.args, r.output,
                     r.start, r.end, r.stable)
                    for r in row
                ]
                for row in result.recorder.rows
            ]

        for seed in range(3):
            seen = []
            with_sub = run_scenario_cell(
                "flaky-link", "ccv-fig5", seed, fast_ops=4,
                subscriber=seen.append,
            )
            without = run_scenario_cell("flaky-link", "ccv-fig5", seed, fast_ops=4)
            assert rows_of(with_sub) == rows_of(without)
            assert len(seen) == with_sub.recorder.count()

    def test_live_subscription_matches_replay(self):
        """The monitor attached live (via subscribe) reaches the same
        verdicts as replaying the finished history."""
        from repro.scenarios.matrix import run_scenario_cell

        for algorithm in ("ccv-fig5", "lww"):
            monitor = monitor_for_adt(WindowStreamArray(4, 2), 4)
            result = run_scenario_cell(
                "flaky-link", algorithm, 0, fast_ops=4,
                subscriber=monitor.subscriber(),
            )
            live = monitor.finalize()
            replayed = replay_history(
                result.history, WindowStreamArray(4, 2)
            )
            assert {c: v.ok for c, v in live.items()} == {
                c: v.ok for c, v in replayed.items()
            }


# ----------------------------------------------------------------------
class TestMatrixIntegration:
    def test_monitored_cells_carry_streaming_verdicts_and_stats(self):
        from repro.scenarios.matrix import run_matrix

        report = run_matrix(
            scenarios=["flaky-link"],
            algorithms=["ccv-fig5", "pram"],
            seeds=1,
            jobs=1,
            fast=True,
        )
        assert report.ok
        by_algo = {c.algorithm: c for c in report.cells}
        ccv_cell = by_algo["ccv-fig5"]
        assert ccv_cell.streaming is not None
        assert ccv_cell.streaming["stats"]["ops_seen"] > 0
        assert "patterns_checked" in ccv_cell.streaming["stats"]
        assert ccv_cell.streaming["criteria"]["CCV"]["ok"] is True
        # the PC cell gets informational causal verdicts: they never fail
        # the cell (PC does not promise CCv)
        pram_cell = by_algo["pram"]
        assert pram_cell.ok is True
        assert pram_cell.streaming is not None
        assert pram_cell.failures == []

    def test_every_cell_carries_a_streaming_payload(self):
        """The monitor runs on every cell, CONV ones included, where its
        verdicts are informational: they add no failure."""
        from repro.scenarios.matrix import run_matrix

        report = run_matrix(
            scenarios=["flaky-link"], algorithms=["lww"], seeds=1,
            jobs=1, fast=True,
        )
        assert all(cell.streaming is not None for cell in report.cells)
        assert all(cell.failures == [] for cell in report.cells)


# ----------------------------------------------------------------------
class TestReplayDeterminism:
    def test_replay_is_deterministic(self):
        from repro.litmus.generators import recorded_window_history

        history, adt = recorded_window_history(random.Random(7))
        first = replay_history(history, adt)
        second = replay_history(history, adt)
        assert {c: (v.ok, v.reason) for c, v in first.items()} == {
            c: (v.ok, v.reason) for c, v in second.items()
        }

    def test_feed_order_independence(self):
        """Program-order feeding and recorded-time feeding agree."""
        from repro.litmus.generators import recorded_window_history

        for seed in range(8):
            history, adt = recorded_window_history(random.Random(seed))
            timed = replay_history(history, adt)
            untimed = replay_history(
                History.from_processes(
                    [
                        [
                            Operation(
                                history.events[eid].invocation,
                                history.events[eid].output,
                            )
                            for eid in chain
                        ]
                        for chain in history.processes()
                    ]
                ),
                adt,
            )
            assert {c: v.ok for c, v in timed.items()} == {
                c: v.ok for c, v in untimed.items()
            }

    def test_feed_order_independence_with_concurrent_writers(self):
        """Fed process by process every read parks until its writers
        arrive, pasts grow under labelled writes and the labels are
        rebuilt — with conflict edges still to come."""
        rebuilt = 0
        for shape in WRITER_SHAPES:
            for seed in range(WRITER_SEEDS):
                arrival, _ = feed_writers(shape, seed)
                by_process, monitor = feed_writers(shape, seed, program_order=True)
                stats = monitor.stats()
                if stats["propagate_steps"] and stats["cf_edges"]:
                    rebuilt += 1
                assert {c: v.ok for c, v in by_process.items()} == {
                    c: v.ok for c, v in arrival.items()
                }, (shape, seed)
        assert rebuilt >= 20

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_program_order_feed_agrees_with_the_search(self, data):
        """The conflict relation is defined on the history, not on the
        feed: over small concurrent-writer and random histories, every
        shuffle that keeps program order gets the search's verdicts
        wherever both are conclusive and the reference feed's verdicts
        (the writers' arrival order, or the random rows round-robin),
        and, while CCv holds, the same closure of co ∪ conflict edges."""
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        ops, procs, streams, k = draw_small_ops(data, rng)
        adt = WindowStreamArray(streams, k)
        truth = {
            c: search_ok(history_of(ops, procs), adt, c) for c in SUPPORTED_CRITERIA
        }

        def feed(order):
            monitor = StreamingMonitor(procs, streams=streams, k=k)
            for p, invocation, output in order:
                monitor.feed(p, invocation, output)
            return monitor.finalize(), monitor

        reference, monitor = feed(ops)
        closure = arbitration_closure(monitor) if reference["CCV"].ok else None
        for _ in range(3):
            verdicts, monitor = feed(po_shuffle(rng, ops))
            for criterion, verdict in verdicts.items():
                if None not in (verdict.ok, truth[criterion]):
                    assert verdict.ok == truth[criterion], (
                        criterion, verdict.reason, ops
                    )
            assert {c: v.ok for c, v in verdicts.items()} == {
                c: v.ok for c, v in reference.items()
            }, ops
            if closure is not None:
                assert arbitration_closure(monitor) == closure, ops

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_clocks_stay_closed_under_any_program_order_feed(self, data):
        """After every feed each op's clock dominates its program
        predecessor's and its writers' — on the small histories above,
        shuffled, and on clean streams whose reads arrive before their
        writers, where late checks grow pasts already copied along po
        and rf.  The order searches' co-successors rely on that closure:
        :class:`CheckedCoSuccs` holds every one they derive to its
        definition, mid-feed too."""
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="clean stream, reads first"):
            total = data.draw(st.integers(10, 120), label="ops")
            order = reads_first(rng, clean_ccv_ops(rng.randrange(2**32), total))
            procs, streams, k = N, STREAMS, K
        else:
            ops, procs, streams, k = draw_small_ops(data, rng)
            order = po_shuffle(rng, ops)
        monitor = CheckedCoSuccs(procs, streams=streams, k=k)
        for p, invocation, output in order:
            monitor.feed(p, invocation, output)
            assert_closed_clocks(monitor)
        monitor.finalize()
        assert_closed_clocks(monitor)

    def test_co_successors_match_their_definition_where_labels_move(self):
        """The order searches derive each process's first write covering
        ``u`` from the clocks when asked; :class:`CheckedCoSuccs` holds
        it to the definition at every call on the traffic that relabels:
        concurrent writers in arrival order and process by process
        (re-sorted labels, cycle witnesses), and a live hot-key run."""
        checks = 0
        for shape in WRITER_SHAPES:
            for seed in range(WRITER_SEEDS):
                for program_order in (False, True):
                    _, monitor = feed_writers(
                        shape, seed, program_order, CheckedCoSuccs
                    )
                    checks += monitor.co_succ_checks
        assert checks > 0
        _, monitor = grown_hot_key(300, CheckedCoSuccs)
        assert monitor.co_succ_checks > 0

    def test_skipped_merges_are_window_writers_already_in_the_past(self):
        """A first check merges a window writer only if the read's past
        does not hold it yet: on a clean stream fed in issue order every
        merge that runs grows a past, and the skips plus the merges are
        the rf edges."""
        monitor = StreamingMonitor(N, streams=STREAMS, k=K)
        merges = []
        merge = monitor._merge_vc

        def recording_merge(dst, src):
            merges.append(merge(dst, src))
            return merges[-1]

        monitor._merge_vc = recording_merge
        for p, invocation, output in clean_ccv_ops(3, 2_000):
            monitor.feed(p, invocation, output)
        stats = monitor.stats()
        assert stats["propagate_steps"] == 0
        assert all(merges)
        assert 0 < stats["rf_merges_skipped"] < stats["rf_edges"]
        assert stats["rf_merges_skipped"] + len(merges) == stats["rf_edges"]


# ----------------------------------------------------------------------
class TestReplayFootprint:
    def test_a_dropped_monitor_is_freed_without_the_cycle_collector(self):
        """Its conflict graphs reach the monitor weakly: a reference cycle
        would keep every finished monitor, columns and all, alive until
        the cycle collector runs — a second monitor's worth of peak
        memory wherever monitors are built one after another."""
        import gc
        import weakref

        gc.disable()
        try:
            monitor = StreamingMonitor(N, streams=STREAMS, k=K)
            for p, invocation, output in clean_ccv_ops(0, 500):
                monitor.feed(p, invocation, output)
            monitor.finalize()
            alive = weakref.ref(monitor)
            del monitor
            assert alive() is None
        finally:
            gc.enable()

    def test_build_and_replay_peak_is_linear_in_the_stream(self):
        """Traced bytes, no wall clock: building the history of a 16k-op
        clean stream and replaying it peaks under 800 B per operation,
        monitor state included (~490 measured, the same at 64k ops; one
        eager past mask per event made it ~1.8 KB here and ~4.5 KB at
        64k).  The tracer slows the feed ~20x, hence the short stream."""
        import gc
        import tracemalloc

        total = 16_000
        rows = [[] for _ in range(N)]
        times = [[] for _ in range(N)]
        for i, (p, invocation, output) in enumerate(clean_ccv_ops(5, total)):
            rows[p].append(Operation(invocation, output))
            times[p].append(float(i))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            history = History.from_processes(rows, times=times)
            verdict = replay_history(
                history, WindowStreamArray(STREAMS, K), criteria=("CCV",)
            )["CCV"]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert verdict.ok is True
        assert verdict.stats["ops_seen"] == total
        assert verdict.stats["feed_order"] == "recorded-time"
        assert peak / total < 800

    def test_monitor_state_per_operation_is_bounded(self):
        """Traced bytes the monitor retains per operation of a 10k-op
        clean stream under all three criteria: ~306 in a fresh process,
        323 while every write also kept n first-coverage frontiers.
        With them, ~334 inside the test run with the hot columns as lists
        and the cold ones as arrays, ~383 with every column a list (the
        bound is halfway), 339 with every column an array."""
        import gc
        import tracemalloc

        ops = clean_ccv_ops(0, 10_000)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            monitor = StreamingMonitor(N, streams=STREAMS, k=K)
            for p, invocation, output in ops:
                monitor.feed(p, invocation, output)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert monitor.stats()["ops_seen"] == len(ops)
        assert retained / len(ops) < 358, retained / len(ops)


# ----------------------------------------------------------------------
class TestCli:
    def test_classify_streaming_json(self, tmp_path, capsys):
        from repro.cli import main

        spec = {
            "adt": {"type": "window", "k": 1},
            "processes": [
                [{"method": "w", "args": [1], "output": "<bottom>"},
                 {"method": "r", "output": [2]}],
                [{"method": "w", "args": [2], "output": "<bottom>"},
                 {"method": "r", "output": [1]}],
            ],
            "criteria": ["CC", "CCV"],
        }
        src = tmp_path / "h.json"
        src.write_text(json.dumps(spec))
        out = tmp_path / "report.json"
        rc = main(["classify", str(src), "--json", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "streaming monitor" in text
        assert "monitor work:" in text
        doc = json.loads(out.read_text())
        streaming = doc["streaming"]
        assert streaming["criteria"]["CCV"]["ok"] is False
        assert streaming["criteria"]["CCV"]["pattern"] == "CyclicCF"
        assert streaming["criteria"]["CC"]["ok"] is True
        stats = streaming["stats"]
        for key in ("ops_seen", "hb_edges", "patterns_checked"):
            assert stats[key] > 0
        assert stats["first_violation_index"] == 3
        assert {"order_searches", "order_moved", "rf_merges_skipped"} <= set(stats)
        assert "rf_merges_skipped=" in text
        # a CyclicCF on a file without timestamps says which feed found it
        assert stats["feed_order"] == "program-order"
        assert "feed_order=program-order" in text
        # the search side agrees and is in the same document
        assert doc["criteria"]["CCV"]["ok"] is False
        assert doc["criteria"]["CC"]["ok"] is True

    def test_classify_reports_the_feed_order_it_used(self, tmp_path, capsys):
        """One op without ``start`` drops every timestamp of the file;
        the report says the replay fell back to program order."""
        from repro.cli import main

        def run(rows):
            src = tmp_path / "h.json"
            src.write_text(json.dumps(
                {"adt": {"type": "window", "k": 1}, "processes": rows,
                 "criteria": ["CCV"]}
            ))
            out = tmp_path / "report.json"
            assert main(["classify", str(src), "--streaming-only",
                         "--json", str(out)]) == 0
            doc = json.loads(out.read_text())
            return capsys.readouterr().out, doc

        rows = [
            [{"method": "w", "args": [i], "output": "<bottom>", "start": 2.0 * i}
             for i in range(1, 41)],
            [{"method": "r", "output": [0], "start": 0.5}],
        ]
        text, doc = run(rows)
        assert "feed_order=recorded-time" in text
        assert doc["streaming"]["stats"]["feed_order"] == "recorded-time"
        # a 41-op history is one short line, on screen and in the report
        (line,) = [ln for ln in text.splitlines() if ln.startswith("history:")]
        assert "… +32 …" in line and doc["history"] == line[len("history: "):]
        del rows[0][7]["start"]
        text, doc = run(rows)
        assert "feed_order=program-order" in text
        assert doc["streaming"]["stats"]["feed_order"] == "program-order"

    def test_explore_reports_monitor_verdicts(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "matrix.json"
        rc = main([
            "explore", "--fast", "--seeds", "1", "--jobs", "1",
            "--scenario", "flaky-link", "--algorithm", "ccv-fig5",
            "--json", str(out),
        ])
        assert rc == 0
        assert "monitor" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        cell = doc["cells"][0]
        assert cell["streaming"]["criteria"]["CCV"]["ok"] is True
        assert cell["streaming"]["stats"]["ops_seen"] > 0
