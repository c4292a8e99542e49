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
"""

import json
import random

from repro.adts.window_stream import WindowStreamArray
from repro.core import History
from repro.core.operations import BOTTOM, Invocation, Operation
from repro.criteria import check
from repro.criteria.causal_search import SearchBudgetExceeded
from repro.criteria.streaming_monitor import (
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


def search_ok(history, adt, criterion):
    """Ground truth from the enumeration search, None on budget blow-up."""
    try:
        return check(history, adt, criterion).ok
    except SearchBudgetExceeded:
        return None


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
        shapes = [(2, 6, 1, 1), (3, 4, 2, 1), (2, 5, 1, 3), (4, 3, 3, 2)]
        disagreements = []
        for procs, ops, streams, k in shapes:
            adt = WindowStreamArray(streams, k)
            for seed in range(15):
                rng = random.Random(seed + 10_000)
                history = random_history(rng, procs, ops, streams, k)
                verdicts = replay_history(history, adt)
                for criterion, verdict in verdicts.items():
                    if verdict.ok is None:
                        continue
                    truth = search_ok(history, adt, criterion)
                    if truth is not None and verdict.ok != truth:
                        disagreements.append(
                            (procs, ops, streams, k, seed, criterion,
                             verdict.ok, truth, verdict.reason)
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
        per_op = {}
        for total in (4_000, 16_000):
            verdicts, monitor = feed_all(
                clean_ccv_ops(0, total), criteria=CCV_SIDE
            )
            assert all(v.ok is True for v in verdicts.values())
            stats = monitor.stats()
            per_op[total] = {
                key: stats[key] / total
                for key in ("patterns_checked", "propagate_steps", "hb_edges")
            }
        assert per_op[4_000]["patterns_checked"] > 0 < per_op[4_000]["hb_edges"]
        for key, small in per_op[4_000].items():
            assert per_op[16_000][key] <= 1.5 * small, (key, per_op)

    def test_window_order_violation_pattern_and_index(self):
        ops = clean_ccv_ops(0, 10_000)
        at = 5_000
        x = STREAMS - 1
        w1, w2 = 10_000_000, 10_000_001
        gadget = [
            (0, Invocation("w", (x, w1)), BOTTOM),
            (0, Invocation("w", (x, w2)), BOTTOM),
            (0, Invocation("r", (x,)), (w2, w1)),  # inverted vs po
        ]
        verdicts, _ = feed_all(ops[:at] + gadget + ops[at:], criteria=CCV_SIDE)
        for criterion in CCV_SIDE:  # a co-order violation kills both
            verdict = verdicts[criterion]
            assert verdict.ok is False, (criterion, verdict.reason)
            assert verdict.violation.pattern == "WindowOrderCO"
            assert verdict.violation.index == at + 2

    def test_conflict_cycle_kills_ccv_only(self):
        ops = clean_ccv_ops(1, 10_000)
        at = 4_000
        x = 0
        a, b = 10_000_000, 10_000_001
        gadget = [
            (0, Invocation("w", (x, a)), BOTTOM),
            (1, Invocation("w", (x, b)), BOTTOM),
            (2, Invocation("r", (x,)), (a, b)),  # arbitration a before b
            (3, Invocation("r", (x,)), (b, a)),  # arbitration b before a
        ]
        verdicts, _ = feed_all(ops[:at] + gadget + ops[at:], criteria=CCV_SIDE)
        assert verdicts["CCV"].ok is False
        assert verdicts["CCV"].violation.pattern == "CyclicCF"
        assert verdicts["CCV"].violation.index == at + 3
        assert verdicts["WCC"].ok is True

    def test_hidden_write_violation(self):
        ops = clean_ccv_ops(2, 10_000)
        at = 6_000
        x = 1
        w = 10_000_000
        gadget = [
            (0, Invocation("w", (x, w)), BOTTOM),
            (0, Invocation("r", (x,)), (0, 0)),  # own write hidden
        ]
        verdicts, _ = feed_all(ops[:at] + gadget + ops[at:], criteria=CCV_SIDE)
        for criterion in CCV_SIDE:
            verdict = verdicts[criterion]
            assert verdict.ok is False, (criterion, verdict.reason)
            assert verdict.violation.pattern == "WriteCOInitRead"
            assert verdict.violation.index == at + 1

    def test_mid_stream_detection(self):
        """feed() itself returns the violation the moment it closes —
        no finalize needed, ops before the splice return None."""
        ops = clean_ccv_ops(3, 10_000)
        at = 5_000
        x = STREAMS - 1
        w1, w2 = 10_000_000, 10_000_001
        gadget = [
            (0, Invocation("w", (x, w1)), BOTTOM),
            (0, Invocation("w", (x, w2)), BOTTOM),
            (0, Invocation("r", (x,)), (w2, w1)),
        ]
        spliced = ops[:at] + gadget + ops[at:]
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
        ops = [
            (0, Invocation("w", (0, 1)), BOTTOM),
            (0, Invocation("w", (0, 2)), BOTTOM),
            (0, Invocation("r", (0,)), (2, 1)),
        ]
        verdicts, _ = feed_all(ops)
        kind, detail = verdicts["CCV"].violation.as_failure()
        assert kind == "bad-pattern:WindowOrderCO"
        assert detail["index"] == 2
        assert detail["pattern"] == "WindowOrderCO"
        assert isinstance(detail["witness"], list)
        assert set(detail) >= {"pattern", "criteria", "index", "witness"}


# ----------------------------------------------------------------------
class TestRecorderSubscription:
    def test_subscriber_sees_every_record_in_order_zero_copy(self):
        from repro.runtime.recorder import HistoryRecorder

        recorder = HistoryRecorder(2)
        seen = []
        recorder.subscribe(seen.append)
        r1 = recorder.record(0, Invocation("w", (0, 1)), BOTTOM, 0.0, 1.0)
        r2 = recorder.record(1, Invocation("r", (0,)), (0, 1), 1.0, 2.0)
        assert seen == [r1, r2]
        assert seen[0] is r1 and seen[1] is r2  # the recorder's own records
        recorder.unsubscribe(seen.append)
        recorder.record(0, Invocation("r", (0,)), (0, 1), 2.0, 3.0)
        assert len(seen) == 2

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
            monitor=True,
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

    def test_unmonitored_cells_have_no_streaming_payload(self):
        from repro.scenarios.matrix import run_matrix

        report = run_matrix(
            scenarios=["flaky-link"], algorithms=["lww"], seeds=1,
            jobs=1, fast=True,
        )
        assert all(cell.streaming is None for cell in report.cells)
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
        rc = main(["classify", str(src), "--streaming", "--json", str(out)])
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
        # the search side agrees and is in the same document
        assert doc["criteria"]["CCV"]["ok"] is False
        assert doc["criteria"]["CC"]["ok"] is True

    def test_explore_monitor_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "matrix.json"
        rc = main([
            "explore", "--fast", "--seeds", "1", "--jobs", "1", "--monitor",
            "--scenario", "flaky-link", "--algorithm", "ccv-fig5",
            "--json", str(out),
        ])
        assert rc == 0
        assert "monitor" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        cell = doc["cells"][0]
        assert cell["streaming"]["criteria"]["CCV"]["ok"] is True
        assert cell["streaming"]["stats"]["ops_seen"] > 0
