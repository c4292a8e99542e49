"""Integration tests for the experiment drivers (E1, E6, E7, E8, E9)."""

import itertools

import pytest

from repro.adts import WindowStream
from repro.algorithms import CCWindowArray, CCvWindowArray
from repro.analysis import (
    classify_population,
    consensus_matrix,
    divergence_rate,
    format_matrix,
    format_report,
    format_session_table,
    format_sweep,
    latency_sweep,
    measure_convergence,
    session_guarantee_rates,
    window_consensus,
)
from repro.core import Invocation
from repro.criteria.base import CRITERIA


class TestHierarchyExperiment:
    def test_no_inclusion_violations(self):
        report = classify_population(seed=3, random_histories=24)
        assert report.histories >= 24
        assert report.inclusion_violations == []

    def test_all_strictness_witnesses_found_with_litmus(self):
        report = classify_population(seed=3, random_histories=0)
        assert report.missing_witnesses() == []

    def test_report_formatting(self):
        report = classify_population(seed=4, random_histories=6)
        text = format_report(report)
        assert "inclusion violations : 0" in text

    def test_a_checker_crash_is_not_a_search_budget(self, monkeypatch):
        def crash(*_args, **_kwargs):
            raise RuntimeError("checker bug")

        monkeypatch.setitem(CRITERIA, "PC", crash)
        with pytest.raises(RuntimeError, match="checker bug"):
            classify_population(random_histories=1, include_litmus=False)

    def test_a_search_budget_trip_is_counted_and_skipped(self):
        report = classify_population(
            random_histories=3, include_litmus=False, max_nodes=0
        )
        assert report.budget_exhausted == 3 and report.histories == 0
        assert "(3 skipped: search budget)" in format_report(report)


class TestConsensusExperiment:
    def test_agreement_iff_n_le_k(self):
        """The consensus number of W_k is k (Sec. 2.1): full agreement for
        n <= k, disagreement provoked above."""
        rates = consensus_matrix(max_n=4, max_k=3, runs=12, seed=5)
        for (n, k), rate in rates.items():
            if n <= k:
                assert rate == 1.0, f"n={n}, k={k} must always agree"
        # the boundary: some disagreement must be observed just above k
        for k in (1, 2, 3):
            assert rates[(k + 1, k)] < 1.0, f"n={k+1} > k={k} should break"

    def test_validity(self):
        run = window_consensus(3, 3, seed=6)
        assert run.agreed and all(d in (1, 2, 3) for d in run.decisions)

    def test_matrix_formatting(self):
        rates = {(1, 1): 1.0, (2, 1): 0.5}
        assert "n\\k" in format_matrix(rates)

    def test_exhaustive_consensus_boundary(self):
        """Every sequentially consistent execution of the protocol agrees
        on a proposed value iff n <= k: a model check at small scale over
        all interleavings, complementing the sampled matrix."""
        for n in range(1, 5):
            for k in range(1, 4):
                proposals = set(range(1, n + 1))
                solves = all(
                    len(set(vector)) == 1 and set(vector) <= proposals
                    for vector in _sc_decision_vectors(n, k)
                )
                assert solves == (n <= k), (n, k)


def _sc_decision_vectors(n, k):
    """All decision vectors over every SC execution of the protocol:
    process i writes i + 1 into a ``W_k`` and then decides the oldest
    non-default value of the window it reads.  SC fixes the outputs as
    functions of the interleaving, so enumerating the interleavings that
    keep each process's write before its read enumerates every outcome."""
    adt = WindowStream(k)
    outcomes = set()
    for order in itertools.permutations(range(2 * n)):
        position = {e: i for i, e in enumerate(order)}
        if any(position[2 * pid] > position[2 * pid + 1] for pid in range(n)):
            continue
        state = adt.initial_state()
        decisions = [None] * n
        for index in order:
            pid, is_read = divmod(index, 2)
            if not is_read:
                state = adt.transition(state, Invocation("w", (pid + 1,)))
            else:
                non_default = [v for v in state if v != 0]
                decisions[pid] = non_default[0] if non_default else None
        outcomes.add(tuple(decisions))
    return outcomes


class TestConvergenceExperiment:
    def test_ccv_always_converges(self):
        assert divergence_rate(CCvWindowArray, runs=8, n=4, streams=1, k=2) == 0.0

    def test_cc_diverges_under_concurrency(self):
        rate = divergence_rate(CCWindowArray, runs=8, n=4, streams=1, k=2)
        assert rate > 0.0

    def test_convergence_time_positive_finite(self):
        result = measure_convergence(CCvWindowArray, n=3, streams=1, k=2, seed=8)
        assert result.converged
        assert result.convergence_time is not None
        assert result.convergence_time >= 0.0


class TestLatencyExperiment:
    def test_wait_free_flat_sc_grows(self):
        points = latency_sweep(delays=(1.0, 6.0), ops_per_process=5, seed=9)
        by_alg = {}
        for p in points:
            by_alg.setdefault(p.algorithm, {})[p.mean_delay] = p.mean_latency
        for name, series in by_alg.items():
            if "sequencer" in name:
                assert series[6.0] > 3 * series[1.0]
            else:
                assert series[1.0] == 0.0 and series[6.0] == 0.0, name

    def test_sweep_formatting(self):
        points = latency_sweep(delays=(1.0,), ops_per_process=2, seed=10)
        text = format_sweep(points)
        assert "sequencer" in text


class TestSessionExperiment:
    def test_causal_algorithms_violation_free(self):
        reports = session_guarantee_rates(runs=6, ops_per_process=6, seed=11)
        by_name = {r.algorithm: r for r in reports}
        causal = [r for name, r in by_name.items() if name.startswith(("CC", "CCv"))]
        assert causal, by_name.keys()
        for report in causal:
            for guarantee in ("RYW", "MR", "MW", "WFR"):
                assert report.rate(guarantee) == 0.0, (report.algorithm, guarantee)

    def test_table_formatting(self):
        reports = session_guarantee_rates(runs=2, ops_per_process=4, seed=12)
        text = format_session_table(reports)
        assert "RYW" in text and "WFR" in text


class TestGenerators:
    def test_histories_well_formed(self):
        import random

        from repro.litmus.generators import (
            random_memory_history,
            random_queue_history,
            random_window_history,
        )

        rng = random.Random(13)
        for gen in (random_window_history, random_queue_history, random_memory_history):
            history, adt = gen(rng, processes=3, ops_per_process=4)
            assert len(history) == 12
            assert len(history.processes()) <= 3
            for event in history:
                # every invocation must be executable by the transducer
                adt.transition(adt.initial_state(), event.invocation)

    def test_distinct_values_flag(self):
        import random

        from repro.litmus.generators import random_memory_history

        rng = random.Random(14)
        history, adt = random_memory_history(
            rng, processes=3, ops_per_process=5, distinct_values=True
        )
        written = [
            adt.write_target(e.invocation)
            for e in history
            if adt.write_target(e.invocation)
        ]
        assert len(written) == len(set(written))
