"""Equivalence tests for the incremental causal-order search engine.

The engine's perf machinery (worklist closure, cross-order memoisation
and branch caching, the conflict-driven cut, lazy total-order
refinement, shared linearisation caches) must be *behaviourally
invisible*: same closed families, same verdicts, same (valid)
certificates.  This module pins that down six ways:

1. a property test that the incremental worklist closure
   (``CausalSearch._propagate``) computes exactly the same closed family
   as the whole-family fixpoint kept as executable specification
   (``oracles.propagate_reference``), including the K4/K5 failure cases;
2. an ``OldStyleSearch`` reference that restores the seed
   implementation's control flow — whole-fixpoint propagation and
   up-front enumeration of *all* total update orders, no branch cache,
   no conflict cut — and must agree with the optimised search on
   randomized histories in all three modes;
3. verdict + certificate checks over the full litmus gallery in WCC, CC
   and CCv;
4. conflict-cut soundness: every total order the cut skips, re-run
   against the un-cut reference machinery, really does fail;
5. witness-guided enumeration: the ``timestamps``/``lex`` heuristics
   agree on every verdict, the priority permutation is a pure function
   of the instance, recorded histories find their witness at order #1,
   and the cumulative order/family budgets hold right at the boundary
   (witness found at exactly the budget ⇒ success; one below ⇒
   ``SearchBudgetExceeded``);
6. a certificate golden: the CCv certificate and witness position of
   every benchmark-sweep history and litmus entry, under both
   heuristics, recorded once and never re-recorded.
"""

import hashlib
import json
import pathlib
import random
import sys
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import count_linear_extensions, propagate_reference, topological_orders

from repro.core.operations import BOTTOM, Invocation
from repro.criteria import check, verify_certificate
from repro.criteria.causal_search import (
    CausalSearch,
    SearchBudgetExceeded,
    search_causal_order,
)
from repro.litmus import all_litmus
from repro.litmus.extra import extra_litmus
from repro.litmus.generators import (
    random_memory_history,
    random_queue_history,
    random_window_history,
    recorded_window_history,
)
from repro.util.orders import transitive_closure

MODES = ("WCC", "CC", "CCV")


def _random_history(rng):
    # small shapes: the old-style oracle re-closes whole families per
    # branch and enumerates every total order, so adversarial instances
    # larger than this get slow (and can trip the node budget)
    kind = rng.randrange(3)
    processes = rng.randrange(2, 4)
    ops = rng.randrange(2, 4) if processes == 2 else 2
    if kind == 0:
        return random_window_history(rng, processes=processes, ops_per_process=ops)
    if kind == 1:
        return random_memory_history(rng, processes=processes, ops_per_process=ops)
    return random_queue_history(rng, processes=processes, ops_per_process=ops)


# ----------------------------------------------------------------------
# 1. incremental closure == whole-family fixpoint
# ----------------------------------------------------------------------
class TestPropagationEquivalence:
    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_incremental_matches_reference(self, seed, with_rank):
        """Grow random closed families one update bit at a time; at every
        step the worklist closure and the reference fixpoint must agree —
        same family when both close, both ``None`` when K4/K5 fails."""
        rng = random.Random(seed)
        history, adt = _random_history(rng)
        search = CausalSearch(history, adt, "WCC")
        if with_rank and search.m:
            # a random total order puts the K5 path under test too; the
            # reference base family must satisfy it, so extend the po
            order = next(
                iter(topological_orders(transitive_closure(search.upd_po)))
            )
            rng.shuffle(order)  # may or may not respect the po...
            rank = [0] * search.m
            for r, pos in enumerate(order):
                rank[pos] = r
            search._total_rank = rank
        family = search._initial_family()
        if family is None:
            return
        if propagate_reference(search, list(family)) is None:
            return  # base family rejected under this rank: no valid start
        for _step in range(4):
            if not search.m:
                return
            e = rng.randrange(search.n)
            pu = rng.randrange(search.m)
            if search.updates[pu] == e or (family[e] >> pu) & 1:
                continue
            reference = list(family)
            reference[e] |= 1 << pu
            expected = propagate_reference(search, reference)
            actual = search._propagate(list(family), e, 1 << pu)
            assert (expected is None) == (actual is None)
            if expected is not None:
                assert actual == expected
                family = actual

    def test_seed_closure_matches_reference(self):
        """The seeded initial family equals the reference closure of
        po-past plus seeds (the old implementation's starting point)."""
        rng = random.Random(7)
        for _ in range(25):
            history, adt = _random_history(rng)
            search = CausalSearch(history, adt, "WCC")
            family = search._initial_family()
            ref_search = CausalSearch(history, adt, "WCC")
            reference = list(ref_search.po_upast)
            for e, seed in enumerate(ref_search._semantic_seed_mask()):
                reference[e] |= seed
            expected = propagate_reference(ref_search, reference)
            assert (family is None) == (expected is None)
            if expected is not None:
                assert family == expected


# ----------------------------------------------------------------------
# 2. optimised search == old-style search
# ----------------------------------------------------------------------
class OldStyleSearch(CausalSearch):
    """The seed implementation's control flow as a reference oracle:
    whole-family fixpoint per branch and exhaustive up-front enumeration
    of the total update orders (no lazy refinement, no cross-order reuse
    of families, no branch caching, no conflict-driven cut)."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("conflict_cut", False)
        kwargs.setdefault("cross_order_caching", False)
        super().__init__(*args, **kwargs)

    def _propagate(self, family, event, delta):
        family[event] |= delta
        return propagate_reference(self, family)

    def run(self):
        if self.mode != "CCV":
            return super().run()
        for order in topological_orders(
            transitive_closure(self.upd_po), limit=self.max_total_orders
        ):
            rank = [0] * self.m
            for r, pos in enumerate(order):
                rank[pos] = r
            self._total_rank = rank
            self._visited = {}
            self._seq_cache.clear()
            family = self._initial_family()
            if family is not None:
                result = self._dfs(tuple(family))
                if result is not None:
                    return self._certificate(result, order)
        return None


class TestSearchEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    def test_random_histories_agree(self, mode):
        rng = random.Random(2016)
        for _ in range(30):
            history, adt = _random_history(rng)
            new = CausalSearch(history, adt, mode).run()
            old = OldStyleSearch(history, adt, mode).run()
            assert (new is None) == (old is None), (history, mode)
            if new is not None:
                verify_certificate(history, adt, new)

    @pytest.mark.parametrize("mode", MODES)
    def test_unseeded_agrees_with_seeded(self, mode):
        """Semantic seeding (and the total-order refinement derived from
        it) must never change a verdict."""
        rng = random.Random(99)
        for _ in range(20):
            history, adt = _random_history(rng)
            seeded = CausalSearch(history, adt, mode, seed_semantic=True).run()
            bare = CausalSearch(history, adt, mode, seed_semantic=False).run()
            assert (seeded is None) == (bare is None), (history, mode)


# ----------------------------------------------------------------------
# 3. litmus gallery: verdicts and certificates in all three modes
# ----------------------------------------------------------------------
class TestLitmusGallery:
    @pytest.mark.parametrize(
        "litmus",
        list(all_litmus()) + list(extra_litmus()),
        ids=lambda l: l.key,
    )
    def test_verdicts_and_certificates(self, litmus):
        for mode in MODES:
            certificate, stats = search_causal_order(
                litmus.history, litmus.adt, mode
            )
            if mode in litmus.expected:
                assert (certificate is not None) == litmus.expected[mode], mode
            if certificate is not None:
                verify_certificate(litmus.history, litmus.adt, certificate)
            assert stats.families_explored >= 1


def _update_heavy_history(rng):
    """Untimed histories with enough updates that the CCv order space
    runs to dozens of total orders (and the conflict cut fires)."""
    return random_window_history(rng, processes=3, ops_per_process=4)


class TestLargeOrderSpace:
    @pytest.mark.parametrize("heuristic", ("timestamps", "lex"))
    def test_large_order_spaces_match_oracle(self, heuristic):
        """Instances whose seeded update order admits more than 32 total
        orders run through the same single enumeration as small ones,
        and agree with the seed-style oracle under either heuristic."""
        rng = random.Random(5)
        checked = witnessed = 0
        while checked < 4:
            history, adt = _update_heavy_history(rng)
            probe = CausalSearch(history, adt, "CCV")
            family0 = probe._initial_family()
            if family0 is None:
                continue
            induced = [family0[u] for u in probe.updates]
            if count_linear_extensions(induced, cap=33) <= 32:
                continue
            search = CausalSearch(
                history, adt, "CCV", order_heuristic=heuristic
            )
            certificate = search.run()
            oracle = OldStyleSearch(history, adt, "CCV").run()
            assert (certificate is None) == (oracle is None), history
            if certificate is not None:
                verify_certificate(history, adt, certificate)
                witnessed += 1
            checked += 1
        assert 0 < witnessed < checked  # both verdicts covered


# timed, CCv-satisfiable-by-construction histories through the real
# recorder path — the same population the benchmark's ``sat-*`` cells
# measure (see its docstring for the simulated-execution model)
_recorded_history = recorded_window_history


# ----------------------------------------------------------------------
# 5a. witness-guided enumeration order
# ----------------------------------------------------------------------
class TestWitnessGuidedOrder:
    def test_heuristics_agree_on_verdicts(self):
        """``timestamps`` vs ``lex``: same verdict on every instance —
        timed, untimed, satisfiable or not — and valid certificates from
        both (the *certificates* may legitimately differ: the heuristic
        redefines the deterministic tie-break)."""
        rng = random.Random(2016)
        populations = [_random_history(rng) for _ in range(12)] + [
            _recorded_history(rng) for _ in range(8)
        ]
        for history, adt in populations:
            certs = {}
            for heuristic in ("timestamps", "lex"):
                search = CausalSearch(
                    history, adt, "CCV", order_heuristic=heuristic
                )
                cert = search.run()
                if cert is not None:
                    verify_certificate(history, adt, cert)
                certs[heuristic] = cert
            assert (certs["timestamps"] is None) == (
                certs["lex"] is None
            ), history

    def test_recorded_histories_witness_first(self):
        """On recorded histories the first order tried extends the
        observed timestamps and explains the run: the witness position
        is 1, and never worse than lexicographic enumeration."""
        rng = random.Random(7)
        first_hits = 0
        for _ in range(10):
            history, adt = _recorded_history(rng)
            guided = CausalSearch(
                history, adt, "CCV", order_heuristic="timestamps"
            )
            assert guided.run() is not None, history
            lex = CausalSearch(history, adt, "CCV", order_heuristic="lex")
            assert lex.run() is not None, history
            assert guided.stats.orders_to_witness is not None
            assert lex.stats.orders_to_witness is not None
            assert (
                guided.stats.orders_to_witness <= lex.stats.orders_to_witness
            ), history
            if guided.stats.orders_to_witness == 1:
                first_hits += 1
        assert first_hits >= 8  # the heuristic's whole point

    def test_priority_permutation_pure_function(self):
        """Two searches over the same instance compute the same
        permutation; ``lex`` is the identity; untimed histories fall
        back to po-depth-then-eid, which on chain histories is the
        round-robin interleaving."""
        rng = random.Random(3)
        history, adt = _recorded_history(rng)
        a = CausalSearch(history, adt, "CCV").priority_permutation()
        b = CausalSearch(history, adt, "CCV").priority_permutation()
        assert a == b
        assert sorted(a) == list(range(len(a)))
        lex = CausalSearch(history, adt, "CCV", order_heuristic="lex")
        assert lex.priority_permutation() == list(range(lex.m))
        # timed priority = sort updates by recorded invocation time
        search = CausalSearch(history, adt, "CCV")
        times = history.times
        expected = sorted(
            range(search.m),
            key=lambda pu: (times[search.updates[pu]], search.updates[pu]),
        )
        assert search.priority_permutation() == expected
        # untimed fallback: po-depth (row position), then event id
        untimed, adt2 = _update_heavy_history(random.Random(5))
        assert untimed.times is None
        fallback = CausalSearch(untimed, adt2, "CCV")
        expected = sorted(
            range(fallback.m),
            key=lambda pu: (
                untimed.past_mask(fallback.updates[pu]).bit_count(),
                fallback.updates[pu],
            ),
        )
        assert fallback.priority_permutation() == expected

    def test_unknown_heuristic_rejected(self):
        history, adt = _random_history(random.Random(1))
        with pytest.raises(ValueError, match="order heuristic"):
            CausalSearch(history, adt, "CCV", order_heuristic="oracle")

    def test_recorder_threads_timestamps(self):
        """``HistoryRecorder.to_history`` carries invocation start times
        into ``History.times`` (empty rows dropped in both)."""
        from repro.runtime.recorder import HistoryRecorder

        recorder = HistoryRecorder(3)  # process 1 stays silent
        recorder.record(0, Invocation("w", (1,)), BOTTOM, 0.5, 1.0)
        recorder.record(2, Invocation("r"), (0, 1), 2.25, 3.0)
        recorder.record(0, Invocation("r"), (0, 1), 4.125, 5.0)
        history = recorder.to_history()
        assert len(history) == 3
        assert history.times == (0.5, 4.125, 2.25)

    def test_history_times_validation(self):
        from repro.core import History, Operation

        row = [
            Operation(Invocation("w", (1,)), BOTTOM),
            Operation(Invocation("r"), (0, 1)),
        ]
        with pytest.raises(ValueError, match="timestamps"):
            History.from_processes([row], times=[[1.0]])
        history = History.from_processes([row])
        assert history.times is None
        timed = History.from_processes([row], times=[[1.0, 2.0]])
        assert timed.times == (1.0, 2.0)


# ----------------------------------------------------------------------
# 5b. budget boundary: a witness at exactly the budget
# ----------------------------------------------------------------------
def _boundary_instance(heuristic):
    """A deterministic satisfiable CCv instance whose witness under
    ``heuristic`` sits a few orders (2..12) into the enumeration.  For
    ``lex`` it is a recorded history; ``timestamps`` finds the witness
    of recorded histories at order #1, so there it is an untimed one
    (po-depth priority)."""
    rng = random.Random(31)
    for _ in range(400):
        if heuristic == "lex":
            history, adt = _recorded_history(
                rng, processes=3, ops_per_process=5
            )
        else:
            history, adt = _update_heavy_history(rng)
        search = CausalSearch(history, adt, "CCV", order_heuristic=heuristic)
        try:
            certificate = search.run()
        except SearchBudgetExceeded:
            continue
        if certificate is not None and 1 < (
            search.stats.orders_to_witness or 0
        ) <= 12:
            return history, adt, certificate, search.stats
    raise AssertionError("no boundary instance found")


HEURISTICS = ("timestamps", "lex")


class TestBudgetReplayBoundary:
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_witness_at_exact_order_budget(self, heuristic):
        """``max_total_orders`` equal to the witness position: found;
        one less: ``SearchBudgetExceeded`` (the order budget is
        cumulative over the whole enumeration)."""
        history, adt, certificate, stats = _boundary_instance(heuristic)
        witness_at = stats.orders_to_witness
        exact = CausalSearch(
            history, adt, "CCV", order_heuristic=heuristic,
            max_total_orders=witness_at,
        )
        found = exact.run()
        assert found is not None
        assert asdict(found) == asdict(certificate)
        assert exact.stats.orders_to_witness == witness_at
        starved = CausalSearch(
            history, adt, "CCV", order_heuristic=heuristic,
            max_total_orders=witness_at - 1,
        )
        with pytest.raises(SearchBudgetExceeded):
            starved.run()

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_witness_at_exact_family_budget(self, heuristic):
        """Same boundary for the cumulative family budget: the witness
        is reached at exactly ``families_explored`` families, so that
        value as ``max_nodes`` succeeds and one less raises."""
        history, adt, certificate, stats = _boundary_instance(heuristic)
        families_at = stats.families_explored
        exact = CausalSearch(
            history, adt, "CCV", order_heuristic=heuristic,
            max_nodes=families_at,
        )
        found = exact.run()
        assert found is not None
        assert asdict(found) == asdict(certificate)
        starved = CausalSearch(
            history, adt, "CCV", order_heuristic=heuristic,
            max_nodes=families_at - 1,
        )
        with pytest.raises(SearchBudgetExceeded):
            starved.run()

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_order_budget_sweep(self, heuristic):
        """Sweeping the order budget through the interesting range:
        every budget below the witness position raises, every budget at
        or above it finds the same certificate and stats."""
        history, adt, certificate, stats = _boundary_instance(heuristic)
        for budget in range(1, stats.orders_to_witness + 2):
            search = CausalSearch(
                history, adt, "CCV", order_heuristic=heuristic,
                max_total_orders=budget,
            )
            if budget < stats.orders_to_witness:
                with pytest.raises(SearchBudgetExceeded):
                    search.run()
                continue
            result = search.run()
            assert result is not None, budget
            assert asdict(result) == asdict(certificate), budget
            assert asdict(search.stats) == asdict(stats), budget


class TestJobsValidation:
    def test_cli_rejects_negative_jobs(self):
        """``--jobs`` is left only on ``explore``, where it sizes the
        scenario matrix's pool; a negative count is a usage error."""
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["explore", "--jobs", "-1"])
        args = parser.parse_args(["explore", "--jobs", "0"])
        assert args.jobs == 0

    def test_checkers_take_no_jobs(self):
        """The CCv search runs in one process: neither the search entry
        point nor the causal checkers accept a worker count."""
        history, adt = _update_heavy_history(random.Random(5))
        with pytest.raises(TypeError, match="jobs"):
            search_causal_order(history, adt, "CCV", jobs=2)
        with pytest.raises(TypeError, match="jobs"):
            CausalSearch(history, adt, "CCV").run(jobs=2)
        for mode in MODES:
            with pytest.raises(TypeError, match="jobs"):
                check(history, adt, mode, jobs=2)

    def test_criteria_spawn_no_processes(self):
        """No module of ``repro.criteria`` imports a process pool."""
        import repro.criteria

        package = pathlib.Path(repro.criteria.__file__).parent
        for module in sorted(package.glob("*.py")):
            source = module.read_text()
            for name in ("multiprocessing", "concurrent.futures"):
                assert name not in source, (module.name, name)


# ----------------------------------------------------------------------
# 4. conflict-cut soundness: pruned orders can never satisfy CCv
# ----------------------------------------------------------------------
class TestConflictCutSoundness:
    def test_cut_orders_all_fail_uncut(self):
        """Every total order skipped by the conflict cut, when searched
        exhaustively with the cut and the branch cache disabled, finds no
        witnessing family — the cut never discards a potential YES."""
        rng = random.Random(31)
        cut_orders_checked = 0
        for _ in range(40):
            history, adt = _update_heavy_history(rng)
            search = CausalSearch(history, adt, "CCV")
            search.cut_log = []
            try:
                search.run()
            except SearchBudgetExceeded:
                continue
            if not search.cut_log:
                continue
            # reference machinery: fresh closure per branch, rank checked
            # directly against the order, no signatures anywhere
            probe = CausalSearch(
                history,
                adt,
                "CCV",
                conflict_cut=False,
                cross_order_caching=False,
            )
            family0 = probe._initial_family()
            assert family0 is not None
            for order in search.cut_log[:20]:
                rank = [0] * probe.m
                for r, pos in enumerate(order):
                    rank[pos] = r
                probe._total_rank = rank
                probe._visited = {}
                probe._seq_cache.clear()
                assert probe._dfs(tuple(family0)) is None, (history, order)
                cut_orders_checked += 1
            if cut_orders_checked >= 60:
                break
        assert cut_orders_checked > 0  # the cut actually fired

    def test_cut_disabled_same_verdicts(self):
        """The cut is a pure pruning: disabling it changes no verdict."""
        rng = random.Random(77)
        for _ in range(10):
            history, adt = _update_heavy_history(rng)
            with_cut = CausalSearch(history, adt, "CCV").run()
            without = CausalSearch(
                history, adt, "CCV", conflict_cut=False
            ).run()
            assert (with_cut is None) == (without is None), history
            if with_cut is not None:
                # certificates are bit-identical too: the cut only skips
                # failing orders, never the first witness
                assert asdict(with_cut) == asdict(without)


# ----------------------------------------------------------------------
# stats plumbing
# ----------------------------------------------------------------------
class TestStatsCounters:
    def test_ccv_counters_populated(self):
        from repro.adts import WindowStream
        from repro.core import History

        w2 = WindowStream(2)
        h = History.from_processes(
            [[w2.write(1), w2.read(2, 1)], [w2.write(2), w2.read(2, 1)]]
        )
        result = check(h, w2, "CCV")
        assert result.stats["propagate_steps"] >= 0
        assert "orders_pruned" in result.stats
        assert "memo_hits" in result.stats
        assert "conflict_cuts" in result.stats

    def test_memo_hits_accumulate_across_orders(self):
        """CCv keys its unit memo on ordered update tuples, so families
        (and orders) sharing update sequences produce hits, not fresh
        checks, and prefixes share replayed states."""
        from repro.adts import GrowSet
        from repro.core import History

        gs = GrowSet()
        h = History.from_processes(
            [
                [gs.add(1), gs.snapshot(1, 2, 3)],
                [gs.add(2), gs.snapshot(1, 2, 3)],
                [gs.add(3), gs.snapshot(1, 2, 3)],
            ]
        )
        search = CausalSearch(h, gs, "CCV")
        assert search.run() is not None
        assert search.stats.memo_hits > 0
        # the replay-prefix cache was exercised (seeded with the empty
        # prefix, extended once per distinct replayed sequence)
        assert len(search._replay_states) > 1


# ----------------------------------------------------------------------
# 6. certificate golden: CCv certificates never move
# ----------------------------------------------------------------------
GOLDEN_CERTIFICATES = (
    pathlib.Path(__file__).parent / "goldens" / "search_certificates.json"
)


#: full-sweep configs left out of the golden: their 8 histories take
#: ~12 s of CCv search, and four of them end on the budget
_GOLDEN_SLOW_CONFIGS = ("4x5-d30", "4x6-d25")


def _golden_instances():
    """``(key, history, adt)`` for every history of the benchmark's full
    sweep at seed 2016 (a superset of its smoke sweep) but the slow
    configs, and every litmus entry."""
    root = pathlib.Path(__file__).resolve().parent.parent
    if str(root / "benchmarks") not in sys.path:
        sys.path.insert(0, str(root / "benchmarks"))
    from bench_search_scaling import FULL_SWEEP, sweep_population

    for name, processes, ops, density, count in FULL_SWEEP:
        if name in _GOLDEN_SLOW_CONFIGS:
            continue
        population = sweep_population(
            2016, name, processes, ops, density, count
        )
        for i, (history, adt) in enumerate(population):
            yield f"{name}#{i}", history, adt
    for litmus in list(all_litmus()) + list(extra_litmus()):
        yield f"litmus:{litmus.key}", litmus.history, litmus.adt


def certificate_digests():
    """Per instance and heuristic: the sha256 of the CCv certificate and
    its ``orders_to_witness``, ``"no"`` without one, or ``"budget"``."""
    digests = {}
    for key, history, adt in _golden_instances():
        for heuristic in ("timestamps", "lex"):
            search = CausalSearch(
                history, adt, "CCV", order_heuristic=heuristic
            )
            try:
                certificate = search.run()
            except SearchBudgetExceeded:
                digest = "budget"
            else:
                if certificate is None:
                    digest = "no"
                else:
                    payload = repr(
                        (asdict(certificate), search.stats.orders_to_witness)
                    )
                    digest = hashlib.sha256(payload.encode()).hexdigest()
            digests[f"{key}/{heuristic}"] = digest
    return digests


class TestCertificateGolden:
    def test_certificates_match_golden(self):
        """Every CCv certificate (and its witness position) is the one
        recorded in the golden: the enumeration order and the tie-break
        "first witnessing order" never change."""
        golden = json.loads(GOLDEN_CERTIFICATES.read_text())["digests"]
        actual = certificate_digests()
        assert sorted(actual) == sorted(golden)
        moved = [key for key in golden if actual[key] != golden[key]]
        assert not moved, moved
