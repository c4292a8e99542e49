"""Fig. 1 hierarchy metadata and time-zone computation (Fig. 2)."""

from repro.adts import WindowStream
from repro.core import History
from repro.criteria import check_classification_consistency, implied
from repro.criteria.hierarchy import ALL_CRITERIA, DIRECT_EDGES
from repro.criteria.zones import causal_order_masks, render_zones, zones_of


class TestHierarchy:
    def test_direct_edges_match_figure_1(self):
        assert DIRECT_EDGES["SC"] == {"CC", "CCV"}
        assert DIRECT_EDGES["CC"] == {"PC", "WCC"}
        assert DIRECT_EDGES["CCV"] == {"WCC", "EC"}

    def test_transitive_implication(self):
        assert implied("SC") == {"CC", "CCV", "PC", "WCC", "EC"}
        assert "WCC" in implied("SC")
        assert "PC" in implied("CC")
        assert "CC" not in implied("PC")
        assert "CCV" not in implied("CC")  # incomparable branches
        assert "CC" not in implied("CCV")

    def test_consistency_checker_flags_violations(self):
        verdicts = {"SC": True, "CC": False}
        problems = check_classification_consistency(verdicts)
        assert problems and "SC holds but implied CC fails" in problems[0]

    def test_quiescent_edge_skipped(self):
        verdicts = {"CCV": True, "EC": False}
        assert check_classification_consistency(verdicts) == []

    def test_all_criteria_listed(self):
        assert set(ALL_CRITERIA) == set(DIRECT_EDGES)


class TestZones:
    def _history(self):
        w2 = WindowStream(2)
        return History.from_processes(
            [
                [w2.write(1), w2.read(0, 1), w2.read(1, 2)],
                [w2.write(2), w2.read(0, 2), w2.read(1, 2)],
            ]
        )

    def test_program_zones(self):
        h = self._history()
        pred = causal_order_masks(h, [])
        zones = zones_of(h, 1, pred)  # p0's first read
        assert zones.program_past == {0}
        assert zones.program_future == {2}
        assert zones.concurrent_present == {3, 4, 5}
        assert zones.present == {1}

    def test_causal_edges_shrink_concurrency(self):
        h = self._history()
        # w(2) -> second read of p0 (event 2): event 3 leaves concurrency
        pred = causal_order_masks(h, [(3, 2)])
        zones = zones_of(h, 2, pred)
        assert 3 in zones.causal_past
        assert 3 in zones.pure_causal_past  # causal but not program past
        assert 3 not in zones.concurrent_present

    def test_causal_future_is_dual(self):
        h = self._history()
        pred = causal_order_masks(h, [(3, 2)])
        zones_w2 = zones_of(h, 3, pred)
        assert 2 in zones_w2.causal_future

    def test_render_mentions_all_tags(self):
        h = self._history()
        pred = causal_order_masks(h, [(3, 2)])
        text = render_zones(h, zones_of(h, 2, pred))
        for tag in ("PP", "CP", "NOW", "CC"):
            assert tag in text

    def test_cyclic_extra_edges_rejected(self):
        h = self._history()
        try:
            causal_order_masks(h, [(2, 0)])  # read before its own write
        except ValueError:
            return
        raise AssertionError("cycle through program order not detected")
