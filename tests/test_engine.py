"""Unit tests for the linearisation search engine."""

from repro.adts import FifoQueue, WindowStream
from repro.core import inv
from repro.criteria.engine import LinItem, LinearizationProblem


def find_linearization(adt, items, pred_masks):
    return LinearizationProblem(adt, items, pred_masks).solve()


def _items_w2(*specs):
    """specs: (key, method, args, output-or-None)."""
    items = []
    for key, method, args, output in specs:
        if output is None:
            items.append(LinItem(key, inv(method, *args)))
        else:
            items.append(LinItem(key, inv(method, *args), output, check=True))
    return items


class TestBasicSearch:
    def test_finds_valid_interleaving(self):
        w2 = WindowStream(2)
        items = _items_w2(
            ("w1", "w", (1,), None),
            ("r", "r", (), (0, 1)),
            ("w2", "w", (2,), None),
        )
        # r must see only w1: order constraint r before w2 NOT given,
        # but the search must find w1 < r < w2
        sol = find_linearization(w2, items, [0, 0, 0])
        assert sol is not None
        assert sol.index("w1") < sol.index("r")
        assert sol.index("r") < sol.index("w2")

    def test_unsatisfiable(self):
        w2 = WindowStream(2)
        items = _items_w2(
            ("w1", "w", (1,), None),
            ("r", "r", (), (9, 9)),
        )
        assert find_linearization(w2, items, [0, 0]) is None

    def test_precedence_respected(self):
        w2 = WindowStream(2)
        items = _items_w2(
            ("w1", "w", (1,), None),
            ("w2", "w", (2,), None),
            ("r", "r", (), (1, 2)),
        )
        # force w2 before w1: now (1,2) is impossible
        pred = [0b010, 0, 0b011]
        assert find_linearization(w2, items, pred) is None
        # relax: solvable
        assert find_linearization(w2, items, [0, 0, 0b011]) is not None

    def test_all_consumed_even_if_unchecked(self):
        q = FifoQueue()
        items = [
            LinItem("push", inv("push", 1)),
            LinItem("pop", inv("pop"), 1, check=True),
        ]
        sol = find_linearization(q, items, [0, 0])
        assert sol == ["push", "pop"]


class TestPruneNoops:
    def test_hidden_pure_queries_dropped_with_order_bypass(self):
        w2 = WindowStream(2)
        # w1 -> hidden r -> w2 (chain); check event sees (1,2): the hidden
        # read must not block, but its ordering edge w1 < w2 must survive
        items = [
            LinItem("w1", inv("w", 1)),
            LinItem("hr", inv("r")),
            LinItem("w2", inv("w", 2)),
            LinItem("r", inv("r"), (1, 2), check=True),
        ]
        pred = [0, 0b0001, 0b0010, 0b0111]
        problem = LinearizationProblem(w2, items, pred)
        pruned, _ = problem._pruned()
        assert len(pruned.items) == 3
        # the bypassed constraint: w1 must still precede w2
        w1_pos = [i for i, it in enumerate(pruned.items) if it.key == "w1"][0]
        w2_pos = [i for i, it in enumerate(pruned.items) if it.key == "w2"][0]
        assert pruned.pred_masks[w2_pos] & (1 << w1_pos)
        assert problem.solve() is not None

    def test_hidden_updates_not_dropped(self):
        q = FifoQueue()
        items = [
            LinItem("push", inv("push", 5)),  # hidden but an update
            LinItem("pop", inv("pop"), 5, check=True),
        ]
        pruned, _ = LinearizationProblem(q, items, [0, 0])._pruned()
        assert len(pruned.items) == 2


class TestMemoisation:
    def test_failed_states_not_reexplored(self):
        """With m identical writes and an impossible read, the memo keeps
        the search polynomial in distinct (set, state) pairs."""
        w2 = WindowStream(2)
        items = [LinItem(f"w{i}", inv("w", 1)) for i in range(8)]
        items.append(LinItem("r", inv("r"), (9, 9), check=True))
        pred = [0] * 8 + [(1 << 8) - 1]
        problem = LinearizationProblem(w2, items, pred)
        assert problem.solve() is None
        # 2^8 subsets but identical writes collapse states: far fewer nodes
        assert problem.nodes_visited < 1000


class TestReplayFixedOrder:
    def test_deterministic_replay(self):
        """Under a total order of constraints the search only replays."""
        w2 = WindowStream(2)
        items = [
            LinItem("w1", inv("w", 1)),
            LinItem("w2", inv("w", 2)),
            LinItem("r", inv("r"), (1, 2), check=True),
        ]
        chain = [0, 0b001, 0b011]
        assert find_linearization(w2, items, chain) == ["w1", "w2", "r"]
        items[2] = LinItem("r", inv("r"), (2, 1), check=True)
        assert find_linearization(w2, items, chain) is None
