"""Causal consistency is not composable (Sec. 4.2).

The paper: "As causal consistency is not composable, it is important to
define a causal memory as a causally consistent pool of registers rather
than a pool of causally consistent registers, which is very different."

These tests exhibit a frozen witness (found by randomized search, then
verified exactly): a two-register history in which each register's
projection is causally consistent — even sequentially consistent — as a
standalone register, while the memory history is not even weakly causally
consistent, because the cross-register data dependencies form a cycle.
"""

from repro.adts import MemoryADT, Register
from repro.core import History, Invocation, Operation
from repro.criteria import check


def project_register(history, adt, register):
    """The history of the events touching ``register`` only, relabelled
    on the single-register alphabet (``w(v)`` / ``r``), with the program
    order restricted per process."""
    rows = {}
    for event in history:
        target = adt.write_target(event.invocation)
        source = adt.read_target(event.invocation)
        if target is not None and target[0] == register:
            rows.setdefault(event.process, []).append(
                Operation(Invocation("w", (target[1],)), event.output)
            )
        elif source == register:
            rows.setdefault(event.process, []).append(
                Operation(Invocation("r"), event.output)
            )
    return History.from_processes([rows[p] for p in sorted(rows)])


def _witness():
    """p0: r(a)/3, w(b,1), w(a,2);  p1: r(b)/1, w(a,3), r(a)/2.

    Cross-register cycle: w(a,3) -> r(a)/3 |-> w(b,1) -> r(b)/1 |-> w(a,3).
    """
    mem = MemoryADT("ab")
    history = History.from_processes(
        [
            [mem.read("a", 3), mem.write("b", 1), mem.write("a", 2)],
            [mem.read("b", 1), mem.write("a", 3), mem.read("a", 2)],
        ]
    )
    return history, mem


class TestNonComposability:
    def test_memory_history_not_causally_consistent(self):
        history, mem = _witness()
        assert not check(history, mem, "WCC").ok
        assert not check(history, mem, "CC").ok

    def test_each_register_projection_is_causally_consistent(self):
        history, mem = _witness()
        register = Register()
        for reg in "ab":
            projection = project_register(history, mem, reg)
            assert check(projection, register, "CC").ok, reg
            # in fact each register alone is sequentially consistent
            assert check(projection, register, "SC").ok, reg

    def test_projection_structure(self):
        history, mem = _witness()
        projection = project_register(history, mem, "a")
        assert len(projection) == 4  # r/3, w(2) on p0; w(3), r/2 on p1
        methods = sorted(e.invocation.method for e in projection)
        assert methods == ["r", "r", "w", "w"]

    def test_anomaly_invisible_to_pipelined_consistency(self):
        """PC accepts the witness: per-process views can each order the
        writes to explain their own reads, so the cross-register causal
        cycle is invisible below the causal criteria — the anomaly is
        specifically about causality, which is the paper's point."""
        history, mem = _witness()
        assert check(history, mem, "PC").ok
