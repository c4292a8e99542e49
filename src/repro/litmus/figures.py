"""The litmus histories of Fig. 3 with their expected classification.

The published figure's layout does not survive PDF text extraction, so
each history below is reconstructed from the *prose* of Secs. 3–5 (the
derivations are given history by history).  The expected classification
column is the paper's caption; ``tests/test_litmus.py`` checks that our
exact checkers reproduce every cell, and ``benchmarks/bench_fig3_litmus``
prints the paper-vs-measured table (experiment E3).

Classification keys: SC, CC, CCV, PC, WCC (all ADTs) and CM (memory
histories only).  ``expected[c]`` is True/False; criteria implied by a True
entry (Fig. 1) are filled in automatically, so each entry lists exactly
what the caption states plus the hierarchy's consequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..adts.memory import MemoryADT
from ..adts.queue import FifoQueue, SplitQueue
from ..adts.window_stream import WindowStream
from ..core.adt import AbstractDataType
from ..core.history import History
from ..criteria.hierarchy import implied


@dataclass(frozen=True)
class Litmus:
    """One Fig. 3 history with its classification.

    ``paper_claims`` holds exactly what the figure caption states;
    ``expected`` is the *complete* classification our exact checkers
    establish (caption claims + hierarchy consequences + cells the caption
    is silent about).  The two disagree only for 3g (see its docstring).
    """

    key: str
    title: str
    adt: AbstractDataType
    history: History
    expected: Dict[str, bool]
    paper_claims: Dict[str, bool] = field(default_factory=dict)
    notes: str = ""

    @property
    def criteria(self) -> Tuple[str, ...]:
        return tuple(sorted(self.expected))


def _complete(expected: Dict[str, bool]) -> Dict[str, bool]:
    """Close a partial classification under the Fig. 1 hierarchy."""
    out = dict(expected)
    changed = True
    while changed:
        changed = False
        for criterion, verdict in list(out.items()):
            if verdict:
                for weaker in implied(criterion):
                    if weaker in ("EC",):
                        continue  # quiescence-dependent, not part of litmus
                    if not out.get(weaker, False):
                        out[weaker] = True
                        changed = True
    return out


def _w2() -> WindowStream:
    return WindowStream(2)


def fig3a() -> Litmus:
    """(a) W2: CCv (hence WCC), not PC.

    p1 writes 1 then reads (0,1) and (1,2); p2 writes 2 then reads (0,2)
    and (1,2).  With the total write order w(1) <= w(2): the first read of
    each process has only its own write in its causal past, the second
    reads both — causally convergent.  Not PC: p1 must place w(2) after
    its read (0,1), but then its second read cannot return (1,2) before
    ... symmetric for p2; one of the two processes always fails.
    Sec. 3.2 uses this history to show PC and EC cannot be combined.
    """
    w2 = _w2()
    history = History.from_processes(
        [
            [w2.write(1), w2.read(0, 1), w2.read(1, 2)],
            [w2.write(2), w2.read(0, 2), w2.read(1, 2)],
        ]
    )
    return Litmus(
        key="3a",
        title="W2: CCv, not PC",
        adt=w2,
        history=history,
        expected=_complete({"CCV": True, "PC": False, "SC": False, "CC": False}),
        paper_claims={"CCV": True, "PC": False},
        notes="shows PC and eventual consistency are incompatible (Sec. 3.2)",
    )


def fig3b() -> Litmus:
    """(b) W2: PC, not WCC.

    Reconstruction from the prose of Sec. 3.2: r/(0,1) needs w(1) in its
    causal past; w(2) -> r/(2,1); the causal order is then *total*:
    w(1) -> r/(0,1) -> w(2) -> r/(2,1), whose unique linearisation
    w(1).r.w(2).r/(2,1) is not in L(W2) — the last read should see (1,2).
    That forces the shape: p1 = [w(1), r/(2,1)], p2 = [r/(0,1), w(2)].
    PC holds: p1 linearises r.w(2).w(1).r/(2,1), p2 linearises
    w(1).r/(0,1).w(2).
    """
    w2 = _w2()
    history = History.from_processes(
        [
            [w2.write(1), w2.read(2, 1)],
            [w2.read(0, 1), w2.write(2)],
        ]
    )
    return Litmus(
        key="3b",
        title="W2: PC, not WCC",
        adt=w2,
        history=history,
        expected=_complete(
            {"PC": True, "WCC": False, "CC": False, "CCV": False, "SC": False}
        ),
        paper_claims={"PC": True, "WCC": False},
        notes="causal order forced total by the semantic arrows (Sec. 3.2)",
    )


def fig3c() -> Litmus:
    """(c) W2: CC, not CCv.

    p1: w(1), r/(2,1); p2: w(2), r/(1,2).  Each process sees both writes
    but in opposite orders — fine for CC (per-process linearisations
    w(2).w(1).r/(2,1) and w(1).w(2).r/(1,2)), impossible for CCv (a common
    total order fixes one order of the writes).  Also the canonical
    "false causality" example: the Fig. 4 algorithm never produces it
    (Sec. 6.2).
    """
    w2 = _w2()
    history = History.from_processes(
        [
            [w2.write(1), w2.read(2, 1)],
            [w2.write(2), w2.read(1, 2)],
        ]
    )
    return Litmus(
        key="3c",
        title="W2: CC, not CCv",
        adt=w2,
        history=history,
        expected=_complete({"CC": True, "CCV": False, "SC": False}),
        paper_claims={"CC": True, "CCV": False},
        notes="false-causality witness for the Fig. 4 algorithm (Sec. 6.2)",
    )


def fig3d() -> Litmus:
    """(d) W2: SC.  p1: w(1), r/(0,1); p2: w(2), r/(1,2); the word
    w(1).r/(0,1).w(2).r/(1,2) is in lin(H) ∩ L(W2) (Sec. 3.1)."""
    w2 = _w2()
    history = History.from_processes(
        [
            [w2.write(1), w2.read(0, 1)],
            [w2.write(2), w2.read(1, 2)],
        ]
    )
    return Litmus(
        key="3d",
        title="W2: SC",
        adt=w2,
        history=history,
        expected=_complete({"SC": True}),
        paper_claims={"SC": True},
    )


def fig3e() -> Litmus:
    """(e) Q: WCC and PC, yet not CC.

    p1: push(1), pop/1, pop/1, push(3); p2: push(2), pop/3, push(1).
    The prose gives the witnesses: WCC linearises p1's pops as
    push(2).push(1).pop.pop/1 once p1 learns of push(2); PC linearises
    push(2).pop.push(1).push(1)/⊥.pop/1.pop/1.push(3)/⊥ for p1 and
    push(2)/⊥.push(1).pop.pop.push(3).pop/3.push(1)/⊥ for p2.  The two
    views bind "the 1 returned by the second pop" to *different* push(1)
    events, which no single causal order can reconcile — not CC.
    """
    q = FifoQueue()
    history = History.from_processes(
        [
            [q.push(1), q.pop(1), q.pop(1), q.push(3)],
            [q.push(2), q.pop(3), q.push(1)],
        ]
    )
    return Litmus(
        key="3e",
        title="Q: WCC and PC, not CC",
        adt=q,
        history=history,
        expected=_complete(
            {"WCC": True, "PC": True, "CC": False, "CCV": True, "SC": False}
        ),
        paper_claims={"WCC": True, "PC": True, "CC": False},
        notes=(
            "CC is more than PC + WCC (Sec. 4.1); the caption is silent on "
            "CCv, which holds with total order push(2)<=push(1)<=pop<=pop<="
            "push(3)<=pop<=push(1)"
        ),
    )


def fig3f() -> Litmus:
    """(f) Q: CC, not SC.

    p2 pushes 1 and 2 then both processes pop concurrently from the state
    [1,2]: both get 1; after exchanging the pops each considers the head
    (2) removed by the other — the next pops return ⊥.  Element 2 is never
    popped and 1 is popped twice: admissible for CC, impossible for SC.
    """
    q = FifoQueue()
    history = History.from_processes(
        [
            [q.pop(1), q.pop()],
            [q.push(1), q.push(2), q.pop(1), q.pop()],
        ]
    )
    return Litmus(
        key="3f",
        title="Q: CC, not SC",
        adt=q,
        history=history,
        expected=_complete({"CC": True, "CCV": True, "SC": False}),
        paper_claims={"CC": True, "SC": False},
        notes="neither existence nor unicity of pops under CC (Sec. 4.1); "
        "also CCv (caption silent): the concurrent pops share the causal "
        "past {push(1), push(2)}",
    )


def fig3g() -> Litmus:
    """(g) Q': CC, not SC.

    The pop is split into hd (read head) and rh(v) (remove head iff = v).
    Both processes hd/1, rh(1), hd/2, rh(2) — the concurrent rh(1) ops
    collapse into removing the same element, so every value is read at
    least once (compare Fig. 3f where 2 was lost).
    """
    qp = SplitQueue()
    history = History.from_processes(
        [
            [qp.hd(1), qp.rh(1), qp.hd(2), qp.rh(2)],
            [qp.push(1), qp.push(2), qp.hd(1), qp.rh(1), qp.hd(2), qp.rh(2)],
        ]
    )
    return Litmus(
        key="3g",
        title="Q': CC, not SC",
        adt=qp,
        history=history,
        expected=_complete({"SC": True}),
        paper_claims={"CC": True, "SC": False},
        notes=(
            "splitting pop restores read-at-least-once (Sec. 4.1). "
            "DISCREPANCY: the caption claims not-SC, but the reconstructed "
            "history admits the sequential witness push(1).hd/1.push(2)."
            "hd/1.rh(1).hd/2.rh(1).hd/2.rh(2).rh(2) — hd does not remove "
            "and rh(v) is a conditional no-op, so the concurrent-pop "
            "anomaly of 3f cannot make Q' histories non-sequential here; "
            "the figure's point (every value read at least once) holds"
        ),
    )


def fig3h() -> Litmus:
    """(h) Memory: CC, not CCv.

    p1: wa(1), wc(2), wd(1), rb/0, re/1, rc/3;
    p2: wb(1), wc(3), we(1), ra/0, rd/1, rc/2.
    rb/0 and ra/0 prove the first reads see only the process's own writes,
    so each process places the other's writes after them; rd/1 (resp.
    re/1) then pulls in the other's writes, and the final reads of c
    disagree on the order of wc(2) and wc(3): register c ends as 3 for p1
    and 2 for p2 — fine per process (CC) but irreconcilable with a common
    total order (not CCv).  (Sec. 4.2.)
    """
    mem = MemoryADT("abcde")
    history = History.from_processes(
        [
            [
                mem.write("a", 1),
                mem.write("c", 2),
                mem.write("d", 1),
                mem.read("b", 0),
                mem.read("e", 1),
                mem.read("c", 3),
            ],
            [
                mem.write("b", 1),
                mem.write("c", 3),
                mem.write("e", 1),
                mem.read("a", 0),
                mem.read("d", 1),
                mem.read("c", 2),
            ],
        ]
    )
    return Litmus(
        key="3h",
        title="Memory: CC, not CCv",
        adt=mem,
        history=history,
        expected=_complete({"CC": True, "CCV": False, "SC": False, "CM": True}),
        paper_claims={"CC": True, "CCV": False},
        notes="the CC/CCv dichotomy exists for memory too (Sec. 4.2)",
    )


def fig3i() -> Litmus:
    """(i) Memory: CM, not CC.

    p1: wa(1), wa(2), wb(3), rd/3, rc/1, wa(1);
    p2: wc(1), wc(2), wd(3), rb/3, ra/1, wc(1).
    The value 1 is written *twice* to a (and to c), so the writes-into
    order may bind rc/1 to p2's first wc(1) (and ra/1 to p1's first
    wa(1)) — the prose gives the resulting per-process linearisations.
    Restoring the real data dependency (the reads can only be explained by
    the *second* writes) creates a cycle in the causal order, so the
    history is not causally consistent: CC repairs causal memory's
    known anomaly with duplicate values (Sec. 4.2).
    """
    mem = MemoryADT("abcd")
    history = History.from_processes(
        [
            [
                mem.write("a", 1),
                mem.write("a", 2),
                mem.write("b", 3),
                mem.read("d", 3),
                mem.read("c", 1),
                mem.write("a", 1),
            ],
            [
                mem.write("c", 1),
                mem.write("c", 2),
                mem.write("d", 3),
                mem.read("b", 3),
                mem.read("a", 1),
                mem.write("c", 1),
            ],
        ]
    )
    return Litmus(
        key="3i",
        title="Memory: CM, not CC",
        adt=mem,
        history=history,
        expected=_complete({"CM": True, "CC": False, "CCV": False, "SC": False}),
        paper_claims={"CM": True, "CC": False},
        notes="writes-into binding vs real data dependency (Sec. 4.2)",
    )


def all_litmus() -> Tuple[Litmus, ...]:
    """The nine histories of Fig. 3, in figure order."""
    return (
        fig3a(),
        fig3b(),
        fig3c(),
        fig3d(),
        fig3e(),
        fig3f(),
        fig3g(),
        fig3h(),
        fig3i(),
    )
