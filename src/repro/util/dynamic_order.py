"""A dynamic topological order (Pearce & Kelly) over integer nodes.

Nodes ``0..count-1`` are added one at a time, each labelled past the
maximum.  Edges are *implicit*, a DAG the caller derives on demand, or
*recorded* one at a time; ``label``, a permutation of the nodes, is a
linear extension of both between calls.  The implicit DAG is given by
``succs(u)`` / ``preds(u)``, *generators* of the nodes after / before
``u`` (every such node is one or follows / precedes one), and
``before(u, v)``: is ``u`` before ``v``, or ``v`` itself?  Recording
``a → b`` is a label compare when ``label[a] < label[b]``; otherwise a
search forward from ``b`` among the nodes labelled between the two either
reaches ``a`` (a cycle: the edge is refused) or, with one backward from
``a``, yields the labels to re-deal.  ``spend(visits)`` counts the nodes
a search expanded and says how many the next may expand, so orders can
share a budget; a search that runs out decides nothing.  The callbacks
are bound methods, held weakly: no cycle keeps their owner alive.
"""

from __future__ import annotations

import weakref
from array import array
from collections import defaultdict
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class _Exhausted(Exception):
    """A search expanded more nodes than its budget."""


class DynamicOrder:
    """A topological order of implicit ∪ recorded edges (see the module
    docstring).  ``log`` keeps the recorded edges in insertion order as
    well, for callers that walk them in that order."""

    __slots__ = (
        "label", "out", "inn", "log", "searches", "moved",
        "_succs", "_preds", "_before", "_spend",
    )

    def __init__(
        self,
        succs: Callable[[int], Iterable[int]],
        preds: Callable[[int], Iterable[int]],
        before: Callable[[int, int], bool],
        spend: Callable[[int], int],
        log: bool = False,
    ) -> None:
        self.label = array("i")
        #: the recorded edges by source and by target, in insertion order;
        #: lists, not sets: degrees stay small, an empty set costs 216 bytes
        self.out: Dict[int, List[int]] = defaultdict(list)
        self.inn: Dict[int, List[int]] = defaultdict(list)
        self.log: Optional[List[Tuple[int, int]]] = [] if log else None
        self.searches = 0  # insertions against the current labels
        self.moved = 0  # labels those insertions re-dealt
        self._succs, self._preds, self._before, self._spend = map(
            weakref.WeakMethod, (succs, preds, before, spend)
        )

    def add(self) -> None:
        """A new node, labelled last."""
        self.label.append(len(self.label))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """The recorded edges: in insertion order if logged, else grouped
        by source."""
        if self.log is not None:
            return iter(self.log)
        return ((a, b) for a, outs in self.out.items() for b in outs)

    def insert(self, a: int, b: int) -> Optional[bool]:
        """Record the edge ``a → b`` and make the labels agree with it:
        True once they do, False (nothing recorded) if ``b`` reaches
        ``a``, None (nothing recorded) if a search ran out of budget."""
        label = self.label
        lo, hi = label[b], label[a]
        if lo <= hi:
            if a == b:
                return False
            # a path b ⇝ a, or anything else the edge displaces, lies
            # between the two labels
            self.searches += 1
            try:
                after = self._region(b, lo, hi, a)
                if after is None:
                    return False
                before = self._region(a, lo, hi)
            except _Exhausted:
                return None
            # re-deal the labels they hold: what reaches a, then what b
            # reaches, each side keeping its own order
            before.sort(key=label.__getitem__)
            after.sort(key=label.__getitem__)
            moved = before + after
            for u, at in zip(moved, sorted(map(label.__getitem__, moved))):
                label[u] = at
            self.moved += len(moved)
        self.out[a].append(b)
        self.inn[b].append(a)
        if self.log is not None:
            self.log.append((a, b))
        return True

    def reaches(self, src: int, dst: int, stale: bool = False) -> Optional[bool]:
        """Is there a path from ``src`` to ``dst``?  None if the search
        ran out of budget.  ``stale``: the labels may not respect the
        edges (a :meth:`rebuild` found a cycle), so search every node."""
        if stale:
            lo, hi = 0, len(self.label)
        else:
            lo, hi = self.label[src], self.label[dst]
            if lo >= hi:
                return False
        try:
            return self._region(src, lo, hi, dst) is None
        except _Exhausted:
            return None

    def rebuild(self) -> bool:
        """Re-deal every label by one depth-first topological sort,
        causes first and otherwise in node order; False, labels
        untouched, if the edges are cyclic."""
        count = len(self.label)
        inn = self.inn
        preds = self._preds()
        label = array("i", [-1]) * count  # -1 unvisited, -2 on the path
        placed = 0
        for root in range(count):
            if label[root] != -1:
                continue
            path: List[int] = []
            causes: List[Iterator[int]] = [iter((root,))]
            while causes:
                for v in causes[-1]:
                    if label[v] == -1:
                        label[v] = -2
                        path.append(v)
                        causes.append(chain(preds(v), inn.get(v, ())))
                        break
                    if label[v] == -2:
                        return False
                else:
                    causes.pop()
                    if path:
                        label[path.pop()] = placed
                        placed += 1
        self.label = label
        return True

    def _region(
        self, start: int, lo: int, hi: int, target: Optional[int] = None
    ) -> Optional[List[int]]:
        """The nodes labelled within ``lo..hi`` that reach ``start``,
        ``start`` included — or, given a ``target``, those ``start``
        reaches, and None as soon as one of them is the target or
        implicitly before it.  Raises :class:`_Exhausted` past the
        search budget."""
        label = self.label
        if target is None:
            edges, step = self.inn, self._preds()
        else:
            edges, step = self.out, self._succs()
            before = self._before()
        spend = self._spend()
        left = spend(0)
        visits = 0
        found = [start]
        seen = {start}
        stack = [start]
        try:
            while stack:
                visits += 1
                if visits > left:
                    raise _Exhausted
                u = stack.pop()
                for v in chain(step(u), edges.get(u, ())):
                    if v in seen or not lo <= label[v] <= hi:
                        continue
                    if target is not None and before(v, target):
                        return None
                    seen.add(v)
                    found.append(v)
                    stack.append(v)
            return found
        finally:
            spend(visits)
