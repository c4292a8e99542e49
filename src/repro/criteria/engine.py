"""Linearisation search engine.

Every criterion of the paper reduces to questions of the shape: *does some
linearisation of this partially-ordered set of (possibly hidden) operations
belong to ``L(T)``?* (Defs. 5, 6, 8, 9, 11, 12).  This module implements
that question once, as a memoised depth-first search over pairs
``(consumed-event-set, abstract state)``:

- the state space is pruned by remembering failed ``(set, state)`` pairs —
  two different interleavings reaching the same state with the same events
  consumed are equivalent for the rest of the search;
- events that are hidden **and** have no side effect (hidden pure queries)
  are dropped up-front: ``delta`` is total so they linearise anywhere;
- callers running many related problems (the causal-order search poses
  thousands per history) can pass a shared ``solve_cache`` dict: whole
  problems are then memoised by *semantic signature* — the sequence of
  (invocation, checked output) pairs plus the precedence masks — so both
  successes and dead ends are reused across problems whose event ids
  differ but whose constraint structure coincides.

The search is exact: it returns a linearisation iff one exists.  Worst-case
cost is ``O(2^m * |states|)`` for ``m`` kept events, which is the expected
regime for litmus-sized histories (the paper's figures have at most 12
events); the benchmark ``bench_checkers`` tracks how this scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.adt import AbstractDataType, State
from ..core.operations import HIDDEN, Invocation


@dataclass(frozen=True)
class LinItem:
    """One event of a linearisation problem.

    ``check`` is True when the recorded output must match ``lambda`` (a
    visible operation), False when the event only contributes its side
    effect (a hidden operation).
    """

    key: Any
    invocation: Invocation
    output: Any = HIDDEN
    check: bool = False


_MISSING = object()


class LinearizationProblem:
    """A finite poset of operations to interleave against an ADT.

    ``solve_cache`` (optional) is a plain dict shared by the caller across
    many problems; see the module docstring.  Signatures include the ADT
    instance, so one cache can safely span checks of different objects.
    """

    def __init__(
        self,
        adt: AbstractDataType,
        items: Sequence[LinItem],
        pred_masks: Sequence[int],
        solve_cache: Optional[Dict[Any, Optional[Tuple[int, ...]]]] = None,
    ) -> None:
        if len(items) != len(pred_masks):
            raise ValueError("one predecessor mask per item required")
        self.adt = adt
        self.items = list(items)
        self.pred_masks = list(pred_masks)
        self.solve_cache = solve_cache
        self.cache_hit = False
        self.nodes_visited = 0

    # ------------------------------------------------------------------
    def _pruned(self) -> Tuple["LinearizationProblem", List[int]]:
        """Problem without hidden pure queries, plus original positions.

        Hidden pure queries have no side effect and no output to check,
        so they never constrain the search — but their ordering
        constraints must be *bypassed*: predecessors of a dropped event
        are inherited by its successors.  Returns ``(problem, keep)``
        where ``keep[i]`` is the original index of the pruned problem's
        item ``i``.
        """
        adt = self.adt
        droppable = [
            not item.check and not adt.is_update(item.invocation)
            for item in self.items
        ]
        n = len(self.items)
        if not any(droppable):
            return self, list(range(n))
        # propagate predecessor masks through dropped events
        masks = list(self.pred_masks)
        changed = True
        while changed:
            changed = False
            for e in range(n):
                extra = 0
                rest = masks[e]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    p = low.bit_length() - 1
                    if droppable[p]:
                        extra |= masks[p]
                if extra & ~masks[e]:
                    masks[e] |= extra
                    changed = True
        keep = [i for i in range(n) if not droppable[i]]
        keep_mask = 0
        remap = {}
        for new, old in enumerate(keep):
            keep_mask |= 1 << old
            remap[old] = new
        new_items = [self.items[i] for i in keep]
        new_masks = []
        for i in keep:
            mask = 0
            rest = masks[i] & keep_mask
            while rest:
                low = rest & -rest
                rest ^= low
                mask |= 1 << remap[low.bit_length() - 1]
            new_masks.append(mask)
        return LinearizationProblem(self.adt, new_items, new_masks), keep

    # ------------------------------------------------------------------
    def signature(self) -> Tuple[Any, ...]:
        """Semantic identity of the problem, for ``solve_cache`` keys.

        Outputs only participate where they are checked; unchecked items
        contribute their side effect (the invocation) alone.
        """
        return (
            self.adt,
            tuple(
                (item.invocation, item.output if item.check else HIDDEN, item.check)
                for item in self.items
            ),
            tuple(self.pred_masks),
        )

    def solve_positions(self) -> Optional[List[int]]:
        """Item *positions* of some admissible linearisation, or ``None``.

        Positions index the original ``items`` sequence, which makes the
        result independent of item keys and therefore shareable through
        ``solve_cache`` between problems that differ only in keys.
        """
        cache = self.solve_cache
        if cache is not None:
            sig = self.signature()
            hit = cache.get(sig, _MISSING)
            if hit is not _MISSING:
                self.cache_hit = True
                return None if hit is None else list(hit)
        pruned, keep = self._pruned()
        result = pruned._search()
        self.nodes_visited = pruned.nodes_visited
        positions = None if result is None else [keep[pos] for pos in result]
        if cache is not None:
            cache[sig] = None if positions is None else tuple(positions)
        return positions

    def solve(self) -> Optional[List[Any]]:
        """Return the keys of some admissible linearisation, or ``None``.

        An admissible linearisation consumes every item, respects every
        predecessor constraint, and replays in ``L(T)`` (checked outputs
        must match ``lambda`` at their position).
        """
        positions = self.solve_positions()
        if positions is None:
            return None
        return [self.items[pos].key for pos in positions]

    # ------------------------------------------------------------------
    def _search(self) -> Optional[List[int]]:
        adt = self.adt
        items = self.items
        pred = self.pred_masks
        n = len(items)
        full = (1 << n) - 1
        failed: Set[Tuple[int, State]] = set()
        initial = adt.initial_state()
        self.nodes_visited = 0

        # Ready-set delta: rather than re-deriving successor candidates
        # per frame (testing ``pred[c] & ~consumed`` for every unconsumed
        # c), each frame carries the mask of *ready* items — unconsumed,
        # all predecessors consumed — and consuming an item only offers
        # its successors for admission.  Successor lists are the inverted
        # predecessor masks, built once per problem.
        successors: List[List[int]] = [[] for _ in range(n)]
        for i in range(n):
            rest = pred[i]
            while rest:
                low = rest & -rest
                rest ^= low
                successors[low.bit_length() - 1].append(i)
        ready0 = 0
        for i in range(n):
            if not pred[i]:
                ready0 |= 1 << i
        # Iterative DFS with explicit stack to avoid recursion limits on
        # larger histories.  Each frame: (consumed, state, ready, next_pos).
        path: List[int] = []
        stack: List[Tuple[int, State, int, int]] = [(0, initial, ready0, 0)]
        while stack:
            consumed, state, ready, pos = stack.pop()
            if pos == 0:
                self.nodes_visited += 1
            # unwind path to match the depth of this frame
            depth = consumed.bit_count()
            del path[depth:]
            if consumed == full:
                return path
            advanced = False
            # scan only the ready items at or past the frame's position
            rest = ready >> pos << pos
            while rest:
                bit = rest & -rest
                rest ^= bit
                candidate = bit.bit_length() - 1
                item = items[candidate]
                if item.check:
                    if adt.output(state, item.invocation) != item.output:
                        continue
                nstate = adt.transition(state, item.invocation)
                nconsumed = consumed | bit
                if nconsumed != full and (nconsumed, nstate) in failed:
                    continue
                nready = ready & ~bit
                for s in successors[candidate]:
                    if not (pred[s] & ~nconsumed):
                        nready |= 1 << s
                # re-push current frame to continue after this candidate
                stack.append((consumed, state, ready, candidate + 1))
                stack.append((nconsumed, nstate, nready, 0))
                path.append(candidate)
                advanced = True
                break
            if not advanced:
                # every candidate from this (set, state) pair has been
                # explored and failed: memoise the dead end
                failed.add((consumed, state))
        return None
