"""Partial-order utilities: linear extensions and order enumeration.

Used by the causal-consistency checkers: CCv (Def. 12) quantifies over
*total* orders on update events extending the program order, which the
search enumerates lazily, and the checkers need transitive closures of
small relations.  Elements are integers ``0..n-1`` and relations are
lists of predecessor bitmasks (``pred[i]`` = mask of elements strictly
before ``i``).

The enumeration routines are iterative (explicit stacks, no recursion)
and the inner loops manipulate masks with ``mask & -mask`` directly
rather than going through the :func:`repro.util.bitset.bits` generator —
these are the hottest loops of the CCv checker.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence


def transitive_closure(pred: Sequence[int]) -> List[int]:
    """Strict transitive closure of a relation given as predecessor masks.

    Raises ``ValueError`` on a cycle (an element preceding itself).
    """
    n = len(pred)
    closed = list(pred)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            mask = closed[i]
            extra = 0
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                extra |= closed[low.bit_length() - 1]
            if extra & ~mask:
                closed[i] = mask | extra
                changed = True
    for i in range(n):
        if closed[i] & (1 << i):
            raise ValueError("relation is cyclic")
    return closed


class LazyOrderEnumerator:
    """Iterative enumeration of linear extensions with lazy refinement.

    Yields the linear extensions of the (transitively closed) strict
    partial order ``refined``.  When ``base`` is also given (a weaker
    order, ``base[i] ⊆ refined[i]``), the enumerator additionally counts,
    in :attr:`pruned`, the prefix extension steps that ``base`` would
    have allowed but ``refined`` forbids — i.e. how many branches of the
    naive ``base``-only enumeration the refinement cut without ever
    materialising them.  The CCv search uses this with ``base`` = program
    order among updates and ``refined`` = the update order induced by the
    seeded initial family: every total order contradicting a mandatory
    causal edge is pruned at the earliest possible prefix.

    The traversal is an explicit-stack DFS mirroring the linearisation
    engine: frames are ``(consumed-mask, scan-position)`` and the current
    prefix lives in a shared list trimmed to the frame's depth.
    """

    def __init__(
        self,
        refined: Sequence[int],
        base: Optional[Sequence[int]] = None,
        limit: Optional[int] = None,
    ) -> None:
        self.refined = list(refined)
        self.base = list(base) if base is not None else None
        self.limit = limit
        self.pruned = 0
        self.yielded = 0

    def __iter__(self) -> Iterator[List[int]]:
        # each traversal restarts the counters: re-iterating must yield
        # the same orders again, not resume against a consumed limit
        self.pruned = 0
        self.yielded = 0
        refined = self.refined
        base = self.base
        n = len(refined)
        full = (1 << n) - 1
        acc: List[int] = []
        stack: List[tuple] = [(0, 0)]
        while stack:
            consumed, pos = stack.pop()
            del acc[consumed.bit_count():]
            if consumed == full:
                self.yielded += 1
                yield list(acc)
                if self.limit is not None and self.yielded >= self.limit:
                    return
                continue
            for i in range(pos, n):
                bit = 1 << i
                if consumed & bit:
                    continue
                if refined[i] & ~consumed:
                    # would the weaker base order have allowed this step?
                    if base is not None and not (base[i] & ~consumed):
                        self.pruned += 1
                    continue
                stack.append((consumed, i + 1))
                stack.append((consumed | bit, 0))
                acc.append(i)
                break


def permute_relation(pred: Sequence[int], perm: Sequence[int]) -> List[int]:
    """Re-index a predecessor-mask relation through a permutation.

    ``perm[k]`` is the original element occupying *priority rank* ``k``;
    the result describes the same relation over priority ranks:
    ``out[k]`` has bit ``j`` set iff ``pred[perm[k]]`` has bit
    ``perm[j]`` set.  Linear extensions correspond one-to-one (map each
    rank back through ``perm``), but their *lexicographic enumeration
    order* changes — which is the whole point: the CCv search enumerates
    in priority space so the semantically likely witnesses come first,
    while the enumeration stays a deterministic function of
    ``(pred, perm)`` alone.
    """
    n = len(pred)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm is not a permutation of 0..{n - 1}")
    inverse = [0] * n
    for k, original in enumerate(perm):
        inverse[original] = k
    out = []
    for k in range(n):
        mask = 0
        rest = pred[perm[k]]
        while rest:
            low = rest & -rest
            rest ^= low
            mask |= 1 << inverse[low.bit_length() - 1]
        out.append(mask)
    return out
