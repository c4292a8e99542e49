"""Bitmask helpers.

Event sets and update sets are represented as Python integers (arbitrary
precision), which keeps the checker inner loops allocation-free and makes
set operations single opcodes.  These helpers are the only place that
manipulates masks bit-by-bit.
"""

from __future__ import annotations

from typing import Iterator, List


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> List[int]:
    """Set bit positions of ``mask`` as a list, in increasing order.

    Non-generator counterpart of :func:`bits` for hot loops: building the
    list in one flat ``while`` avoids a generator frame per iteration,
    which measurably matters in the causal-search inner loops.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
