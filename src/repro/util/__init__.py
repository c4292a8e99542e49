"""Shared utilities: bitmask sets, order enumeration, tables, RNG."""

from .bitset import bits
from .orders import transitive_closure

__all__ = [
    "bits",
    "transitive_closure",
]
