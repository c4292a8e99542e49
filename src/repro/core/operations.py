"""Operations and invocations — the alphabet of abstract data types.

The paper (Def. 1) models an ADT as a transducer with an input alphabet
``Sigma_i`` (method invocations) and an output alphabet ``Sigma_o`` (returned
values).  An *operation* is a pair ``sigma_i / sigma_o``; a *hidden*
operation is an input symbol whose return value is unknown (Def. 2), used by
the projection operator ``H.pi(E', E'')`` of Sec. 2.2 to keep the side
effect of an event while ignoring what it returned.

This module defines the two value types shared by the whole library:

``Invocation``
    An element of ``Sigma_i``: a method name plus its arguments, e.g.
    ``Invocation("w", (1,))`` for the window-stream write ``w(1)``.

``Operation``
    An element of ``(Sigma_i x Sigma_o) U Sigma_i``: an invocation together
    with its output, where the output may be the :data:`HIDDEN` sentinel to
    represent a hidden operation ``sigma_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Tuple


class _Hidden:
    """Sentinel for the unknown output of a hidden operation (Def. 2)."""

    _instance = None

    def __new__(cls) -> "_Hidden":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "HIDDEN"

    def __reduce__(self):  # keep singleton across pickling
        return (_Hidden, ())


#: Output placeholder of a hidden operation: the method call is known but the
#: value it returned is not part of the specification check.
HIDDEN = _Hidden()


class _Bottom:
    """Sentinel for the dummy output ``bot`` returned by pure updates."""

    _instance = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "⊥"

    def __reduce__(self):
        return (_Bottom, ())


#: The dummy return value of pure update operations (``w(v)/bot`` in the
#: paper).  Comparable only to itself.
BOTTOM = _Bottom()


@dataclass(frozen=True, slots=True)
class Invocation:
    """An input symbol ``sigma_i``: a method name applied to arguments.

    Arguments are stored as a (hashable) tuple so invocations can be used as
    dictionary keys and in memoisation tables.
    """

    method: str
    args: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    def __repr__(self) -> str:
        if not self.args:
            return self.method
        inner = ",".join(repr(a) for a in self.args)
        return f"{self.method}({inner})"


@dataclass(frozen=True, slots=True)
class Operation:
    """An operation ``sigma_i/sigma_o`` or a hidden operation ``sigma_i``.

    ``output`` is :data:`HIDDEN` when the return value is not specified —
    the operation then only contributes its side effect to a sequential
    history (Def. 2).
    """

    invocation: Invocation
    output: Any = HIDDEN

    @property
    def hidden(self) -> bool:
        """True when this is a hidden operation (no output to check)."""
        return self.output is HIDDEN

    def __repr__(self) -> str:
        if self.hidden:
            return repr(self.invocation)
        return f"{self.invocation!r}/{self.output!r}"


def inv(method: str, *args: Any) -> Invocation:
    """Shorthand constructor: ``inv("w", 1) == Invocation("w", (1,))``."""
    return Invocation(method, tuple(args))


def op(method: str, *args: Any, returns: Any = HIDDEN) -> Operation:
    """Shorthand constructor for an :class:`Operation`.

    >>> op("w", 1)                    # hidden write
    w(1)
    >>> op("r", returns=(0, 1))       # read returning (0, 1)
    r/(0, 1)
    """
    return Operation(Invocation(method, tuple(args)), returns)


def operations(seq: Iterable[Any]) -> list:
    """Normalise a mixed iterable into a list of :class:`Operation`.

    Accepts :class:`Operation`, :class:`Invocation` (treated as hidden) and
    ``(invocation, output)`` pairs.
    """
    out = []
    for item in seq:
        if isinstance(item, Operation):
            out.append(item)
        elif isinstance(item, Invocation):
            out.append(Operation(item, HIDDEN))
        elif isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], Invocation):
            out.append(Operation(item[0], item[1]))
        else:
            raise TypeError(f"cannot interpret {item!r} as an operation")
    return out


def output_to_json(out: Any) -> Any:
    """An output in the classify-JSON history format (:data:`BOTTOM` is
    ``"<bottom>"``, :data:`HIDDEN` ``null``, a window a list)."""
    if out is BOTTOM:
        return "<bottom>"
    if out is HIDDEN:
        return None
    if isinstance(out, tuple):
        return list(out)
    return out


def output_from_json(raw: Any) -> Any:
    """Inverse of :func:`output_to_json`."""
    if raw is None:
        return HIDDEN
    if raw == "<bottom>":
        return BOTTOM
    if isinstance(raw, list):
        return tuple(raw)
    return raw
