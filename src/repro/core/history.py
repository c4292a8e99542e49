"""Distributed histories (Def. 4).

A history is ``H = (Sigma, E, Lambda, |->)``: a countable set of events,
each labelled by an operation, partially ordered by the *program order*
``|->`` in which every event has a finite past.  Processes are the maximal
chains of the order (Sec. 2.2); the common case of communicating sequential
processes yields a collection of disjoint chains, but the model — and this
class — supports arbitrary partial orders (fork/join programs etc.).

Implementation notes
--------------------
Events are densely numbered ``0..n-1`` and order *answers* are Python-int
bitmasks (arbitrary precision, so histories are not limited to 64
events).  What is *stored* is the order in the form it arrived in:

- :meth:`History.from_processes` keeps the declared rows — one id
  ``range`` per row, nothing per event and nothing per pair.  Row ``p``
  owns the contiguous ids ``start..stop-1`` and every event carries its
  row index, so ``past_mask(e)`` is ``(1 << e) - (1 << start)`` and
  ``po_lt(a, b)`` is ``start(b) <= a < b``.  A recorded history of N
  operations therefore costs O(N) to build and to hold;
- ``History(events, past_masks)`` and :meth:`History.from_dag` keep one
  explicit strict-past mask per event, because a general partial order
  (fork/join programs) has nothing smaller: O(N²) bits, fine at litmus
  size and the only evidence of the order there is.

Every checker reads both through the same accessors:

- :meth:`History.past_mask` — strict program-order past of an event.  On
  a row history the mask is built on demand and not retained: one
  ``e``-bit int per call, so a loop over all events still touches
  O(N²) bits — the exact searches do that on litmus-size inputs; the
  linear consumers (:func:`repro.criteria.streaming_monitor.
  replay_history`) ask :meth:`History.sequential_processes` instead;
- :meth:`History.processes` — the maximal chains ``P_H``.

Histories recorded from simulated executions additionally carry the
*observed invocation timestamps* of their events (``times``): the time
each operation was issued — for an update, the moment its broadcast was
sent.  Timestamps are pure observation metadata: they never participate
in equality of verdicts, but the CCv checker's witness-guided
enumeration uses them to decide which total update orders to *try
first* (see :mod:`repro.criteria.causal_search`).  Histories built
without them (litmus galleries, JSON files) simply have ``times is
None`` and the checkers fall back to structural virtual timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .operations import HIDDEN, Invocation, Operation, operations


@dataclass(frozen=True, slots=True)
class Event:
    """A labelled event of a distributed history.

    ``process`` is a convenience tag (the index of the chain the event was
    declared on) and may be ``None`` for events of a general DAG history;
    the authoritative notion of "process" is a maximal chain of the program
    order, per the paper.
    """

    eid: int
    process: Optional[int]
    invocation: Invocation
    output: Any = HIDDEN

    @property
    def operation(self) -> Operation:
        return Operation(self.invocation, self.output)

    @property
    def hidden(self) -> bool:
        return self.output is HIDDEN

    def __repr__(self) -> str:
        tag = f"p{self.process}" if self.process is not None else "e"
        return f"<{tag}#{self.eid} {self.operation!r}>"


def _transitive_reduction(n: int, pred_masks: List[int]) -> List[int]:
    """Immediate-predecessor masks from full strict-past masks."""
    ipred = []
    for e in range(n):
        mask = pred_masks[e]
        imm = 0
        rest = mask
        while rest:
            low = rest & -rest
            p = low.bit_length() - 1
            rest ^= low
            # p is immediate iff no other predecessor q has p in its past
            others = mask & ~low
            dominated = False
            sweep = others
            while sweep:
                qlow = sweep & -sweep
                q = qlow.bit_length() - 1
                sweep ^= qlow
                if pred_masks[q] & low:
                    dominated = True
                    break
            if not dominated:
                imm |= low
        ipred.append(imm)
    return ipred


#: ``repr`` prints a row in full up to this many operations; a longer
#: row shows ``_REPR_ROW_EDGE`` operations from each end and the count
#: it left out (a live capture has tens of thousands per row)
_REPR_ROW_FULL = 16
_REPR_ROW_EDGE = 4


class History:
    """A finite distributed history with cached order structure.

    The program order is held either as declared rows (``_rows``: one id
    range per row, indexed by ``Event.process``) or as explicit
    strict-past masks (``_past_masks``) — exactly one of the two is not
    ``None``; see the module docstring.
    """

    __slots__ = (
        "events",
        "_rows",
        "_past_masks",
        "_ipred_masks",
        "_succ_masks",
        "_chains",
        "_times",
    )

    def __init__(
        self,
        events: Sequence[Event],
        past_masks: Sequence[int],
        times: Optional[Sequence[float]] = None,
    ):
        self._store(events, times, past_masks=tuple(past_masks))
        n = len(self.events)
        if len(self._past_masks) != n:
            raise ValueError("one past mask per event required")
        for e, mask in enumerate(self._past_masks):
            if mask.bit_length() > n:
                raise ValueError(f"past mask of event {e} mentions unknown events")
            if (mask >> e) & 1:
                raise ValueError(f"event {e} cannot precede itself")

    def _store(
        self,
        events: Sequence[Event],
        times: Optional[Sequence[float]],
        *,
        rows: Optional[Tuple[range, ...]] = None,
        past_masks: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.events: Tuple[Event, ...] = tuple(events)
        self._rows = rows
        self._past_masks = past_masks
        self._ipred_masks: Optional[Tuple[int, ...]] = None
        self._succ_masks: Optional[Tuple[int, ...]] = None
        self._chains: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._times: Optional[Tuple[float, ...]] = (
            tuple(times) if times is not None else None
        )
        if self._times is not None and len(self._times) != len(self.events):
            raise ValueError("one timestamp per event required")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_processes(
        cls,
        rows: Sequence[Sequence[Any]],
        times: Optional[Sequence[Sequence[float]]] = None,
    ) -> "History":
        """Build a history of communicating sequential processes.

        ``rows[p]`` is the sequence of operations of process ``p`` (any
        format accepted by :func:`repro.core.operations.operations`).  The
        program order is the disjoint union of the row orders, and it is
        stored as just that: the id range of every row.  ``times``
        optionally gives the observed invocation timestamp of every
        operation, row-parallel to ``rows``.
        """
        if times is not None and len(times) != len(rows):
            raise ValueError(
                f"{len(times)} timestamp rows for {len(rows)} process rows"
            )
        events: List[Event] = []
        spans: List[range] = []
        flat_times: Optional[List[float]] = [] if times is not None else None
        for p, row in enumerate(rows):
            row_ops = operations(row)
            if flat_times is not None:
                row_times = times[p]
                if len(row_times) != len(row_ops):
                    raise ValueError(
                        f"row {p}: {len(row_times)} timestamps for "
                        f"{len(row_ops)} operations"
                    )
                flat_times.extend(row_times)
            start = len(events)
            events.extend(
                Event(eid, p, operation.invocation, operation.output)
                for eid, operation in enumerate(row_ops, start)
            )
            spans.append(range(start, len(events)))
        history = cls.__new__(cls)
        history._store(events, flat_times, rows=tuple(spans))
        return history

    @classmethod
    def from_dag(
        cls,
        ops: Sequence[Any],
        edges: Iterable[Tuple[int, int]],
    ) -> "History":
        """Build a history over an arbitrary program order.

        ``edges`` are pairs ``(a, b)`` meaning ``a |-> b`` (need not be
        transitively closed or reduced).  The events carry no process id.
        """
        row_ops = operations(ops)
        n = len(row_ops)
        adj: List[int] = [0] * n
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range")
            adj[b] |= 1 << a
        # transitive closure by repeated propagation in topological order
        past = list(adj)
        order = _topological_order(n, past)
        if order is None:
            raise ValueError("program order contains a cycle")
        for e in order:
            mask = past[e]
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                mask |= past[low.bit_length() - 1]
            past[e] = mask
        events = [
            Event(eid, None, operation.invocation, operation.output)
            for eid, operation in enumerate(row_ops)
        ]
        return cls(events, past)

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def event(self, eid: int) -> Event:
        return self.events[eid]

    def past_mask(self, eid: int) -> int:
        """Strict program-order past ``{e' : e' |-> e}`` as a bitmask."""
        if self._rows is None:
            return self._past_masks[eid]
        return (1 << eid) - (1 << self._row(eid).start)

    def _row(self, eid: int) -> range:
        """The declared row of ``eid`` (row histories only)."""
        return self._rows[self.events[eid].process]

    @property
    def times(self) -> Optional[Tuple[float, ...]]:
        """Observed invocation timestamps by event id, or ``None`` for
        histories that were not recorded from an execution."""
        return self._times

    def po_lt(self, a: int, b: int) -> bool:
        """``a |-> b`` (strictly)."""
        if self._rows is None:
            return bool((self._past_masks[b] >> a) & 1)
        return self._row(b).start <= a < b

    def ipred_mask(self, eid: int) -> int:
        """Immediate predecessors (Hasse diagram) of ``eid``."""
        if self._rows is not None:
            return 1 << (eid - 1) if eid > self._row(eid).start else 0
        if self._ipred_masks is None:
            self._ipred_masks = tuple(
                _transitive_reduction(len(self), list(self._past_masks))
            )
        return self._ipred_masks[eid]

    def succ_mask(self, eid: int) -> int:
        """Strict program-order future of ``eid``."""
        if self._rows is not None:
            return (1 << self._row(eid).stop) - (2 << eid)
        if self._succ_masks is None:
            succ = [0] * len(self)
            for e in range(len(self)):
                mask = self._past_masks[e]
                while mask:
                    low = mask & -mask
                    mask ^= low
                    succ[low.bit_length() - 1] |= 1 << e
            self._succ_masks = tuple(succ)
        return self._succ_masks[eid]

    # ------------------------------------------------------------------
    # Processes = maximal chains (Sec. 2.2)
    # ------------------------------------------------------------------
    def processes(self) -> Tuple[Tuple[int, ...], ...]:
        """The maximal chains ``P_H`` of the program order.

        For a history built with :meth:`from_processes` these are exactly
        the declared rows.  For general DAGs they are enumerated from the
        Hasse diagram (paths from a minimal to a maximal event); the count
        is capped at 4096 against pathological inputs.
        """
        if self._chains is None and self._rows is not None:
            self._chains = tuple(tuple(row) for row in self._rows if row)
        if self._chains is None:
            n = len(self)
            chains: List[Tuple[int, ...]] = []
            minimal = [e for e in range(n) if not self._past_masks[e]]
            isucc: List[List[int]] = [[] for _ in range(n)]
            for e in range(n):
                mask = self.ipred_mask(e)
                while mask:
                    low = mask & -mask
                    mask ^= low
                    isucc[low.bit_length() - 1].append(e)

            # iterative DFS — chains can be as long as the history, far
            # past the interpreter recursion limit
            for start in minimal:
                path = [start]
                branch: List[int] = [0]  # next successor index per depth
                while path:
                    if len(chains) >= 4096:
                        raise RuntimeError(
                            "history has more than 4096 maximal chains"
                        )
                    succs = isucc[path[-1]]
                    if not succs:
                        chains.append(tuple(path))
                        path.pop()
                        branch.pop()
                        continue
                    nxt = branch[-1]
                    if nxt < len(succs):
                        branch[-1] += 1
                        path.append(succs[nxt])
                        branch.append(0)
                    else:
                        path.pop()
                        branch.pop()
            if not minimal and n:
                raise RuntimeError("non-empty order with no minimal element")
            self._chains = tuple(chains)
        return self._chains

    def sequential_processes(self) -> Optional[Sequence[Sequence[int]]]:
        """The processes as disjoint chains of event ids, when the program
        order is a disjoint union of chains (communicating sequential
        processes, Sec. 2.2); ``None`` for any other partial order.

        Declared rows are such a union by construction and are returned
        as their id ranges, nothing materialised.  Explicit masks are
        verified chain by chain against the prefix each event must have —
        there the masks are the only evidence of the order.
        """
        if self._rows is not None:
            return tuple(row for row in self._rows if row)
        chains = self.processes()
        if sum(len(chain) for chain in chains) != len(self):
            return None
        for chain in chains:
            expected = 0
            for eid in chain:
                if self._past_masks[eid] != expected:
                    return None
                expected |= 1 << eid
        return chains

    def __repr__(self) -> str:
        rows: Dict[Optional[int], List[int]] = {}
        for event in self.events:
            rows.setdefault(event.process, []).append(event.eid)

        def ops(eids: Sequence[int]) -> str:
            return " ".join(repr(self.events[eid].operation) for eid in eids)

        def render(eids: Sequence[int]) -> str:
            if len(eids) <= _REPR_ROW_FULL:
                return ops(eids)
            cut = len(eids) - 2 * _REPR_ROW_EDGE
            return (
                f"{ops(eids[:_REPR_ROW_EDGE])} … +{cut} … "
                f"{ops(eids[-_REPR_ROW_EDGE:])}"
            )

        body = "; ".join(
            f"p{p}: " + render(eids)
            for p, eids in sorted(rows.items(), key=lambda kv: (kv[0] is None, kv[0]))
        )
        return f"<History |E|={len(self)} {body}>"


def _topological_order(n: int, pred: List[int]) -> Optional[List[int]]:
    """Topological order of events given direct-predecessor masks, or None
    if cyclic."""
    indeg = [bin(pred[e]).count("1") for e in range(n)]
    stack = [e for e in range(n) if indeg[e] == 0]
    succ: List[List[int]] = [[] for _ in range(n)]
    for e in range(n):
        mask = pred[e]
        while mask:
            low = mask & -mask
            mask ^= low
            succ[low.bit_length() - 1].append(e)
    order = []
    while stack:
        e = stack.pop()
        order.append(e)
        for s in succ[e]:
            indeg[s] -= 1
            if indeg[s] == 0:
                stack.append(s)
    if len(order) != n:
        return None
    return order
