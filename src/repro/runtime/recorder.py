"""History recorder: from simulated executions to distributed histories.

An execution of a replicated object is observed at the shared-object level
(Sec. 6.1): the recorder logs, per process, the sequence of invocations
with their return values (and invocation/response times for the latency
experiments), and converts the log into a :class:`repro.core.history.
History` whose program order is the per-process order — exactly the
history the paper's correctness propositions quantify over.

``mark_quiescent()`` tags all later events as post-quiescence, which the
EC/UC checkers use as the stable set.

Storage.  A live node keeps its whole capture, so the recorder keeps each
process's operations as columns (:class:`RecordRow`), not as one
:class:`OpRecord` and :class:`Invocation` per operation: an interned
method code, two int64 argument slots, the output, and the start and end
times — ~45 bytes per operation.  Arguments that are not at most two
plain ``int``s inside int64 (``bool``s, big ints, strings, tuples, three
or more arguments) are kept whole in a per-row dict keyed by index, so
every invocation read back is ``==`` and ``repr``-identical to the one
recorded.  Reads through ``rows`` build an :class:`OpRecord` per element;
:meth:`HistoryRecorder.to_history` and the other bulk readers go through
:meth:`RecordRow.entries` instead and build none.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..core.history import History
from ..core.operations import Invocation, Operation

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
#: the arity of a method code whose arguments sit in the fallback dict
_SPILLED = 3
#: a row's ``stable_from`` before :meth:`HistoryRecorder.mark_quiescent`
_NEVER = sys.maxsize

#: ``(method, args, output, start, end)``: one record read off the columns
Entry = Tuple[str, Tuple[Any, ...], Any, float, float]


@dataclass(slots=True)
class OpRecord:
    pid: int
    invocation: Invocation
    output: Any
    start: float
    end: float
    stable: bool = False


class RecordRow(Sequence):
    """One process's recorded operations, kept as columns.

    A read-only sequence of :class:`OpRecord`: ``len``, indexing
    (negative indices and slices included), iteration, truth value and
    element-wise ``==`` against any sequence of records.  Every element
    is built on read, so two reads of one index are equal, not identical.
    Only :meth:`HistoryRecorder.record` appends.
    """

    __slots__ = (
        "pid", "_keys", "_codes", "_a0", "_a1", "_out", "_start", "_end",
        "_spilled", "_stable_from",
    )

    def __init__(self, pid: int, keys: List[Tuple[str, int]]) -> None:
        self.pid = pid
        #: the recorder's code -> (method, arity) table, shared by all rows
        self._keys = keys
        self._codes = array("B")
        self._a0 = array("q")
        self._a1 = array("q")
        self._out: List[Any] = []
        self._start = array("d")
        self._end = array("d")
        #: index -> the whole args tuple, for codes of arity ``_SPILLED``
        self._spilled: Dict[int, Tuple[Any, ...]] = {}
        #: records from this index on are stable (post-quiescence)
        self._stable_from = _NEVER

    def __len__(self) -> int:
        return len(self._out)

    def _args(self, i: int, arity: int) -> Tuple[Any, ...]:
        if arity == 2:
            return (self._a0[i], self._a1[i])
        if arity == 1:
            return (self._a0[i],)
        if arity == 0:
            return ()
        return self._spilled[i]

    def _record(self, i: int) -> OpRecord:
        method, arity = self._keys[self._codes[i]]
        return OpRecord(
            self.pid,
            Invocation(method, self._args(i, arity)),
            self._out[i],
            self._start[i],
            self._end[i],
            i >= self._stable_from,
        )

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(len(self)))]
        size = len(self._out)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("record index out of range")
        return self._record(index)

    def __iter__(self) -> Iterator[OpRecord]:
        return map(self._record, range(len(self)))

    def entries(self, first: int = 0, stop: Optional[int] = None) -> Iterator[Entry]:
        """``(method, args, output, start, end)`` of the records
        ``first..stop-1`` (every record by default) in order, read
        straight off the columns: no :class:`OpRecord` or
        :class:`Invocation` is built."""
        keys, args_of = self._keys, self._args
        columns: Tuple[Sequence, ...] = (self._codes, self._out, self._start, self._end)
        if first or stop is not None:
            columns = tuple(column[first:stop] for column in columns)
        for i, (code, output, start, end) in enumerate(zip(*columns), first):
            method, arity = keys[code]
            yield method, args_of(i, arity), output, start, end

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"RecordRow({list(self)!r})"


class HistoryRecorder:
    """Collects operation records during a simulated run."""

    def __init__(self, n: int) -> None:
        self.n = n
        #: code -> (method, arity); arity ``_SPILLED`` keeps args whole
        self._keys: List[Tuple[str, int]] = []
        #: per arity, method -> code
        self._code_of: Tuple[Dict[str, int], ...] = ({}, {}, {}, {})
        self.rows: Tuple[RecordRow, ...] = tuple(
            RecordRow(pid, self._keys) for pid in range(n)
        )
        self._quiescent = False
        self._subscribers: List[Callable[[OpRecord], None]] = []

    def subscribe(self, callback: Callable[[OpRecord], None]) -> None:
        """Stream every future record to ``callback``: one
        :class:`OpRecord` per :meth:`record` call, built for the
        subscribers only (streaming monitors attach here) and equal to
        what ``rows`` yields for it.  The recorded history is identical
        with and without subscribers."""
        self._subscribers.append(callback)

    def mark_quiescent(self) -> None:
        """All records added from now on are tagged stable (post-quiescence)."""
        if not self._quiescent:
            self._quiescent = True
            for row in self.rows:
                row._stable_from = len(row)

    def _intern(self, method: str, arity: int) -> int:
        code = len(self._keys)
        self._keys.append((method, arity))
        self._code_of[arity][method] = code
        if code == 1 << 8 or code == 1 << 16:
            wide = "H" if code == 1 << 8 else "L"
            for row in self.rows:
                row._codes = array(wide, row._codes)
        return code

    def record(
        self,
        pid: int,
        invocation: Invocation,
        output: Any,
        start: float,
        end: float,
    ) -> None:
        row = self.rows[pid]
        method = invocation.method
        args = invocation.args
        arity = len(args)
        a0 = a1 = 0
        if arity > 2:
            arity = _SPILLED
        elif arity:
            a0 = args[0]
            if arity == 2:
                a1 = args[1]
            if not (
                type(a0) is int
                and type(a1) is int
                and _INT64_MIN <= a0 <= _INT64_MAX
                and _INT64_MIN <= a1 <= _INT64_MAX
            ):
                arity = _SPILLED
                a0 = a1 = 0
        code = self._code_of[arity].get(method)
        if code is None:
            code = self._intern(method, arity)
        row._start.append(start)
        row._end.append(end)
        if arity == _SPILLED:
            row._spilled[len(row)] = args
        row._codes.append(code)
        row._a0.append(a0)
        row._a1.append(a1)
        row._out.append(output)
        if self._subscribers:
            rec = OpRecord(
                pid, invocation, output, start, end, self._quiescent
            )
            for callback in self._subscribers:
                callback(rec)

    # ------------------------------------------------------------------
    def to_history(self) -> History:
        """The recorded distributed history (empty rows are dropped so the
        maximal-chain structure matches the active processes).

        Invocation timestamps travel along as ``History.times`` — for an
        update that is the moment its broadcast was issued, which the CCv
        checker's witness-guided enumeration uses to pick the first total
        update orders to try.
        """
        kept = [row for row in self.rows if row]
        rows = [
            [
                Operation(Invocation(method, args), output)
                for method, args, output, _start, _end in row.entries()
            ]
            for row in kept
        ]
        return History.from_processes(rows, times=[row._start for row in kept])

    def stable_eids(self) -> Set[int]:
        """Event ids (in :meth:`to_history` numbering) of stable records."""
        stable: Set[int] = set()
        eid = 0
        for row in self.rows:
            size = len(row)
            stable.update(range(eid + min(row._stable_from, size), eid + size))
            eid += size
        return stable

    # ------------------------------------------------------------------
    def latencies(self) -> List[float]:
        return [
            end - start
            for row in self.rows
            for start, end in zip(row._start, row._end)
        ]

    def mean_latency(self) -> float:
        lats = self.latencies()
        return sum(lats) / len(lats) if lats else 0.0

    def count(self) -> int:
        return sum(len(row) for row in self.rows)
