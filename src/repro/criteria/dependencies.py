"""Semantic dependency analysis — "which update explains this output?".

The figures of the paper draw dashed arrows for semantic causal relations
("a read value is preceded by the corresponding write operation, a popped
value needs to be pushed first").  This module reconstructs those arrows
from a history:

- for every query output, the *candidate* updates that could explain it
  (per ADT family: memory reads, window-stream reads, queue pops/heads);
- edges are *mandatory* when the candidate is unique — those must belong
  to every causal order witnessing WCC/CC/CCv.

Uses: seeding the causal search, the mandatory arrows of
:func:`repro.criteria.explain` and the dashed arrows
of :func:`repro.util.dot.history_dot`.  The analysis is *sound but
not complete*: it only emits arrows the semantics force; checkers never
rely on it for correctness.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..adts.memory import MemoryADT
from ..adts.queue import FifoQueue, SplitQueue
from ..adts.window_stream import INITIAL_VALUE, WindowStream, WindowStreamArray
from ..core.adt import AbstractDataType
from ..core.history import History
from ..core.operations import BOTTOM


@dataclass(frozen=True)
class Dependency:
    """A semantic arrow: ``source`` (an update) explains part of
    ``target``'s output.  ``mandatory`` when no other update could."""

    source: int
    target: int
    label: str
    mandatory: bool


def _window_value_deps(
    history: History, target: int, values: Sequence[Any], default: Any,
    writers_of,
) -> List[Dependency]:
    deps: List[Dependency] = []
    for value in values:
        if value == default:
            continue
        writers = writers_of(value)
        for writer in writers:
            deps.append(
                Dependency(
                    source=writer,
                    target=target,
                    label=f"read value {value!r}",
                    mandatory=len(writers) == 1,
                )
            )
    return deps


def _writer_index(history: History, method: str) -> Dict[Any, List[int]]:
    """``args -> [eids]`` for every update with the given method, built in
    one pass so the per-query lookups below are O(1) instead of a scan of
    the whole history per read value (the analysis seeds every causal
    search, so it sits on the checker hot path)."""
    index: Dict[Any, List[int]] = defaultdict(list)
    for event in history:
        if event.invocation.method == method:
            index[event.invocation.args].append(event.eid)
    return index


def semantic_dependencies(
    history: History, adt: AbstractDataType
) -> List[Dependency]:
    """The dashed arrows of Fig. 3 for the supported ADT families."""
    deps: List[Dependency] = []
    if isinstance(adt, MemoryADT):
        writers_by_target = _writer_index(history, "w")
        for event in history:
            register = adt.read_target(event.invocation)
            if register is None or event.hidden or event.output == INITIAL_VALUE:
                continue
            writers = writers_by_target.get((register, event.output), ())
            for writer in writers:
                deps.append(
                    Dependency(
                        writer,
                        event.eid,
                        f"r({register})={event.output!r}",
                        mandatory=len(writers) == 1,
                    )
                )
        return deps
    if isinstance(adt, WindowStream):
        writers_by_value = _writer_index(history, "w")
        for event in history:
            if event.invocation.method != "r" or event.hidden:
                continue
            deps.extend(
                _window_value_deps(
                    history,
                    event.eid,
                    event.output,
                    INITIAL_VALUE,
                    lambda value: writers_by_value.get((value,), ()),
                )
            )
        return deps
    if isinstance(adt, WindowStreamArray):
        writers_by_args = _writer_index(history, "w")
        for event in history:
            if event.invocation.method != "r" or event.hidden:
                continue
            stream = event.invocation.args[0]
            deps.extend(
                _window_value_deps(
                    history,
                    event.eid,
                    event.output,
                    INITIAL_VALUE,
                    lambda value, stream=stream: writers_by_args.get(
                        (stream, value), ()
                    ),
                )
            )
        return deps
    if isinstance(adt, (FifoQueue, SplitQueue)):
        pushers_by_value = _writer_index(history, "push")
        reads = ("pop", "hd")
        for event in history:
            if event.invocation.method not in reads or event.hidden:
                continue
            if event.output is BOTTOM:
                continue
            pushers = pushers_by_value.get((event.output,), ())
            for pusher in pushers:
                deps.append(
                    Dependency(
                        pusher,
                        event.eid,
                        f"{event.invocation.method}={event.output!r}",
                        mandatory=len(pushers) == 1,
                    )
                )
        return deps
    raise TypeError(
        f"no semantic dependency analysis for {type(adt).__name__}"
    )


def mandatory_edges(history: History, adt: AbstractDataType) -> List[Tuple[int, int]]:
    """The forced dashed arrows (unique explanations only)."""
    return [
        (d.source, d.target)
        for d in semantic_dependencies(history, adt)
        if d.mandatory and d.source != d.target
    ]
