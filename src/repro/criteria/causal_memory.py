"""Causal memory (Def. 11, Ahamad et al. [2]) and its comparison with CC.

``H`` is ``M_X``-causal iff there is a *writes-into* order ``⤳`` (each read
bound to at most one write of the same register and value, unbound reads
returning the default) and a causal order containing ``⤳ ∪ |->`` such that
every process can linearise the whole history with its own outputs.

The writes-into order is not unique: when the same value is written twice
to a register, a read can be bound to the "wrong" write, which is exactly
how the history of Fig. 3i is causal-memory-admissible but not causally
consistent (Sec. 4.2).  With all-distinct written values, CM and CC(M_X)
coincide (Props. 3 and 4) — property-tested in ``tests/test_propositions``.

The checker enumerates bindings (the candidate sets are tiny on litmus
histories), rejects cyclic ones, and runs the per-process linearisation
search with the induced order.  Taking the *minimal* causal order
``TC(|-> ∪ ⤳)`` is w.l.o.g.: any larger causal order only constrains the
linearisations more.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..adts.memory import MemoryADT
from ..adts.window_stream import INITIAL_VALUE
from ..core.history import History
from ..util.orders import transitive_closure
from .base import CheckResult, register
from .engine import LinItem, LinearizationProblem


def _binding_candidates(
    history: History, adt: MemoryADT
) -> Optional[List[Tuple[int, List[Optional[int]]]]]:
    """For each read event, the list of candidate writes (None = unbound).

    Returns ``None`` when some read is inexplicable (non-default value never
    written to its register) — the history is then trivially not CM.
    """
    reads: List[Tuple[int, List[Optional[int]]]] = []
    for event in history:
        reg = adt.read_target(event.invocation)
        if reg is None or event.hidden:
            continue
        value = event.output
        candidates: List[Optional[int]] = []
        if value == INITIAL_VALUE:
            candidates.append(None)
        for other in history:
            target = adt.write_target(other.invocation)
            if target is not None and target == (reg, value):
                candidates.append(other.eid)
        if not candidates:
            return None
        reads.append((event.eid, candidates))
    return reads


@register("CM")
def check_causal_memory(history: History, adt: MemoryADT) -> CheckResult:
    """Decide whether ``H`` is ``M_X``-causal (Def. 11)."""
    if not isinstance(adt, MemoryADT):
        raise TypeError("causal memory is defined for the memory ADT only")
    reads = _binding_candidates(history, adt)
    if reads is None:
        return CheckResult(
            "CM", False, reason="a read returns a value never written to its register"
        )
    n = len(history)
    chains = history.processes()
    read_eids = [eid for eid, _ in reads]
    candidate_lists = [cands for _, cands in reads]
    tried = 0
    combos = itertools.product(*candidate_lists) if reads else iter([()])
    for combo in combos:
        tried += 1
        if tried > 100_000:
            raise RuntimeError("more than 100000 writes-into bindings")
        # build TC(po ∪ writes-into); reject cycles
        pred = [history.past_mask(e) for e in range(n)]
        for read_eid, write_eid in zip(read_eids, combo):
            if write_eid is not None:
                pred[read_eid] |= 1 << write_eid
        try:
            closed = transitive_closure(pred)
        except ValueError:
            continue  # cyclic: this binding cannot be a writes-into order
        ok = True
        lins: Dict[int, Tuple[int, ...]] = {}
        for chain_index, chain in enumerate(chains):
            members = set(chain)
            items = [
                LinItem(
                    e.eid,
                    e.invocation,
                    e.output,
                    check=(e.eid in members) and not e.hidden,
                )
                for e in history
            ]
            problem = LinearizationProblem(adt, items, closed)
            solution = problem.solve()
            if solution is None:
                ok = False
                break
            lins[chain_index] = tuple(solution)
        if ok:
            binding = {
                read_eid: write_eid
                for read_eid, write_eid in zip(read_eids, combo)
            }
            return CheckResult(
                "CM",
                True,
                certificate={"writes_into": binding, "linearizations": lins},
                stats={"bindings_tried": tried},
            )
    return CheckResult(
        "CM",
        False,
        reason="no writes-into order yields per-process linearisations",
        stats={"bindings_tried": tried},
    )
