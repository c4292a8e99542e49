"""Reference implementations and tools the tests compare the program against.

Nothing under ``src/`` calls these: each is either the plain, obviously
correct version of an optimised routine (an *oracle* a property test
holds the fast path to) or a tool that builds test inputs and reads test
observables.  They live here so ``src/`` holds only what the system runs
(``tests/test_hygiene.py`` keeps it that way).

- :class:`ReferenceCausalBroadcast` — the quadratic causal delivery
  drain :class:`repro.runtime.CausalBroadcast`'s indexed cascade must
  match delivery for delivery (``tests/test_runtime_perf.py``);
- :func:`flooding` / :func:`flooded` / :func:`flooded_chaos_trial` —
  the flood: every process passes a message on the first time it sees
  it, the dissemination the reliable broadcast ran before
  heartbeat-digest repair.  The goldens recorded then are replayed
  through it, and the direct sends are held to deliver the world it
  delivers (``tests/test_dissemination.py``);
- :func:`propagate_reference` — the whole-family K1–K5 fixpoint
  ``CausalSearch._propagate``'s worklist closure must match
  (``tests/test_search_perf.py``);
- :func:`classify_by_search` — an empirical update/query classification
  the ADTs' declared ``is_update``/``is_query`` are cross-checked against;
- :func:`seal`, :func:`topological_orders`,
  :func:`count_linear_extensions` — input builders;
- :func:`stability_frontier` — a read of a broadcast endpoint's GC state.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Sequence, Tuple

from repro.chaos.driver import _chaos_post_setup
from repro.core import HIDDEN, AbstractDataType, Invocation, Operation
from repro.runtime.broadcast import (
    CausalBroadcast,
    CausalEndpoint,
    ReliableBroadcast,
)
from repro.scenarios.matrix import ALGORITHMS, CheckedRun, check_run
from repro.scenarios.spec import ScenarioSpec
from repro.util.bitset import bits
from repro.util.orders import LazyOrderEnumerator


# ----------------------------------------------------------------------
# Causal delivery: the re-scanning drain
# ----------------------------------------------------------------------
class ReferenceCausalEndpoint(CausalEndpoint):
    """The pre-indexing causal delivery drain, kept as executable spec.

    Delivery re-scans the whole pending buffer (in arrival order) after
    every arrival until a full pass makes no progress — obviously
    correct, quadratic in the buffer size.
    """

    def __init__(self, service: CausalBroadcast, pid: int) -> None:
        super().__init__(service, pid)
        self.buffer: List[Any] = []

    def _deliverable(self, message: Any) -> bool:
        """The message is its sender's next one and every message its
        stamp names is already delivered here."""
        origin = message["origin"]
        for j, required in enumerate(message["stamp"]):
            if j == origin:
                if self.vc[j] != required - 1:
                    return False
            elif self.vc[j] < required:
                return False
        return True

    def _accept(self, message: Any) -> None:
        self.buffer.append(message)
        monitor = self.service.monitor
        progress = True
        while progress:
            progress = False
            for message in list(self.buffer):
                if self._deliverable(message):
                    origin = message["origin"]
                    self.buffer.remove(message)
                    self.vc[origin] += 1
                    if monitor is not None:
                        monitor.on_causal_deliver(
                            self.pid, message["id"], origin, message["stamp"]
                        )
                    self._deliver(origin, message["payload"])
                    progress = True

    def pending(self) -> int:
        return len(self.buffer)


class ReferenceCausalBroadcast(CausalBroadcast):
    name = "causal-reference"
    endpoint_cls = ReferenceCausalEndpoint


# ----------------------------------------------------------------------
# Dissemination: the flood
# ----------------------------------------------------------------------
class FloodingEndpoint:
    """Endpoint mixin: a first-seen message is passed on to every peer
    before it is accepted, so a message delivered anywhere reaches every
    non-faulty process with no digest at all."""

    def receive(self, src: int, message: Any) -> None:
        if self.is_seen(message["id"]):
            return
        self._note_seen(message)
        self._relay(message)
        self._accept(message)


def _no_heartbeat(service: Any) -> None:
    """A flood needs no repair, so its heartbeat is never armed."""


def flooding(service_cls: Any) -> Any:
    """The subclass of the reliable broadcast service ``service_cls``
    whose endpoints flood and that never beats; any other class
    (``None`` included) comes back as it is."""
    if not issubclass(service_cls or object, ReliableBroadcast):
        return service_cls
    base = service_cls.endpoint_cls
    endpoint = type(base.__name__, (FloodingEndpoint, base), {})
    return type(
        service_cls.__name__,
        (service_cls,),
        {"endpoint_cls": endpoint, "arm_heartbeat": _no_heartbeat},
    )


def flooded(cls: type) -> type:
    """The replicated-object class ``cls`` over :func:`flooding` of its
    broadcast service — for ``AlgorithmEntry.run(cls=...)`` or a direct
    construction; ``cls`` itself when it has no reliable broadcast."""
    service_cls = flooding(cls.broadcast_cls)
    if service_cls is cls.broadcast_cls:
        return cls
    return type(cls.__name__, (cls,), {"broadcast_cls": service_cls})


def flooded_chaos_trial(
    spec: ScenarioSpec, algo_key: str, run_seed: int, check_criterion: bool = True
) -> CheckedRun:
    """:func:`repro.chaos.run_chaos_trial` with nothing planted, over
    :func:`flooded` of the row's class."""
    entry = ALGORITHMS[algo_key]
    return check_run(
        spec, entry, run_seed, cls=flooded(entry.cls),
        post_setup=_chaos_post_setup, check=check_criterion,
    )


# ----------------------------------------------------------------------
# Causal-order search: the whole-family fixpoint
# ----------------------------------------------------------------------
def propagate_reference(search: Any, family: List[int]) -> Optional[List[int]]:
    """Close ``family`` (in place) under K1–K3 of ``search``'s history by
    a whole-family fixpoint, then test K4 and, when the search has a
    total order, K5; ``None`` when either fails.

    ``search`` is a :class:`repro.criteria.causal_search.CausalSearch`;
    this is the specification its incremental ``_propagate`` must match.
    """
    history = search.history
    updates = search.updates
    changed = True
    while changed:
        changed = False
        for e in range(search.n):
            mask = family[e]
            # K2: inherit the past of every strict po-predecessor
            for p in bits(history.past_mask(e)):
                mask |= family[p]
            # K1 is part of the seed and preserved; K3: close under the
            # induced update order (the update rows themselves)
            extra = 0
            for pu in bits(mask):
                extra |= family[updates[pu]]
            mask |= extra
            if mask != family[e]:
                family[e] = mask
                changed = True
    # K4: irreflexivity + antisymmetry of the induced update order
    for pu, u in enumerate(updates):
        row = family[u]
        if row & (1 << pu):
            return None
        for pv in bits(row):
            if family[updates[pv]] & (1 << pu):
                return None
    # K5: containment in the total order (CCv)
    rank = search._total_rank
    if rank is not None:
        for pu, u in enumerate(updates):
            for pv in bits(family[u]):
                if rank[pv] > rank[pu]:
                    return None
    return family


# ----------------------------------------------------------------------
# ADTs and words
# ----------------------------------------------------------------------
def classify_by_search(
    adt: AbstractDataType,
    invocation: Invocation,
    probe_sequences: Sequence[Sequence[Invocation]],
) -> Tuple[Optional[bool], Optional[bool]]:
    """Empirically classify ``invocation`` as (update?, query?).

    Explores the states reached by each probe sequence and observes whether
    ``delta`` moves any of them and whether ``lambda`` differs between any
    two of them.  Returns ``(update, query)`` where a component is ``True``
    when witnessed, and ``None`` when no witness was found (the property may
    still hold on unexplored states).
    """
    states = {adt.initial_state()}
    for seq in probe_sequences:
        state = adt.initial_state()
        states.add(state)
        for step in seq:
            state = adt.transition(state, step)
            states.add(state)
    update_witness: Optional[bool] = None
    query_witness: Optional[bool] = None
    outputs = set()
    for state in states:
        if adt.transition(state, invocation) != state:
            update_witness = True
        try:
            outputs.add(adt.output(state, invocation))
        except TypeError:  # unhashable output: compare pairwise
            outs = [adt.output(s, invocation) for s in states]
            if any(a != b for a, b in itertools.combinations(outs, 2)):
                query_witness = True
    if len(outputs) > 1:
        query_witness = True
    return update_witness, query_witness


def seal(adt: AbstractDataType, word: Sequence[Operation]) -> List[Operation]:
    """Replace every visible output in ``word`` by the specification's own
    output, yielding a word guaranteed to be in ``L(T)``.  Hidden
    operations stay hidden."""
    state = adt.initial_state()
    sealed = []
    for operation in word:
        if operation.output is HIDDEN:
            sealed.append(operation)
        else:
            sealed.append(
                Operation(operation.invocation, adt.output(state, operation.invocation))
            )
        state = adt.transition(state, operation.invocation)
    return sealed


# ----------------------------------------------------------------------
# Orders
# ----------------------------------------------------------------------
def topological_orders(pred: Sequence[int], limit: Optional[int] = None):
    """Yield linear extensions of the strict partial order ``pred``
    (transitively closed), at most ``limit`` of them."""
    return iter(LazyOrderEnumerator(pred, limit=limit))


def count_linear_extensions(pred: Sequence[int], cap: int = 10**6) -> int:
    """Count linear extensions (memoised over consumed-set masks); stops
    adding once a partial count passes ``cap``."""
    n = len(pred)
    full = (1 << n) - 1
    memo = {full: 1}

    def rec(consumed: int) -> int:
        if consumed in memo:
            return memo[consumed]
        total = 0
        for i in range(n):
            bit = 1 << i
            if consumed & bit or (pred[i] & ~consumed):
                continue
            total += rec(consumed | bit)
            if total > cap:
                break
        memo[consumed] = total
        return total

    return rec(0)


# ----------------------------------------------------------------------
# Broadcast observables
# ----------------------------------------------------------------------
def stability_frontier(service: Any, pid: int) -> List[int]:
    """Per origin, below what ``pid`` has pruned its retained log."""
    return list(service.endpoints[pid].stable)
