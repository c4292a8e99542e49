"""Search for causal orders — the decision procedure behind WCC/CC/CCv.

The three causal criteria of the paper quantify existentially over a causal
order (Def. 7): a partial order containing the program order in which every
event has a cofinite future.  On *finite* histories cofiniteness is vacuous,
so the checkers must decide, exactly::

    WCC (Def. 8):  ∃ → ⊇ |->  s.t. ∀e:        lin((H→).π(⌊e⌋, {e})) ∩ L(T) ≠ ∅
    CC  (Def. 9):  ∃ → ⊇ |->  s.t. ∀p ∀e∈p:   lin((H→).π(⌊e⌋, p))  ∩ L(T) ≠ ∅
    CCv (Def. 12): ∃ → ⊇ |->, ∃ total ≤ ⊇ →  s.t. ∀e: lin((H≤).π(⌊e⌋, {e})) ∩ L(T) ≠ ∅

Reduction (proved below): w.l.o.g. the causal order is the transitive
closure of ``|-> ∪ A`` where every extra edge in ``A`` starts at an *update*
event.  Indeed, let ``→`` witness the criterion and define ``A = {(u, e) :
u update, u → e}`` and ``→' = TC(|-> ∪ A)``.  Then ``→' ⊆ →`` (so every
→-compatible linearisation is →'-compatible) while each causal past keeps
exactly the same update events (every update of ``⌊e⌋`` is re-inserted by an
``A`` edge), and the replayed side effects of a past are exactly its
updates, hidden pure queries being no-ops of the transducer.  Hence ``→'``
witnesses the criterion too.

Consequently a witness is fully described by the *family of update pasts*
``past[e] ⊆ U`` (the update events causally before ``e``), subject to:

  (K1) program-order seeding: updates po-before ``e`` are in ``past[e]``;
  (K2) monotonicity: ``e' |-> e`` implies ``past[e'] ⊆ past[e]``;
  (K3) closure: ``u ∈ past[e]`` implies ``past[u] ⊆ past[e]``;
  (K4) antisymmetry/irreflexivity of the induced update order
       ``u ⊏ u' ⟺ u ∈ past[u']``;
  (K5, CCv only) ``⊏`` is contained in the chosen total update order.

The checker performs a failure-driven monotone search over such families:
start from the minimal closed family, check every event with the memoised
linearisation engine, and branch by adding one candidate update to the past
of a failing event.  The search is complete because (a) per-event checks
are monotone in the *other* rows — shrinking someone else's past or the
induced order only removes constraints — so an event failing under the
current family has a strictly larger past in any witnessing family
extending it, and (b) every legal single-update extension is branched on.
Visited families are memoised so exhaustion (the NO answer) terminates.

Incremental closure
-------------------
Families along one search path only ever *grow*, one update bit at a
time, so re-closing a whole family per branch (a Θ(n²·m) fixpoint) is
wasted work.  ``_propagate`` instead runs a worklist from the single
``(event, new-bits)`` seed of the branch under the invariant that the
input family is already K1–K3 closed.  A popped delta is (i) closed
under K3 against the current update rows, (ii) pushed to the event's
program-order successors (K2), and (iii) pushed to the *dependents* of
the event when it is an update — the events whose past contains it (K3
in the other direction).  Dependent sets are maintained once per search
as a monotone over-approximation (a bit, once set, is never cleared even
when the branch that set it is abandoned); soundness comes from
re-testing actual membership before pushing, completeness from the fact
that every genuine containment was registered when its bit was first
added.  K4/K5 are then re-verified only for update rows the worklist
touched.  ``_propagate_reference``, the original whole-family fixpoint,
is kept as the executable specification; the equivalence is
property-tested in ``tests/test_search_perf.py``.

Cross-order memoisation (CCv)
-----------------------------
A CCv unit check replays the updates of ``past[e]`` in the total order
``≤`` and compares ``e``'s output — its verdict depends only on ``(e,
ordered update sequence)``, *not* on which total order produced that
sequence.  The per-unit memo is therefore keyed on the ordered tuple of
past updates and survives across total orders, as does a per-search
replay-prefix cache mapping each ordered update sequence to the abstract
state it reaches (so two orders, or two families, sharing a prefix share
the replay).  Total orders themselves are enumerated lazily through
:class:`repro.util.orders.LazyOrderEnumerator`, refined by the update
order induced by the seeded initial family: since that family is
contained in every witnessing family, any total order contradicting it
(K5) is pruned at the earliest violating prefix and never materialised.

WCC/CC unit checks additionally share one ``solve_cache`` across the
whole search (see :mod:`repro.criteria.engine`): linearisation problems
are memoised by semantic signature, successes included, where previously
only per-problem dead ends were remembered.

Cross-order branch cache
------------------------
The K1–K3 closure of a branch (``family + one update bit``) and its K4
acceptance are *independent of the total order*: only the final K5 test
consults the rank.  :meth:`CausalSearch._close` therefore separates the
rank-free part — worklist closure, K4, and the **K5 requirement mask**,
the set of directed update pairs ``(v, u)`` (encoded as bits ``v·m + u``
of one integer) that the closed family needs the total order to contain
— from the rank test, and ``_dfs`` memoises ``(family, event, update) →
(closed child, requirement mask)`` across total orders.  Under a new
order a previously-seen branch costs one dictionary hit plus one AND
against the order's *violation mask* (the pairs the order reverses),
instead of a full closure.

Conflict-driven cut
-------------------
A per-order DFS consults the total order only through (i) K5 requirement
masks, (ii) the branch pre-checks in ``_dfs`` and (iii) the sorted update
sequences of checked rows.  Recording every consulted directed pair
(again as a pair bitmask) while an order's DFS runs yields, when the DFS
dead-ends, a **failure signature**: any total order that agrees with
every recorded pair drives the DFS through the identical failing
execution — unit verdicts depend only on the ordered past sequences, K5
decisions only on the consulted comparisons — so it can be pruned
without being searched.  Sibling orders are tested against the learned
signatures with a single AND (``signature & violation-mask == 0`` ⇔ the
order agrees), which is the conflict-driven cut: the signature names
exactly the update pairs whose relative order caused the dead end.
Soundness is regression-tested by re-running pruned orders against the
un-cut reference engine in ``tests/test_search_perf.py``.

Witness-guided enumeration order
--------------------------------
On *satisfiable* instances the first total order worth trying is rarely
the lexicographic one: a semantically plausible order — one extending
the observed broadcast timestamps of the recorded execution — usually
IS a witness, because the replication algorithms deliver updates in
an order correlated with real time.  The search therefore derives a
**priority permutation** of the update positions as a pure function of
the instance: sort by ``(timestamp, event id)`` where the timestamp is
the event's recorded invocation time (``History.times``) when the
history was recorded from an execution, falling back to the event's
program-order depth (its index in its process — a round-robin virtual
timestamp) for histories without recorded times, with the event id
breaking ties.  The total-order space is then *re-indexed* through that
permutation (:func:`repro.util.orders.permute_relation`) and enumerated
lexicographically in priority space, so the greedy first order is the
timestamp-sorted legal extension and its neighbourhood comes next.
Everything downstream of the enumerator — K5 ranks, violation masks,
failure signatures, certificates — still speaks update *positions*:
each yielded priority sequence is translated back through the
permutation before use.

Because the permutation depends only on ``(history, adt, heuristic)``,
the enumeration order — and with it the deterministic certificate
tie-break ("first witnessing order in enumeration order") — remains a
fixed function of the instance.  The conflict cut only skips provably
failing orders, so the first witness is the same with or without it.
``order_heuristic="lex"`` selects the identity permutation, reproducing
the plain lexicographic enumeration (and its certificates) exactly.

Budgets are cumulative over the one enumeration: ``max_nodes`` bounds
the families explored across all total orders, ``max_total_orders`` the
orders enumerated (conflict-cut ones included), and
:data:`BRANCH_CACHE_MAX_INTS` the memory the branch cache holds.
Exhausting any raises :class:`SearchBudgetExceeded`; a witness found at
exactly the budget still counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.adt import AbstractDataType
from ..core.history import History
from ..util.bitset import bit_list, bits
from ..util.orders import LazyOrderEnumerator, permute_relation
from .engine import LinItem, LinearizationProblem


class SearchBudgetExceeded(RuntimeError):
    """The causal-order search exceeded its node budget.

    Raised instead of returning a wrong answer; enlarge ``max_nodes`` or
    shrink the history.  Litmus-scale histories stay far below the default
    budget.
    """


@dataclass
class CausalCertificate:
    """A checkable witness that a history satisfies WCC/CC/CCv.

    ``past`` maps each event to the tuple of update events in its causal
    past; ``update_order`` lists the pairs of the induced strict order on
    updates; ``total_update_order`` is the common total order of causal
    convergence (None for WCC/CC); ``linearizations`` maps each checked
    event (or ``(chain_index, event)`` for CC) to the linearisation of its
    causal past found by the engine.
    """

    mode: str
    update_eids: Tuple[int, ...]
    past: Dict[int, Tuple[int, ...]]
    update_order: Tuple[Tuple[int, int], ...]
    total_update_order: Optional[Tuple[int, ...]]
    linearizations: Dict[object, Tuple[int, ...]]


@dataclass
class SearchStats:
    """Work counters of one causal-order search.

    ``memo_hits`` counts checks answered from a memo (unit memo or the
    shared linearisation solve-cache) instead of running the engine;
    ``propagate_steps`` counts worklist pops of the incremental closure;
    ``orders_pruned`` counts total-order prefixes cut by lazy refinement
    before enumeration (CCv only); ``conflict_cuts`` counts whole total
    orders skipped because they agreed with a learned failure signature.

    ``orders_to_witness`` is a *position*, not a counter: the 1-based
    rank, in the deterministic enumeration order, of the total order
    that witnessed CCv (``None`` when no witness was found, or for
    WCC/CC).  It is what the witness-guided heuristic optimises.
    """

    families_explored: int = 0
    event_checks: int = 0
    lin_nodes: int = 0
    total_orders_tried: int = 0
    memo_hits: int = 0
    propagate_steps: int = 0
    orders_pruned: int = 0
    conflict_cuts: int = 0
    orders_to_witness: Optional[int] = None


#: learning stops at this many failure signatures (the scan per order is
#: one AND per signature)
_SIG_CAP = 512

_NO_ENTRY = object()

#: ints the cross-order branch cache may hold before the search gives up
#: (:class:`SearchBudgetExceeded`).  ``max_nodes`` does not bound it: each
#: entry is a copy of every event's row, so on a history of a few hundred
#: events the cache exhausts memory long before the node budget trips.
#: Peaks measured: ~9k on the default explore sweep, ~170k on the full
#: ``bench_search_scaling.py`` sweep.
BRANCH_CACHE_MAX_INTS = 4_000_000


#: valid ``order_heuristic`` values: ``"timestamps"`` enumerates total
#: update orders through the witness-guided priority permutation (the
#: default); ``"lex"`` is the PR 3 lexicographic escape hatch.
ORDER_HEURISTICS = ("timestamps", "lex")


class CausalSearch:
    """One search instance per (history, adt, mode).

    ``conflict_cut`` / ``cross_order_caching`` gate the failure-signature
    pruning and the rank-free branch cache; both default on and are only
    disabled by reference oracles (tests) and ablation benchmarks.
    ``order_heuristic`` picks the CCv total-order enumeration order (see
    the module docstring); either value yields the same verdict, but the
    certificate tie-break — and therefore the certificate — may differ
    between heuristics, while staying deterministic within one.
    """

    def __init__(
        self,
        history: History,
        adt: AbstractDataType,
        mode: str,
        max_nodes: int = 200_000,
        max_total_orders: int = 50_000,
        seed_semantic: bool = True,
        conflict_cut: bool = True,
        cross_order_caching: bool = True,
        order_heuristic: str = "timestamps",
    ) -> None:
        if mode not in ("WCC", "CC", "CCV"):
            raise ValueError(f"unknown mode {mode!r}")
        if order_heuristic not in ORDER_HEURISTICS:
            raise ValueError(
                f"unknown order heuristic {order_heuristic!r}; "
                f"known: {', '.join(ORDER_HEURISTICS)}"
            )
        self.order_heuristic = order_heuristic
        self._priority_cache: Optional[List[int]] = None
        self.history = history
        self.adt = adt
        self.mode = mode
        self.max_nodes = max_nodes
        self.max_total_orders = max_total_orders
        self.seed_semantic = seed_semantic
        # the cut's failure signatures are built from the consult
        # bookkeeping of the *cached* DFS path; the reference path keeps
        # no consults, so the cut must never run without the cache
        # (under-constrained signatures could prune a witnessing order)
        self._use_cache = cross_order_caching and mode == "CCV"
        self.conflict_cut = (
            conflict_cut and self._use_cache
        )
        #: when a test sets this to a list, every conflict-cut order is
        #: appended to it (the soundness harness re-runs them un-cut)
        self.cut_log: Optional[List[Tuple[int, ...]]] = None
        self.stats = SearchStats()

        self.n = len(history)
        self.updates: List[int] = [
            e.eid for e in history if adt.is_update(e.invocation)
        ]
        self.m = len(self.updates)
        self.upos = {eid: i for i, eid in enumerate(self.updates)}
        # update position per event (-1 for queries), and invocations of
        # the updates by position (hot in the CCv replay path)
        self._event_upos: List[int] = [
            self.upos.get(e, -1) for e in range(self.n)
        ]
        self._upd_invocations = [
            history.event(u).invocation for u in self.updates
        ]
        # update positions in the strict po-past of each event
        self.po_upast: List[int] = []
        for e in range(self.n):
            mask = 0
            rest = history.past_mask(e)
            while rest:
                low = rest & -rest
                rest ^= low
                pu = self.upos.get(low.bit_length() - 1)
                if pu is not None:
                    mask |= 1 << pu
            self.po_upast.append(mask)
        # strict po order among updates, as position masks (for CCv)
        self.upd_po = [self.po_upast[u] for u in self.updates]
        # program-order successors, precomputed once per search as lists
        # (K2 deltas are pushed along them; lists beat re-extracting bit
        # positions from the mask on every propagation step)
        self._succ_lists = [
            bit_list(history.succ_mask(e)) for e in range(self.n)
        ]
        # monotone over-approximation of the K3 dependents of each update
        # position: events whose past ever contained it (see module doc)
        self._dependents: List[int] = [0] * self.m
        # chains for CC mode
        self.chains = history.processes() if mode == "CC" else ()
        # (chain_idx, eid) units to check
        if mode == "CC":
            self.units: List[Tuple[int, int]] = [
                (ci, e) for ci, chain in enumerate(self.chains) for e in chain
            ]
        else:
            self.units = [(-1, e) for e in range(self.n)]
        # memoisation: constraint-key -> (ok, linearisation).  For CCv
        # the memo is one dict per event keyed by the ordered update
        # tuple of the past, and deliberately survives across total
        # orders; WCC/CC use composite keys in one shared dict.
        self._event_memo: Dict[object, Tuple[bool, Optional[Tuple[int, ...]]]] = {}
        self._ccv_memo: List[
            Dict[Tuple[int, ...], Tuple[bool, Optional[Tuple[int, ...]]]]
        ] = [{} for _ in range(self.n)] if mode == "CCV" else []
        # row-mask -> update positions, shared across total orders (the
        # rank only affects their sort order, not the membership)
        self._row_bits: Dict[int, List[int]] = {}
        # family -> consult mask of its failed subtree (0 outside CCv);
        # doubles as the visited set of one order's DFS
        self._visited: Dict[Tuple[int, ...], int] = {}
        self._total_rank: Optional[List[int]] = None  # CCv only
        # row-mask -> (rank-sorted update tuple, consistent-pair mask),
        # valid for one total order
        self._seq_cache: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        self._last_lin: Optional[Tuple[int, ...]] = None
        # directed update pairs as bits of one integer: pair (v, u) --
        # "v strictly before u" -- lives at bit v*m + u.  _pair[v][u] is
        # the singleton mask; _vmask is the current order's *violated*
        # pairs; _consulted accumulates the pairs the running DFS subtree
        # depended on (the raw material of failure signatures).
        m = self.m
        self._pair: List[List[int]] = [
            [1 << (v * m + u) if v != u else 0 for u in range(m)]
            for v in range(m)
        ]
        self._vmask = 0
        self._consulted = 0
        # cross-order branch cache: family -> {event*m+update ->
        # (closed child, K5 requirement mask) | None on K4 failure}
        self._branch_cache: Dict[
            Tuple[int, ...], Dict[int, Optional[Tuple[Tuple[int, ...], int]]]
        ] = {}
        self._branch_cache_ints = 0  # row copies held, in ints
        # shared caches (per search): semantic linearisation problems and
        # CCv replay prefixes (ordered update-position tuple -> state)
        self._solve_cache: Dict[object, Optional[Tuple[int, ...]]] = {}
        self._replay_states: Dict[Tuple[int, ...], object] = {
            (): adt.initial_state()
        }

    # ------------------------------------------------------------------
    # Witness-guided priority (CCv enumeration order)
    # ------------------------------------------------------------------
    def priority_permutation(self) -> List[int]:
        """The priority permutation of update positions: ``perm[k]`` is
        the update position enumerated at priority rank ``k``.

        A pure function of ``(history, heuristic)`` — it depends on the
        recorded timestamps (or the program-order depths standing in for
        them) and the event ids only — which is what keeps the
        enumeration (and the certificate tie-break it defines)
        deterministic.
        """
        cached = self._priority_cache
        if cached is not None:
            return cached
        if self.order_heuristic == "lex":
            perm = list(range(self.m))
        else:
            times = self.history.times
            past_mask = self.history.past_mask
            updates = self.updates

            def observed_key(pu: int) -> Tuple[float, int]:
                u = updates[pu]
                # recorded broadcast/invocation time when available;
                # otherwise po-depth (the event's index in its process),
                # a round-robin virtual timestamp; event id breaks ties
                t = times[u] if times is not None else past_mask(u).bit_count()
                return (t, u)

            perm = sorted(range(self.m), key=observed_key)
        self._priority_cache = perm
        return perm

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self) -> Optional[CausalCertificate]:
        """Decide membership: a certificate, or ``None`` when the history
        is not in the criterion; raises :class:`SearchBudgetExceeded`."""
        family0 = self._initial_family()
        if family0 is None:
            return None
        if self.mode == "CCV":
            return self._run_ccv(family0)
        # WCC/CC quantify over causal orders only: one family search
        result = self._dfs(tuple(family0))
        if result is None:
            return None
        return self._certificate(result, None)

    def _run_ccv(self, family0: List[int]) -> Optional[CausalCertificate]:
        """Enumerate the CCv total update orders, searching the causal
        pasts under each until one witnesses.

        The enumeration is lazy and refined by the update order induced
        by the initial family — it is contained in every witnessing
        family, so orders contradicting it cannot succeed.  K1+K3 closure
        makes the induced relation transitively closed and K4 makes it
        acyclic, so it is a valid refinement base.  The enumeration runs
        in *priority space*: the refinement base is re-indexed through
        :meth:`priority_permutation` and walked lexicographically there,
        so the first orders tried extend the observed timestamps; yielded
        sequences are translated back to update positions before anything
        downstream sees them.
        """
        base_family = tuple(family0)
        induced = [family0[u] for u in self.updates]
        perm = self.priority_permutation()
        enumerator = LazyOrderEnumerator(
            permute_relation(induced, perm),
            base=permute_relation(self.upd_po, perm),
            limit=self.max_total_orders,
        )
        m = self.m
        sigs: List[int] = []
        sig_seen: Set[int] = set()
        count = 0
        certificate: Optional[CausalCertificate] = None
        for priority_order in enumerator:
            # back from priority ranks to update positions: ranks, masks,
            # signatures and certificates all live in position space
            order = [perm[k] for k in priority_order]
            count += 1
            # rank + violation mask (all pairs this order reverses) in
            # one O(m) pass: when x arrives, `seen` holds everything
            # ranked before it, so pairs (x, y) with y in seen are the
            # violated "x before y" constraints
            rank = [0] * m
            seen = 0
            vmask = 0
            for r, pos in enumerate(order):
                rank[pos] = r
                vmask |= seen << (pos * m)
                seen |= 1 << pos
            cut = False
            for sig in sigs:
                if not (sig & vmask):
                    cut = True
                    break
            if cut:
                # the order agrees with a learned failure signature: its
                # DFS would replay a known dead end step for step
                self.stats.conflict_cuts += 1
                if self.cut_log is not None:
                    self.cut_log.append(tuple(order))
                continue
            self._total_rank = rank
            self._vmask = vmask
            # the family-visited memo is order-local (K5 changes which
            # children close); the unit memo and branch cache are
            # cross-order by construction
            self._visited = {}
            self._seq_cache.clear()
            self._consulted = 0
            result = self._dfs(base_family)
            if result is not None:
                self.stats.orders_to_witness = count
                certificate = self._certificate(result, order)
                break
            sig = self._consulted
            if (
                self.conflict_cut
                and sig
                and sig not in sig_seen
                and len(sigs) < _SIG_CAP
            ):
                sigs.append(sig)
                sig_seen.add(sig)
        self.stats.total_orders_tried = count
        self.stats.orders_pruned += enumerator.pruned
        if certificate is None and count >= self.max_total_orders:
            raise SearchBudgetExceeded(
                f"more than {self.max_total_orders} total update orders"
            )
        return certificate

    # ------------------------------------------------------------------
    # Family handling
    # ------------------------------------------------------------------
    def _semantic_seed_mask(self) -> List[int]:
        """Update-position masks of *mandatory* semantic explanations.

        An update that is the unique possible explanation of a query's
        output must belong to the query's causal past under every causal
        order, so seeding it skips failure-driven iterations.  Soundness:
        the seeded family is contained in every witnessing family, which
        is exactly the invariant the search's completeness argument needs.
        Falls back to empty seeds for ADTs without a dependency analysis.
        """
        cached = getattr(self, "_seed_cache", None)
        if cached is not None:
            return cached
        seeds = [0] * self.n
        try:
            from .dependencies import mandatory_edges

            for source, target in mandatory_edges(self.history, self.adt):
                if source in self.upos and source != target:
                    seeds[target] |= 1 << self.upos[source]
        except TypeError:
            pass  # unsupported ADT family: no seeding
        self._seed_cache = seeds
        return seeds

    def _initial_family(self) -> Optional[List[int]]:
        """The minimal closed family: program order plus semantic seeds.

        The pure-po family is K1–K4 closed by construction (po pasts are
        nested and acyclic), so only the seeds go through propagation.
        """
        family = list(self.po_upast)
        dependents = self._dependents
        for e in range(self.n):
            rest = family[e]
            while rest:
                low = rest & -rest
                rest ^= low
                dependents[low.bit_length() - 1] |= 1 << e
        if self.seed_semantic:
            for e, seed in enumerate(self._semantic_seed_mask()):
                if seed & ~family[e]:
                    if self._propagate(family, e, seed) is None:
                        return None
        return family

    def _close(
        self, family: List[int], event: int, delta: int
    ) -> Optional[int]:
        """Incrementally re-close ``family`` (in place) after adding
        ``delta`` bits to ``event``'s past; the rank-independent half of
        a branch.

        Returns the K5 *requirement mask* — the directed update pairs
        ``(v, u)`` (bit ``v·m + u``) that appear in the changed update
        rows, i.e. the containments a CCv total order must respect for
        this family — or ``None`` when K4 fails (a cycle, dead under
        every total order).  Precondition: ``family`` without the delta
        is K1–K3 closed (true for every family produced by this class).
        Because no part of this consults the total order, the result is
        cacheable across orders (see ``_dfs``).
        """
        updates = self.updates
        succ_lists = self._succ_lists
        dependents = self._dependents
        event_upos = self._event_upos
        changed_updates = 0
        steps = 0
        work: List[Tuple[int, int]] = [(event, delta)]
        while work:
            x, new = work.pop()
            new &= ~family[x]
            if not new:
                continue
            steps += 1
            row_x = family[x] | new
            family[x] = row_x
            px = event_upos[x]
            if px >= 0:
                changed_updates |= 1 << px
            x_bit = 1 << x
            # K3 forward: close the new bits under the update rows they
            # name, registering x as a dependent of each
            ext = 0
            rest = new
            while rest:
                low = rest & -rest
                rest ^= low
                pu = low.bit_length() - 1
                dependents[pu] |= x_bit
                ext |= family[updates[pu]]
            if ext & ~row_x:
                work.append((x, ext))
            # K2: the delta flows to every program-order successor
            for s in succ_lists[x]:
                if new & ~family[s]:
                    work.append((s, new))
            # K3 backward: events whose past contains x (an update) gain
            # the delta; the dependent mask over-approximates, so re-test
            if px >= 0:
                rest = dependents[px]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    d = low.bit_length() - 1
                    if (family[d] >> px) & 1 and new & ~family[d]:
                        work.append((d, new))
        self.stats.propagate_steps += steps
        # K4 needs re-checking only where update rows changed; the same
        # sweep collects the K5 requirements of those rows
        pair = self._pair
        required = 0
        rest_changed = changed_updates
        while rest_changed:
            low = rest_changed & -rest_changed
            rest_changed ^= low
            pu = low.bit_length() - 1
            row = family[updates[pu]]
            if (row >> pu) & 1:
                return None  # K4 irreflexivity
            rest = row
            while rest:
                low2 = rest & -rest
                rest ^= low2
                pv = low2.bit_length() - 1
                if (family[updates[pv]] >> pu) & 1:
                    return None  # K4 antisymmetry
                required |= pair[pv][pu]
        return required

    def _propagate(
        self, family: List[int], event: int, delta: int
    ) -> Optional[List[int]]:
        """Incrementally re-close ``family`` after adding ``delta`` bits to
        ``event``'s past; ``None`` when K4/K5 fails.

        Precondition: ``family`` without the delta is K1–K3 closed (true
        for every family produced by this class).  Mutates ``family`` in
        place — callers pass a fresh copy per branch.  ``_propagate_reference``
        below is the executable specification this is property-tested
        against.
        """
        required = self._close(family, event, delta)
        if required is None:
            return None
        rank = self._total_rank
        if rank is not None and required:
            m = self.m
            rest = required
            while rest:
                low = rest & -rest
                rest ^= low
                p = low.bit_length() - 1
                if rank[p // m] > rank[p % m]:
                    return None  # K5 total-order containment
        return family

    def _propagate_reference(self, family: List[int]) -> Optional[List[int]]:
        """Whole-family K1–K5 fixpoint — the executable specification that
        :meth:`_propagate` is property-tested against (and a debugging
        fallback); not used by the search itself."""
        history = self.history
        changed = True
        while changed:
            changed = False
            for e in range(self.n):
                mask = family[e]
                # K2: inherit the past of every strict po-predecessor
                for p in bits(history.past_mask(e)):
                    mask |= family[p]
                # K1 is part of the seed and preserved; K3: close under the
                # induced update order (the update rows themselves)
                extra = 0
                for pu in bits(mask):
                    extra |= family[self.updates[pu]]
                mask |= extra
                if mask != family[e]:
                    family[e] = mask
                    changed = True
        # K4: irreflexivity + antisymmetry of the induced update order
        for pu, u in enumerate(self.updates):
            row = family[u]
            if row & (1 << pu):
                return None
            for pv in bits(row):
                if family[self.updates[pv]] & (1 << pu):
                    return None
        # K5: containment in the total order (CCv)
        if self._total_rank is not None:
            rank = self._total_rank
            for pu, u in enumerate(self.updates):
                for pv in bits(family[u]):
                    if rank[pv] > rank[pu]:
                        return None
        return family

    def _dfs(self, family: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        visited = self._visited
        seen = visited.get(family)
        if seen is not None:
            # already dead this order; replaying its consults keeps the
            # enclosing subtree's failure signature sound across diamonds
            self._consulted |= seen
            return None
        self.stats.families_explored += 1
        if self.stats.families_explored > self.max_nodes:
            raise SearchBudgetExceeded(
                f"explored more than {self.max_nodes} causal-past families"
            )
        # consults are accumulated per subtree: save the enclosing
        # accumulator, collect this subtree's, and fold back on failure
        saved = self._consulted
        self._consulted = 0
        e = -1
        if self.mode == "CCV":
            # inlined unit scan (this is the hottest loop of the CCv
            # engine): sequence lookup + per-event memo, method calls
            # only on cache misses
            seq_cache = self._seq_cache
            ccv_memo = self._ccv_memo
            stats = self.stats
            for unit_e in range(self.n):
                row_e = family[unit_e]
                entry = seq_cache.get(row_e)
                if entry is not None:
                    self._consulted |= entry[1]
                    sequence = entry[0]
                else:
                    sequence = self._ccv_sequence(row_e)
                cached = ccv_memo[unit_e].get(sequence)
                if cached is not None:
                    stats.memo_hits += 1
                    if cached[0]:
                        continue
                    e = unit_e
                    break
                stats.event_checks += 1
                ok = self._run_check_ccv(unit_e, sequence)
                ccv_memo[unit_e][sequence] = (
                    ok,
                    self._last_lin if ok else None,
                )
                if not ok:
                    e = unit_e
                    break
        else:
            for unit in self.units:
                if not self._check_unit(unit, family):
                    e = unit[1]
                    break
        if e < 0:
            return family
        # branch: add one update to the failing event's past
        row = family[e]
        rank = self._total_rank
        updates = self.updates
        m = self.m
        pe = self._event_upos[e]
        rank_e = rank[pe] if (rank is not None and pe >= 0) else None
        if self._use_cache:
            pair = self._pair
            vmask = self._vmask
            bcache = self._branch_cache.get(family)
            if bcache is None:
                bcache = self._branch_cache[family] = {}
            base_key = e * m
            for pu in range(m):
                if (row >> pu) & 1 or updates[pu] == e:
                    continue
                if pe >= 0:
                    # adding u ⊏ e for updates: refute K4/K5 before paying
                    # for the family copy and closure
                    if (family[updates[pu]] >> pe) & 1:
                        continue  # u already above e: immediate cycle
                    if rank_e is not None:
                        if rank[pu] > rank_e:
                            # skipped *because* rank(e) < rank(u)
                            self._consulted |= pair[pe][pu]
                            continue
                        self._consulted |= pair[pu][pe]
                entry = bcache.get(base_key + pu, _NO_ENTRY)
                if entry is _NO_ENTRY:
                    child = list(family)
                    required = self._close(child, e, 1 << pu)
                    entry = None
                    if required is not None:
                        entry = (tuple(child), required)
                        self._branch_cache_ints += self.n
                        if self._branch_cache_ints > BRANCH_CACHE_MAX_INTS:
                            raise SearchBudgetExceeded(
                                "branch cache holds more than "
                                f"{BRANCH_CACHE_MAX_INTS} ints"
                            )
                    bcache[base_key + pu] = entry
                if entry is None:
                    continue  # K4 cycle: dead under every total order
                child_t, required = entry
                violated = required & vmask
                if violated:
                    # rejected because the order reverses these required
                    # pairs; record them in the direction that held
                    rest = violated
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        p = low.bit_length() - 1
                        self._consulted |= pair[p % m][p // m]
                    continue
                self._consulted |= required
                child_seen = visited.get(child_t)
                if child_seen is not None:
                    # dead this order already (diamond): replay consults
                    # without re-entering the subtree
                    self._consulted |= child_seen
                    continue
                result = self._dfs(child_t)
                if result is not None:
                    return result
        else:
            # reference path (oracles/ablation): fresh closure per branch,
            # no consult bookkeeping
            for pu in range(m):
                if (row >> pu) & 1 or updates[pu] == e:
                    continue
                if pe >= 0:
                    if (family[updates[pu]] >> pe) & 1:
                        continue
                    if rank_e is not None and rank[pu] > rank_e:
                        continue
                child = list(family)
                closed = self._propagate(child, e, 1 << pu)
                if closed is None:
                    continue
                result = self._dfs(tuple(closed))
                if result is not None:
                    return result
        sig = self._consulted
        visited[family] = sig
        self._consulted = saved | sig
        return None

    # ------------------------------------------------------------------
    # Per-event checks
    # ------------------------------------------------------------------
    def _ccv_sequence(self, row: int) -> Tuple[int, ...]:
        """Update positions of ``row`` sorted by the current total order
        (cached per order: the same few row masks recur across the
        families of one order's search).

        A CCv unit verdict depends on the order only through this
        sequence, so the cache also carries the row's *consistent-pair
        mask* — every directed pair the sequence embodies — and each use
        folds it into the running consult accumulator: any order agreeing
        on those pairs sorts the row identically.
        """
        entry = self._seq_cache.get(row)
        if entry is None:
            rank = self._total_rank
            assert rank is not None
            positions = self._row_bits.get(row)
            if positions is None:
                positions = self._row_bits[row] = bit_list(row)
            ordered = sorted(positions, key=rank.__getitem__)
            mask = 0
            if self.conflict_cut:
                m = self.m
                seen = 0
                for x in reversed(ordered):
                    mask |= seen << (x * m)
                    seen |= 1 << x
            entry = (tuple(ordered), mask)
            self._seq_cache[row] = entry
        self._consulted |= entry[1]
        return entry[0]

    def _unit_key(self, unit: Tuple[int, int], family: Sequence[int]) -> object:
        chain_idx, e = unit
        row = family[e]
        if self.mode == "CC":
            prefix = self._prefix_of(unit)
            rows_sig = tuple(family[q] for q in prefix)
            return (chain_idx, e, row, rows_sig, self._order_sig(row, family))
        assert self.mode == "WCC"  # CCv memoises per event, keyed by sequence
        return (e, row, self._order_sig(row, family))

    def _prefix_of(self, unit: Tuple[int, int]) -> Tuple[int, ...]:
        chain_idx, e = unit
        if self.mode != "CC":
            return ()
        chain = self.chains[chain_idx]
        return chain[: chain.index(e)]

    def _check_unit(self, unit: Tuple[int, int], family: Sequence[int]) -> bool:
        if self.mode == "CCV":
            # hot path: per-event dicts keyed by the ordered sequence
            # alone (no composite-key tuple per check)
            e = unit[1]
            sequence = self._ccv_sequence(family[e])
            memo = self._ccv_memo[e]
            cached = memo.get(sequence)
            if cached is not None:
                self.stats.memo_hits += 1
                return cached[0]
            self.stats.event_checks += 1
            ok = self._run_check_ccv(e, sequence)
            memo[sequence] = (ok, self._last_lin if ok else None)
            return ok
        memo_key = self._unit_key(unit, family)
        cached = self._event_memo.get(memo_key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached[0]
        self.stats.event_checks += 1
        ok = self._run_check(unit[1], self._prefix_of(unit), family)
        self._event_memo[memo_key] = (ok, self._last_lin if ok else None)
        return ok

    def _order_sig(self, row: int, family: Sequence[int]) -> Tuple[int, ...]:
        """Induced update order restricted to ``row`` (for memo keys)."""
        updates = self.updates
        out = []
        rest = row
        while rest:
            low = rest & -rest
            rest ^= low
            out.append(family[updates[low.bit_length() - 1]] & row)
        return tuple(out)

    def _replay_state(self, sequence: Tuple[int, ...]) -> object:
        """State after replaying the updates of ``sequence`` in order,
        through the per-search prefix cache (each distinct prefix is
        replayed at most once per search, across all total orders and
        families)."""
        cache = self._replay_states
        i = len(sequence)
        while i and sequence[:i] not in cache:
            i -= 1
        state = cache[sequence[:i]]
        transition = self.adt.transition
        invocations = self._upd_invocations
        for j in range(i, len(sequence)):
            state = transition(state, invocations[sequence[j]])
            cache[sequence[: j + 1]] = state
        return state

    def _run_check_ccv(self, e: int, sequence: Tuple[int, ...]) -> bool:
        """CCv unit check: the total order leaves a unique linearisation
        of the causal past, so the check is one cached replay plus an
        output comparison (Def. 12)."""
        event = self.history.event(e)
        state = self._replay_state(sequence)
        if not event.hidden:
            if self.adt.output(state, event.invocation) != event.output:
                return False
        self._last_lin = tuple(self.updates[pu] for pu in sequence) + (e,)
        return True

    def _run_check(self, e: int, prefix: Sequence[int], family: Sequence[int]) -> bool:
        history = self.history
        adt = self.adt
        event = history.event(e)
        row = family[e]

        # WCC / CC: memoised linearisation search over the causal past
        kept: List[int] = [self.updates[pu] for pu in bit_list(row)]
        visible: Set[int] = {e}
        if self.mode == "CC":
            for q in prefix:
                visible.add(q)
                if q not in self.upos:  # updates of the prefix are already kept
                    kept.append(q)
        kept = [x for x in kept if x != e]
        kept.append(e)
        index = {eid: i for i, eid in enumerate(kept)}
        items = []
        for eid in kept:
            ev = history.event(eid)
            show = eid in visible and not ev.hidden
            items.append(LinItem(eid, ev.invocation, ev.output, check=show))
        pred_masks = []
        e_bit_all = (1 << len(kept)) - 1
        for i, eid in enumerate(kept):
            if eid == e:
                # e is the maximum of its causal past
                pred_masks.append(e_bit_all & ~(1 << i))
                continue
            mask = 0
            # program order among kept events
            rest = history.past_mask(eid)
            while rest:
                low = rest & -rest
                rest ^= low
                j = index.get(low.bit_length() - 1)
                if j is not None:
                    mask |= 1 << j
            # induced causal edges: u -> eid for updates u in past[eid]
            rest = family[eid]
            while rest:
                low = rest & -rest
                rest ^= low
                j = index.get(self.updates[low.bit_length() - 1])
                if j is not None:
                    mask |= 1 << j
            pred_masks.append(mask)
        problem = LinearizationProblem(
            adt, items, pred_masks, solve_cache=self._solve_cache
        )
        positions = problem.solve_positions()
        if problem.cache_hit:
            self.stats.memo_hits += 1
            self.stats.event_checks -= 1  # answered without running the engine
        self.stats.lin_nodes += problem.nodes_visited
        if positions is None:
            return False
        self._last_lin = tuple(kept[pos] for pos in positions)
        return True

    # ------------------------------------------------------------------
    def _certificate(
        self, family: Sequence[int], order: Optional[List[int]]
    ) -> CausalCertificate:
        past = {
            e: tuple(self.updates[pu] for pu in bits(family[e]))
            for e in range(self.n)
        }
        pairs = []
        for pu, u in enumerate(self.updates):
            for pv in bits(family[u]):
                pairs.append((self.updates[pv], u))
        total = (
            tuple(self.updates[pos] for pos in order) if order is not None else None
        )
        # collect the linearisations found for every unit under the final
        # family (each unit was just checked, so its memo entry exists)
        lins: Dict[object, Tuple[int, ...]] = {}
        for unit in self.units:
            chain_idx, e = unit
            if self.mode == "CCV":
                cached = self._ccv_memo[e].get(self._ccv_sequence(family[e]))
            else:
                cached = self._event_memo.get(self._unit_key(unit, family))
            if cached and cached[1] is not None:
                lins[(chain_idx, e) if self.mode == "CC" else e] = cached[1]
        return CausalCertificate(
            mode=self.mode,
            update_eids=tuple(self.updates),
            past=past,
            update_order=tuple(sorted(pairs)),
            total_update_order=total,
            linearizations=lins,
        )


def search_causal_order(
    history: History,
    adt: AbstractDataType,
    mode: str,
    max_nodes: int = 200_000,
) -> Tuple[Optional[CausalCertificate], SearchStats]:
    """Decide WCC/CC/CCv membership; returns (certificate-or-None, stats)."""
    search = CausalSearch(history, adt, mode.upper(), max_nodes=max_nodes)
    certificate = search.run()
    return certificate, search.stats
