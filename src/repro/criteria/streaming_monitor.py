"""Streaming bad-pattern monitor: polynomial-time CC/CCv verdicts online.

The enumeration search (:mod:`repro.criteria.causal_search`) decides
histories of a few dozen events by exploring total orders.  Bouajjani,
Enea, Guerraoui & Hamza, *On Verifying Causal Consistency* (POPL'17,
arXiv 1611.00580) show that for **differentiated** histories — no value
written twice to the same variable, no write of the initial value —
violations of the causal criteria reduce to a fixed catalogue of **bad
patterns** over the *minimal* causal order ``co = (po ∪ rf)⁺``, each
checkable in polynomial time.  This module generalises that catalogue
from read/write registers to the paper's window streams ``W_k`` (a read
returns the ``k`` most recent writes, oldest first, padded with
``INITIAL_VALUE``)
and evaluates it *incrementally*: operations are consumed one at a time,
either live from a :class:`repro.runtime.recorder.HistoryRecorder`
subscription or by replaying a finished :class:`History`, and the first
violating pattern is flagged with a minimal witness the moment it
closes.

The catalogue is :data:`PATTERNS` (the ``W_k`` generalisation; register
patterns are the ``k = 1`` case): each pattern, the criteria it refutes
and what closes it.  Two derivations take more than a line.  A causally
visible write outside a full window must be ordered before its oldest
member; per process every such write is po-, hence co-before that
process's last one, its *generator*, so a read proposes only its
generators (the rest follow through ``co``): WriteCORead closes iff some
generator is after a member, and the edges a read proposes are a
function of its causal past and window, so every feed that keeps program
order yields the same closure.  CCv needs one arbitration order for all
reads, CC one linearisation per process ``p`` explaining all of ``p``'s
reads (the Fig. 3a litmus is CCv but not CC): the same edges go to one
conflict graph for CCv (CyclicCF) and to ``p``'s own ``D_p`` for CC,
where WriteHBInitRead and CyclicHB evaluate in ``hb_p = (co ∪ D_p)⁺``.

Soundness: every pattern in the catalogue is derived from constraints that any
causal order / arbitration must satisfy, so a pattern implies the
criterion fails.  Completeness (no pattern ⇒ criterion holds) follows by
constructing the witness orders from ``co`` plus the recorded edges —
cross-validated against the enumeration search in
``tests/test_streaming_monitor.py`` and the CI ``monitor-smoke`` job.

Complexity: per operation amortised ``O(n·log ops + patterns)`` for the
per-read/per-event criteria (``n`` = processes) via flat integer vector
clocks (``n`` entries per op; a merge is a plain join, ``O(n)``) and
per-stream rows of sorted per-process write indices; the CC machinery
re-checks reads only when their happens-before past actually grows and
is budget-capped (verdict ``None`` rather than a wrong answer on
pathological inputs).

Storage: the columns a read indexes or bisects — the clocks, each op's
index in its process, each write's op and the write indices — are
lists, because reading a value above 256 out of an ``array`` allocates
a new int on every lookup, and a read does dozens.  A list slot costs 8
bytes where an ``array('i')`` slot costs 4, and most clock entries point
at an int already held elsewhere (a copied clock shares its
predecessor's, and an op's own entry is the int its process counter
holds).  The columns only writes, rebuilds or out-of-order feeds touch
(process, write ordinal, program successor, rf edges, checked reads,
labels) stay ``array('i')``.  The bytes the lists add are paid back by
keying writes per stream: ``_writer[key][value]`` and
``_wl[key][process]`` store no tuple per write and build none per lookup.

Cycles (``CyclicCF``, ``CyclicHB``) are found by keeping, per conflict
graph, a topological order of ``co`` ∪ its edges
(:class:`repro.util.dynamic_order.DynamicOrder`, Pearce & Kelly): in
arrival order an edge is one label compare.  ``co`` is never
materialised: the searches step to its generators, which the clocks give
on demand (:meth:`StreamingMonitor._co_succs`, ``_co_preds``).  An
out-of-order feed that grows the past of a labelled write re-sorts each
open graph once before the next edge is placed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..adts.window_stream import INITIAL_VALUE
from ..core.history import History
from ..core.operations import HIDDEN, Invocation
from ..util.dynamic_order import DynamicOrder

__all__ = [
    "MonitorViolation",
    "MonitorVerdict",
    "StreamingMonitor",
    "monitor_for_adt",
    "replay_history",
    "PATTERNS",
    "SUPPORTED_CRITERIA",
]

#: criteria the monitor can decide
SUPPORTED_CRITERIA = ("WCC", "CC", "CCV")


class BadPattern(NamedTuple):
    criteria: Tuple[str, ...]  # the criteria a closed pattern refutes
    definition: str


_ALL = SUPPORTED_CRITERIA
#: the bad-pattern catalogue: what each pattern refutes, and what closes it
PATTERNS: Dict[str, BadPattern] = {
    "ThinAirRead": BadPattern(_ALL, "a read returns a value never written"),
    "MalformedWindow": BadPattern(
        _ALL, "a window is not k slots, has a default after a value or a write twice"
    ),
    "CyclicCO": BadPattern(_ALL, "po ∪ rf is cyclic: a read is co-before its writer"),
    "WriteCOInitRead": BadPattern(
        _ALL, "a window shows default slots, yet more writes are co-before it"
    ),
    "WindowOrderCO": BadPattern(_ALL, "an older slot's write is co-after a newer's"),
    "WriteCORead": BadPattern(_ALL, "a visible non-member is co-after a member"),
    "CyclicCF": BadPattern(("CCV",), "all reads' arbitration edges close a co-cycle"),
    "WriteHBInitRead": BadPattern(
        ("CC",), "WriteCOInitRead in hb_p = (co ∪ D_p)⁺ of the reading process p"
    ),
    "CyclicHB": BadPattern(("CC",), "one process p's read edges D_p close a co-cycle"),
}

_BUDGET_SPENT = "propagation budget exceeded"


@dataclass(frozen=True)
class MonitorViolation:
    """A closed bad pattern: the first one is the monitor's witness."""

    pattern: str
    criteria: Tuple[str, ...]  # criteria this pattern violates
    index: int  # 0-based stream position at which the pattern closed
    witness: Tuple[Tuple[int, int], ...]  # (pid, op-index-within-pid) ops
    detail: str = ""

    def as_failure(self) -> Tuple[str, Dict[str, Any]]:
        """The shared (kind, detail) failure shape (chaos / explore)."""
        return (
            f"bad-pattern:{self.pattern}",
            {
                "pattern": self.pattern,
                "criteria": list(self.criteria),
                "index": self.index,
                "witness": [list(op) for op in self.witness],
                "detail": self.detail,
            },
        )


@dataclass
class MonitorVerdict:
    """Per-criterion outcome; ``ok is None`` means inconclusive."""

    criterion: str
    ok: Optional[bool]
    violation: Optional[MonitorViolation] = None
    reason: str = ""
    stats: Dict[str, int] = field(default_factory=dict)

    def conclusive(self) -> bool:
        return self.ok is not None


@dataclass(slots=True)
class _Graphs:
    """The conflict graphs of one criterion, what a cycle in one refutes,
    and the edge budget they share: CCv's one arbitration graph, which
    every read constrains, or CC's ``D_q``, one per process ``q``."""

    criterion: str
    pattern: str
    orders: List[DynamicOrder]
    budget: int  # edges recorded over all of them
    overflow: str  # the inconclusive reason past it
    cycle: str  # the violation's detail, given q, a and b
    edges: int = 0


class StreamingMonitor:
    """Incremental bad-pattern checker over a stream of operations.

    ``feed`` one operation at a time (per-process program order must be
    respected; interleaving across processes is free), then ``finalize``
    for the verdicts.  ``subscriber()`` adapts the monitor to the
    recorder's zero-copy subscription hook.

    A tuple a read returns is its window of ``k`` slots, so a monitor
    built directly checks window streams only.  Build one for a register
    or memory (whose one value may itself be a tuple) with
    :func:`monitor_for_adt`, which reads the shape off the ADT.
    """

    #: the edges CC's and CCv's conflict graphs may record, and the reads
    #: CC may re-check, before the criterion is left inconclusive
    CC_BUDGET = 200_000
    CF_BUDGET = 2_000_000

    def __init__(
        self,
        n: int,
        *,
        streams: int = 1,
        k: int = 1,
        criteria: Sequence[str] = SUPPORTED_CRITERIA,
        propagation_budget: int = 4_000_000,
        _window_reads: bool = True,
    ) -> None:
        """``_window_reads`` is set by :func:`monitor_for_adt` only:
        False when a read returns one value, not a window."""
        if n <= 0:
            raise ValueError("n must be positive")
        if k < 1 or (streams < 1 if isinstance(streams, int) else not streams):
            raise ValueError("need at least one stream of size k >= 1")
        bad = [c for c in criteria if c not in SUPPORTED_CRITERIA]
        if bad:
            raise ValueError(
                f"unsupported monitor criteria {bad}; supported: "
                f"{', '.join(SUPPORTED_CRITERIA)}"
            )
        self.n = n
        self.streams = streams
        self.k = k
        self.criteria = tuple(dict.fromkeys(criteria))
        self._window_reads = _window_reads
        self.propagation_budget = propagation_budget

        nn = n
        # per-op flat state, indexed by global arrival order g
        self._g_pid = array("i")
        self._g_lidx: List[int] = []
        self._g_w = array("i")  # write ordinal, -1 for reads
        self._po_succ = array("i")
        self._vc: List[int] = []  # flat, nn entries per op: co-past counts
        self._plen = [0] * nn  # ops fed per process
        self._proc_last = [-1] * nn  # g of the latest op per process

        # writes, indexed by write ordinal u
        self._u_g: List[int] = []
        self._u_key: List[Any] = []
        self._u_val: List[Any] = []
        self._writer: Dict[Any, Dict[Any, int]] = {}  # key -> value -> u
        # key -> per process, None before its first write to the stream:
        # (lidxs, write ordinals), both ascending
        self._wl: Dict[Any, List[Optional[Tuple[List[int], List[int]]]]] = {}
        self._pw: List[Tuple[List[int], List[int]]] = [
            ([], []) for _ in range(nn)
        ]

        # read-from edges (flat; an index is built lazily if propagation
        # across rf ever becomes necessary, i.e. on out-of-order feeds)
        self._rf_w = array("i")
        self._rf_r = array("i")
        self._rf_index: Optional[Dict[int, List[int]]] = None

        # reads parked until their window writers exist
        self._pending: Dict[Tuple[int, Any], List[int]] = {}
        self._parked: Dict[int, List[Any]] = {}  # g -> [key, out, missing]

        # checked reads, for re-checking when a late rf edge grows their
        # causal past (only happens on out-of-order feeds)
        self._r_g = array("i")
        self._r_key: List[Any] = []
        self._r_slots: List[Tuple[Any, ...]] = []
        self._r_index: Optional[Dict[int, int]] = None
        self._regrow: set = set()  # read gs whose checks must re-run
        self._co_grew = False  # some existing op's past grew: audit edges

        # conflict graphs, none for a criterion not checked: CCv's
        # arbitration constraints, CC's per-process happens-before ones
        self._cf = _Graphs(
            "CCV",
            "CyclicCF",
            [self._new_order()] if "CCV" in self.criteria else [],
            self.CF_BUDGET,
            "conflict-edge budget exceeded",
            "no total arbitration order: writes {a!r} and {b!r} are "
            "constrained in both directions",
        )
        self._hb = _Graphs(
            "CC",
            "CyclicHB",
            [self._new_order(log=True) for _ in range(nn)]
            if "CC" in self.criteria
            else [],
            self.CC_BUDGET,
            "happens-before edge budget exceeded",
            "no linearisation for process {q}: writes {a!r} and {b!r} "
            "are required in both orders",
        )
        self._orders = self._cf.orders + self._hb.orders
        self._order_visits = 0  # writes their searches expanded, together
        # CC's read records per process: [g, key, window-u-tuple, s, hb-cov]
        self._q_reads: List[List[List[Any]]] = [[] for _ in range(nn)]
        self._hbrec_of: Dict[int, List[Any]] = {}

        # verdict state
        self._violations: Dict[str, MonitorViolation] = {}
        self._inconclusive: Dict[str, str] = {}
        self._nondiff: Optional[str] = None
        self._decided = False  # no criterion is still open
        self._closed = False  # finalize() ran: no more feeds
        self._diff_checked = False  # replay pre-scans differentiation

        # stats
        self.ops_seen = 0
        self.reads_checked = 0
        self.writes_seen = 0
        self.rf_edges = 0
        self.rf_merges_skipped = 0  # window writers already in the past
        self.patterns_checked = 0
        self.propagate_steps = 0
        self.cc_rechecks = 0
        self.pending_peak = 0

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def subscriber(self) -> Callable[[Any], None]:
        """A callback for :meth:`HistoryRecorder.subscribe`: consumes the
        :class:`OpRecord` the recorder hands its subscribers per call."""

        feed = self.feed

        def on_record(rec: Any) -> None:
            feed(rec.pid, rec.invocation, rec.output)

        return on_record

    def feed(
        self, pid: int, invocation: Invocation, output: Any
    ) -> Optional[MonitorViolation]:
        """Consume one operation; returns a violation iff one *closed* now.

        Operations of one process must arrive in program order; streams
        from different processes may interleave arbitrarily (a read whose
        writer has not arrived yet is parked and checked on arrival).

        A mid-stream violation is provisional: the bad-pattern catalogue
        is only sound for differentiated streams, so a duplicate value
        arriving *later* retracts every recorded violation —
        :meth:`finalize` then reports all criteria inconclusive.

        An operation the monitor's ADT refuses — a process outside
        ``0..n-1``, a stream it lacks — raises ``ValueError`` before any
        state changes, and so does every feed after :meth:`finalize`.
        """
        if not 0 <= pid < self.n:
            raise ValueError(f"pid {pid!r} is not a process of 0..{self.n - 1}")
        if self._decided:
            if self._closed:
                raise ValueError("feed after finalize(): the stream is closed")
            # full bookkeeping stops once every criterion is decided, but
            # the differentiation screen must see the remaining writes:
            # an ok=False verdict is retracted if the stream turns out
            # non-differentiated (rf inference, hence every pattern,
            # assumed unique values)
            if (
                self._nondiff is None
                and not self._diff_checked
                and invocation.method == "w"
            ):
                args = invocation.args
                key, value = args if len(args) == 2 else (0, args[0])
                values = self._writer.get(key)
                if values is None:
                    values = self._writer[key] = self._new_stream(key)
                if value == INITIAL_VALUE:
                    self._mark_nondiff(
                        f"write of the default value {value!r} to stream {key}"
                    )
                elif value in values:
                    self._mark_nondiff(
                        f"value {value!r} written twice to stream {key}"
                    )
                else:
                    # ordinal -1: only membership matters from here on
                    values[value] = -1
            self.ops_seen += 1
            return None
        method = invocation.method
        args = invocation.args
        if method == "w":
            if len(args) == 2:
                key, value = args
            else:
                key, value = 0, args[0]
            return self._feed_write(pid, key, value)
        if method == "r":
            key = args[0] if args else 0
            if output is HIDDEN:
                self._new_op(pid)  # a crashed read constrains nothing
                return None
            if self._window_reads and isinstance(output, tuple):
                return self._feed_read(pid, key, output)
            return self._feed_read(pid, key, (output,))
        # non-window methods (enq/push/add/inc/...) are out of scope
        self.ops_seen += 1
        self._mark_all_inconclusive(f"unsupported method {method!r}")
        return None

    # -- op bookkeeping -------------------------------------------------
    def _new_stream(self, key: Any) -> Dict[Any, int]:
        """The value map of a stream seen for the first time, once ``key``
        is checked to name one of the ADT's streams — refused as the ADT
        refuses it, so no verdict is given on a history the ADT rejects."""
        streams = self.streams
        if isinstance(streams, int):
            if not 0 <= key < streams:
                raise ValueError(f"stream index {key} out of [0, {streams})")
        elif key not in streams:
            raise ValueError(f"unknown register {key!r}")
        return {}

    def _new_op(self, pid: int) -> int:
        self.ops_seen += 1
        nn = self.n
        g = len(self._g_pid)
        lidx = self._plen[pid]
        # one int for the process counter and the op's own clock entry
        fed = self._plen[pid] = lidx + 1
        self._g_pid.append(pid)
        self._g_lidx.append(lidx)
        self._g_w.append(-1)
        self._po_succ.append(-1)
        pred = self._proc_last[pid]
        self._proc_last[pid] = g
        vc = self._vc
        if pred < 0:
            vc.extend([0] * nn)
        else:
            self._po_succ[pred] = g
            vc += vc[pred * nn : (pred + 1) * nn]
        vc[g * nn + pid] = fed
        return g

    def _feed_write(
        self, pid: int, key: Any, value: Any
    ) -> Optional[MonitorViolation]:
        values = self._writer.get(key)
        if values is None:
            values = self._writer[key] = self._new_stream(key)
        g = self._new_op(pid)
        self.writes_seen += 1
        u = len(self._u_g)
        self._g_w[g] = u
        self._u_g.append(g)
        self._u_key.append(key)
        self._u_val.append(value)
        # its causal past has arrived and nothing follows it yet: last
        for order in self._orders:
            order.add()
        lidx = self._g_lidx[g]
        rows = self._wl.get(key)
        if rows is None:
            rows = self._wl[key] = [None] * self.n
        row = rows[pid]
        if row is None:
            row = rows[pid] = ([], [])
        row[0].append(lidx)
        row[1].append(u)
        pw = self._pw[pid]
        pw[0].append(lidx)
        pw[1].append(u)
        if not self._diff_checked:
            if value == INITIAL_VALUE:
                self._mark_nondiff(
                    f"write of the default value {value!r} to stream {key}"
                )
            elif value in values:
                self._mark_nondiff(
                    f"value {value!r} written twice to stream {key}"
                )
        values.setdefault(value, u)
        waiters = self._pending.pop((key, value), None) if self._pending else None
        violation = None
        if waiters:
            for rg in waiters:
                parked = self._parked.get(rg)
                if parked is None:
                    continue
                parked[2] -= 1
                if parked[2] == 0:
                    del self._parked[rg]
                    v = self._check_read(rg, parked[0], parked[1])
                    violation = violation or v
        if self._regrow or self._co_grew:
            v = self._drain_regrow()
            violation = violation or v
        return violation

    def _feed_read(
        self, pid: int, key: int, window: Tuple[Any, ...]
    ) -> Optional[MonitorViolation]:
        values = self._writer.get(key)
        if values is None:
            values = self._writer[key] = self._new_stream(key)
        g = self._new_op(pid)
        if self._nondiff is not None:
            return None  # reads are ambiguous from here on
        if len(window) != self.k:
            return self._record(
                "MalformedWindow",
                (g,),
                f"window of {len(window)} slots, not {self.k}: {window!r}",
            )
        # malformed-window screen: defaults only in the oldest slots
        slots: List[Any] = []
        seen_value = False
        for v in window:
            if v == INITIAL_VALUE:
                if seen_value:
                    return self._record(
                        "MalformedWindow",
                        (g,),
                        f"default slot after a non-default one: {window!r}",
                    )
            else:
                seen_value = True
                if v in slots:
                    return self._record(
                        "MalformedWindow",
                        (g,),
                        f"write {v!r} shown twice: {window!r}",
                    )
                slots.append(v)
        missing = 0
        for v in slots:
            if v not in values:
                self._pending.setdefault((key, v), []).append(g)
                missing += 1
        if missing:
            self._parked[g] = [key, tuple(slots), missing]
            if len(self._parked) > self.pending_peak:
                self.pending_peak = len(self._parked)
            return None
        violation = self._check_read(g, key, tuple(slots))
        if self._regrow or self._co_grew:
            v = self._drain_regrow()
            violation = violation or v
        return violation

    # ------------------------------------------------------------------
    # co primitives
    # ------------------------------------------------------------------
    def _merge_vc(self, dst_g: int, src_g: int) -> bool:
        """``vc[dst] |= vc[src]``.  Returns True iff dst's past grew.

        The clocks are *closed*: between feeds every op's row dominates
        the row of every op in its past — its program predecessor's and,
        once it is checked, those of the writes it read from.  A feed in
        arrival order keeps this by construction; an out-of-order one
        restores it through :meth:`_propagate`.  So merging in an op the
        destination's past already holds never grows it, and a first
        check of a read skips its covered window writers."""
        nn = self.n
        vc = self._vc
        db = dst_g * nn
        sb = src_g * nn
        changed = False
        for q, new, old in zip(range(nn), vc[sb : sb + nn], vc[db : db + nn]):
            if new > old:
                vc[db + q] = new
                changed = True
        return changed

    def _propagate(self, g: int) -> None:
        """Push a grown past along po and rf (no-op on in-order feeds).

        Every *existing* op whose past grows this way was possibly
        checked already with the smaller past, so its checks are stale:
        grown reads (and the readers of grown writes, whose window
        relations may have changed even if the reader's own past did
        not) are queued in ``_regrow`` for re-checking, and ``_co_grew``
        schedules a re-audit of the recorded cf/hb edges against the
        grown causal order."""
        stack = [g]
        budget = self.propagation_budget
        regrow = self._regrow
        while stack:
            self.propagate_steps += 1
            if self.propagate_steps > budget:
                self._mark_all_inconclusive(_BUDGET_SPENT)
                return
            cur = stack.pop()
            succ = self._po_succ[cur]
            if succ >= 0 and self._merge_vc(succ, cur):
                stack.append(succ)
                self._co_grew = True
                if self._g_w[succ] < 0:
                    regrow.add(succ)
            if self._g_w[cur] >= 0:
                for rg in self._readers_of_op(cur):
                    if self._merge_vc(rg, cur):
                        stack.append(rg)
                        self._co_grew = True
                    regrow.add(rg)
        regrow.discard(g)  # the seed's own checks run with the final past

    def _readers_of_op(self, g: int) -> List[int]:
        if not self._rf_w:
            return []
        if self._rf_index is None:
            index: Dict[int, List[int]] = {}
            for w_u, r_g in zip(self._rf_w, self._rf_r):
                index.setdefault(self._u_g[w_u], []).append(r_g)
            self._rf_index = index
        return self._rf_index.get(g, [])

    def _read_index(self) -> Dict[int, int]:
        if self._r_index is None:
            self._r_index = {g: i for i, g in enumerate(self._r_g)}
        return self._r_index

    def _drain_regrow(self) -> Optional[MonitorViolation]:
        """Re-run the checks of reads whose causal past grew after they
        were first checked (late rf resolution on out-of-order feeds),
        and re-audit recorded edges whenever co grew.  Never runs on
        in-order feeds."""
        violation: Optional[MonitorViolation] = None
        while (self._regrow or self._co_grew) and not self._decided:
            if self._co_grew:
                self._co_grew = False
                v = self._audit_edges()
                violation = violation or v
            index = self._read_index()
            while self._regrow and not self._decided:
                self.propagate_steps += 1
                if self.propagate_steps > self.propagation_budget:
                    self._mark_all_inconclusive(_BUDGET_SPENT)
                    break
                g = self._regrow.pop()
                i = index.get(g)
                if i is None:
                    continue  # parked: checked on resolution instead
                v = self._check_read(
                    g, self._r_key[i], self._r_slots[i], recheck=True
                )
                violation = violation or v
        if self._decided:
            self._regrow.clear()
            self._co_grew = False
        return violation

    def _audit_edges(self) -> Optional[MonitorViolation]:
        """Growing co can close a cycle with *already recorded* edges
        without any new edge being added, and leaves the labels of the
        writes whose past grew stale: re-sort every open graph against
        the grown order, and where that finds a cycle pick the first
        recorded edge that is constrained both ways as witness."""
        violation: Optional[MonitorViolation] = None
        for row in (self._cf, self._hb):
            if row.criterion in self._violations or row.criterion in self._inconclusive:
                continue
            for q, order in enumerate(row.orders):
                self.propagate_steps += len(self._u_g)
                if not order.rebuild():
                    found = self._cycle_witness(row, q)
                    violation = violation or found
                    break
                held = row.edges if order.log is None else len(order.log)
                self.patterns_checked += held  # all still hold
        if self.propagate_steps > self.propagation_budget:
            self._mark_all_inconclusive(_BUDGET_SPENT)
        return violation

    def _cycle_witness(self, row: _Graphs, q: int) -> Optional[MonitorViolation]:
        """The first recorded edge of graph ``q`` whose target reaches its
        source: the one whole-graph search left, run on streams that hold
        a cycle."""
        order = row.orders[q]
        for a, b in order.edges():
            self.patterns_checked += 1
            reached = order.reaches(b, a, stale=True)
            if reached:
                return self._record(
                    row.pattern,
                    (self._u_g[a], self._u_g[b]),
                    row.cycle.format(q=q, a=self._u_val[a], b=self._u_val[b]),
                )
            if reached is None:
                self._mark_all_inconclusive(_BUDGET_SPENT)
                break
        return None

    def _add_rf(self, u: int, r_g: int) -> None:
        self.rf_edges += 1
        self._rf_w.append(u)
        self._rf_r.append(r_g)
        if self._rf_index is not None:
            self._rf_index.setdefault(self._u_g[u], []).append(r_g)

    def _covers(self, g: int, u: int) -> bool:
        """Is write ``u`` in the co-past of op ``g`` (inclusive)?"""
        wg = self._u_g[u]
        return self._vc[g * self.n + self._g_pid[wg]] > self._g_lidx[wg]

    # ------------------------------------------------------------------
    # per-read pattern checks
    # ------------------------------------------------------------------
    def _check_read(
        self,
        g: int,
        key: int,
        slots: Tuple[Any, ...],
        recheck: bool = False,
    ) -> Optional[MonitorViolation]:
        if self._decided:
            return None
        if not recheck:
            self.reads_checked += 1
            if self._r_index is not None:
                self._r_index[g] = len(self._r_g)
            self._r_g.append(g)
            self._r_key.append(key)
            self._r_slots.append(slots)
        nn = self.n
        vc = self._vc
        u_g = self._u_g
        g_pid = self._g_pid
        g_lidx = self._g_lidx
        pid = g_pid[g]
        lidx = g_lidx[g]
        values = self._writer.get(key)
        win = [values[v] for v in slots]  # oldest..newest
        wgs = [u_g[u] for u in win]  # their ops
        s = len(win)

        # CyclicCO: a window writer already has this read in its past
        self.patterns_checked += 1
        for u, wg in zip(win, wgs):
            if vc[wg * nn + pid] > lidx:
                return self._record(
                    "CyclicCO",
                    (wg, g),
                    f"read is in the causal past of the write it returns "
                    f"(stream {key}, value {self._u_val[u]!r})",
                )
        # rf: the window writers join the read's causal past; on a first
        # check one it already holds is skipped, its row being below the
        # read's (see _merge_vc)
        grew = False
        base = g * nn
        for u, wg in zip(win, wgs):
            if not recheck:
                self._add_rf(u, g)
                if vc[base + g_pid[wg]] > g_lidx[wg]:
                    self.rf_merges_skipped += 1
                    continue
            if self._merge_vc(g, wg):
                grew = True
        if grew and (self._po_succ[g] >= 0 or self._rf_index is not None):
            self._propagate(g)
            if self._decided:
                return None

        # WindowOrderCO: an older slot causally after a newer one
        self.patterns_checked += 1
        for i in range(s - 1):
            older = wgs[i] * nn
            for j in range(i + 1, s):
                wg = wgs[j]
                if vc[older + g_pid[wg]] > g_lidx[wg]:
                    return self._record(
                        "WindowOrderCO",
                        (wg, wgs[i], g),
                        f"window {slots!r} of stream {key} contradicts "
                        f"the causal order of its writes",
                    )

        rows = self._wl.get(key)
        past = vc[g * nn : (g + 1) * nn]
        gens: List[int] = []
        if s < self.k:
            # WriteCOInitRead: default slots visible but |S| > s, where
            # |S| counts the writes to `key` in the read's causal past
            self.patterns_checked += 1
            total = self._count_inside(key, past)
            if total > s:
                extra = self._find_extra(key, past, win)
                return self._record(
                    "WriteCOInitRead",
                    (u_g[extra], g) if extra is not None else (g,),
                    f"window of stream {key} shows initial slots but "
                    f"{total} writes are causally visible",
                )
        else:
            gens = self._generators(rows, past, win)
            # WriteCORead: a visible non-member co-after a window member;
            # there is one iff some generator is
            self.patterns_checked += 1
            members = [(g_pid[wg], g_lidx[wg]) for wg in wgs]
            for u in gens:
                ub = u_g[u] * nn
                for mp, ml in members:
                    if vc[ub + mp] <= ml:
                        continue
                    w_extra, w_member = self._co_after_member(u, win, wgs)
                    return self._record(
                        "WriteCORead",
                        (u_g[w_member], u_g[w_extra], g),
                        f"write {self._u_val[w_extra]!r} to stream {key} is "
                        f"causally after window member "
                        f"{self._u_val[w_member]!r} but not in the window",
                    )

        violation: Optional[MonitorViolation] = None
        if self._co_grew:
            # the labels must hold for the grown order before the next
            # edge is placed against them
            self._co_grew = False
            violation = self._audit_edges()
        if self._cf.orders and "CCV" not in self._violations:
            v = self._cf_constraints(g, win, gens)
            violation = violation or v
        if (
            self._hb.orders
            and "CC" not in self._violations
            and "CC" not in self._inconclusive
        ):
            rec = self._hbrec_of.get(g) if recheck else None
            v = self._hb_constraints(g, key, win, rec)
            violation = violation or v
        return violation

    def _count_inside(self, key: Any, past: Sequence[int]) -> int:
        """How many writes to ``key`` the per-process counts ``past``
        (a causal or happens-before past) hold."""
        return sum(
            bisect_left(row[0], hi)
            for row, hi in zip(self._wl.get(key, ()), past)
            if row is not None
        )

    def _find_extra(
        self, key: Any, past: Sequence[int], win: Sequence[int]
    ) -> Optional[int]:
        """Some write to ``key`` inside the per-process counts ``past``
        (a causal or happens-before past) outside the window."""
        for row, hi in zip(self._wl.get(key, ()), past):
            if row is None:
                continue
            for u in row[1][: bisect_left(row[0], hi)]:
                if u not in win:
                    return u
        return None

    def _generators(
        self,
        rows: List[Optional[Tuple[List[int], List[int]]]],
        past: Sequence[int],
        win: Sequence[int],
    ) -> List[int]:
        """Per process, its last write among the stream's ``rows`` inside
        the counts ``past`` (a causal or happens-before past) that is not
        a window member, unless it is co-before the oldest member: every
        other such write is po-, hence co-before one of these, so they
        stand for all of them.  One co-before the oldest member is
        ordered already, and is after no member (that would be a
        WindowOrderCO), so it is left out."""
        w1b = self._u_g[win[0]] * self.n
        gens = []
        for row, lo, hi in zip(rows, self._vc[w1b : w1b + self.n], past):
            if hi > lo and row is not None:
                lidxs, us = row
                i = bisect_left(lidxs, hi)
                while i and lidxs[i - 1] >= lo:
                    i -= 1
                    if us[i] not in win:
                        gens.append(us[i])
                        break
        return gens

    def _co_after_member(
        self, u: int, win: Sequence[int], wgs: Sequence[int]
    ) -> Tuple[int, int]:
        """The pair (extra write, window member) a WriteCORead names once
        the generator ``u`` is known to be causally after a member: the
        po-earliest non-member of ``u``'s process, up to ``u``, that is
        after one, and the first member in slot order it is after.  An
        earlier process has none, or its generator would have been found
        first; writes co-before the oldest member are after none."""
        nn = self.n
        vc = self._vc
        ug = self._u_g[u]
        q = self._g_pid[ug]
        lidxs, us = self._wl[self._u_key[u]][q]
        i = bisect_left(lidxs, vc[wgs[0] * nn + q])
        members = [(m, self._g_pid[wg], self._g_lidx[wg]) for m, wg in zip(win, wgs)]
        return next(
            (x, m)
            for x in us[i : bisect_left(lidxs, self._g_lidx[ug], i) + 1]
            if x not in win
            for m, mp, ml in members
            if vc[self._u_g[x] * nn + mp] > ml
        )

    # ------------------------------------------------------------------
    # CCv's arbitration constraints, and the edge routine CC shares
    # ------------------------------------------------------------------
    def _cf_constraints(
        self, g: int, win: List[int], gens: List[int]
    ) -> Optional[MonitorViolation]:
        """The read's arbitration edges: its window members ``win`` in
        slot order, then every visible non-member before the oldest
        member — through the ``gens`` that stand for them."""
        for i in range(len(win) - 1):
            v = self._propose(self._cf, 0, (win[i],), win[i + 1], g)
            if v is not None:
                return v
        return self._propose(self._cf, 0, gens, win[0], g) if gens else None

    def _propose(
        self, row: _Graphs, q: int, sources: Iterable[int], b: int, g: int
    ) -> Optional[MonitorViolation]:
        """Require ``a`` before ``b`` in ``row``'s graph ``q`` for every
        ``a`` in ``sources`` (distinct writes), on behalf of read ``g``;
        the violation if one closes a cycle with co."""
        order = row.orders[q]
        seen = order.inn.get(b, ())
        vc = self._vc
        u_g = self._u_g
        g_pid = self._g_pid
        g_lidx = self._g_lidx
        b_vc = u_g[b] * self.n
        for a in sources:
            if a in seen:
                continue
            ag = u_g[a]
            if vc[b_vc + g_pid[ag]] > g_lidx[ag]:
                continue  # implied by co
            self.patterns_checked += 1
            if row.edges >= row.budget:
                self._mark_inconclusive(row.criterion, row.overflow)
                continue
            placed = order.insert(a, b)
            if placed is None:
                self._mark_all_inconclusive(_BUDGET_SPENT)
                return None  # nothing is decided here
            if not placed:
                a = self._earliest_reached(order, a, b)
                return self._record(
                    row.pattern,
                    (u_g[a], u_g[b], g),
                    row.cycle.format(q=q, a=self._u_val[a], b=self._u_val[b]),
                )
            row.edges += 1
        return None

    def _earliest_reached(self, order: DynamicOrder, a: int, b: int) -> int:
        """The write a cycle witness names when the edge ``a → b`` closes
        one: the po-earliest write to ``a``'s stream by ``a``'s process,
        not co-before ``b``, that ``b`` reaches along co ∪ ``order``.
        It is required before ``b`` too (co-before ``a``), and ``b``
        reaching it is monotone along po, so the witness does not depend
        on which generator stood for it; ``a`` if no earlier one."""
        ag = self._u_g[a]
        q = self._g_pid[ag]
        lidxs, us = self._wl[self._u_key[a]][q]
        i = bisect_left(lidxs, self._vc[self._u_g[b] * self.n + q])
        for x in us[i : bisect_left(lidxs, self._g_lidx[ag], i)]:
            reached = order.reaches(b, x)
            if reached:
                return x
            if reached is None:
                self._mark_all_inconclusive(_BUDGET_SPENT)
                break
        return a

    # ------------------------------------------------------------------
    # co as the implicit edges of the conflict graphs' orders
    # ------------------------------------------------------------------
    def _new_order(self, log: bool = False) -> DynamicOrder:
        return DynamicOrder(
            self._co_succs, self._co_preds, self._co_before, self._spend_visits, log
        )

    def _spend_visits(self, visits: int) -> int:
        """Count ``visits`` more writes expanded by an order search; the
        writes the next may expand, out of what the budget leaves."""
        self._order_visits += visits
        return self.propagation_budget - self.propagate_steps - self._order_visits

    def _co_before(self, u: int, v: int) -> bool:
        """Is write ``u`` co-before write ``v``, or ``v`` itself?  (One
        frame per step of the order searches: ``_covers`` inlined.)"""
        u_g = self._u_g
        ug = u_g[u]
        return self._vc[u_g[v] * self.n + self._g_pid[ug]] > self._g_lidx[ug]

    def _co_succs(self, u: int) -> List[int]:
        """Generators of write ``u``'s co-successors: per process its
        first write whose clock covers ``u`` — for ``u``'s own process,
        its next write.  Every other write co-after ``u`` is po-after one
        of these.  The clocks are closed, so coverage is monotone along a
        process's writes: its last write decides whether it has any, and
        only then is the first one bisected for."""
        nn = self.n
        vc = self._vc
        u_g = self._u_g
        wg = u_g[u]
        up = self._g_pid[wg]
        ul = self._g_lidx[wg]
        succs = []
        for p, (lidxs, us) in enumerate(self._pw):
            if p == up:
                i = bisect_left(lidxs, ul + 1)
                if i < len(us):
                    succs.append(us[i])
            elif us and vc[u_g[us[-1]] * nn + up] > ul:
                lo, hi = 0, len(us) - 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    if vc[u_g[us[mid]] * nn + up] > ul:
                        hi = mid
                    else:
                        lo = mid + 1
                succs.append(us[lo])
        return succs

    def _co_preds(self, u: int) -> List[int]:
        """Generators of write ``u``'s co-predecessors: per process the
        last write strictly inside ``u``'s causal past."""
        nn = self.n
        wg = self._u_g[u]
        past = self._vc[wg * nn : (wg + 1) * nn]
        past[self._g_pid[wg]] -= 1  # the write itself
        preds = []
        for p, count in enumerate(past):
            if count:
                lidxs, us = self._pw[p]
                i = bisect_left(lidxs, count)
                if i:
                    preds.append(us[i - 1])
        return preds

    # ------------------------------------------------------------------
    # CC: per-process happens-before constraints
    # ------------------------------------------------------------------
    def _hb_constraints(
        self,
        g: int,
        key: Any,
        win: Sequence[int],
        rec: Optional[List[Any]] = None,
    ) -> Optional[MonitorViolation]:
        q = self._g_pid[g]
        if rec is None:
            rec = [g, key, tuple(win), len(win), None]
            self._q_reads[q].append(rec)
            self._hbrec_of[g] = rec
        else:
            rec[4] = None  # the cached hb-past is stale: recompute
        log = self._hb.orders[q].log
        worklist = [rec]
        seen_ids = {id(rec)}
        while worklist:
            self.cc_rechecks += 1
            if self.cc_rechecks > self.CC_BUDGET:
                self._mark_inconclusive("CC", "happens-before budget exceeded")
                return None
            cur = worklist.pop()
            seen_ids.discard(id(cur))
            mark = len(log)
            v = self._hb_check_read(q, cur)
            if v is not None:
                return v
            new_edge = log[mark:]
            if new_edge:
                # a grown D_q can grow the hb-past of any read of q that
                # already covers the edge's target
                for other in self._q_reads[q]:
                    if id(other) in seen_ids:
                        continue
                    cov = other[4]
                    for a, b in new_edge:
                        bg = self._u_g[b]
                        bp = self._g_pid[bg]
                        covered = (
                            cov is None and self._covers(other[0], b)
                        ) or (cov is not None and self._g_lidx[bg] < cov[bp])
                        if covered:
                            worklist.append(other)
                            seen_ids.add(id(other))
                            break
        return None

    def _hb_cov(self, q: int, g: int) -> List[int]:
        """The hb_q-past of read ``g`` as per-process counts: the co-past
        grown by the closure of the recorded D_q edges."""
        nn = self.n
        vc = self._vc
        cov = vc[g * nn : g * nn + nn]
        edges = self._hb.orders[q].log
        if not edges:
            return cov
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                bg = self._u_g[b]
                if self._g_lidx[bg] >= cov[self._g_pid[bg]]:
                    continue  # b not in the hb-past
                ag = self._u_g[a]
                if self._g_lidx[ag] < cov[self._g_pid[ag]]:
                    continue  # a already in
                ab = ag * nn
                for p in range(nn):
                    c = vc[ab + p]
                    if c > cov[p]:
                        cov[p] = c
                changed = True
        return cov

    def _hb_check_read(self, q: int, rec: List[Any]) -> Optional[MonitorViolation]:
        g, key, win, s, _ = rec
        cov = self._hb_cov(q, g)
        rec[4] = cov
        row = self._hb
        # window members in slot order
        for i in range(s - 1):
            v = self._propose(row, q, (win[i],), win[i + 1], g)
            if v is not None:
                return v
        self.patterns_checked += 1
        if s < self.k:
            total = self._count_inside(key, cov)
            if total > s:
                extra = self._find_extra(key, cov, win)
                return self._record(
                    "WriteHBInitRead",
                    (self._u_g[extra], g) if extra is not None else (g,),
                    f"window of stream {key} shows initial slots but "
                    f"{total} writes are in the happens-before past "
                    f"of process {q}",
                )
            return None
        # full window: every hb-visible non-member must precede the
        # oldest member in the process's linearisation — each process's
        # generator stands for the rest of its writes, which are co-, so
        # hb-before it
        w1 = win[0]
        order = row.orders[q]
        for u in self._generators(self._wl[key], cov, win):
            if u in order.inn.get(w1, ()):
                continue  # the very edge, from an earlier pass
            reached = order.reaches(u, w1)
            if reached:
                continue  # hb-before w1: already ordered
            if reached is None:
                self._mark_all_inconclusive(_BUDGET_SPENT)
            if self._decided:
                return None  # search budget spent
            v = self._propose(row, q, (u,), w1, g)
            if v is not None:
                return v
        return None

    # ------------------------------------------------------------------
    # verdict state
    # ------------------------------------------------------------------
    def _record(
        self, pattern: str, witness_gs: Iterable[int], detail: str
    ) -> MonitorViolation:
        witness = tuple((self._g_pid[w], self._g_lidx[w]) for w in witness_gs)
        violation = MonitorViolation(
            pattern=pattern,
            criteria=PATTERNS[pattern].criteria,
            index=self.ops_seen - 1,
            witness=witness,
            detail=detail,
        )
        for criterion in violation.criteria:
            if criterion in self.criteria:
                self._violations.setdefault(criterion, violation)
        self._refresh_decided()
        return violation

    def _refresh_decided(self) -> None:
        # once non-differentiated, every verdict will be inconclusive
        self._decided = self._nondiff is not None or all(
            c in self._violations or c in self._inconclusive
            for c in self.criteria
        )

    def _mark_inconclusive(self, criterion: str, reason: str) -> None:
        if criterion in self.criteria:
            self._inconclusive.setdefault(criterion, reason)
            self._refresh_decided()

    def _mark_all_inconclusive(self, reason: str) -> None:
        for criterion in self.criteria:
            self._inconclusive.setdefault(criterion, reason)
        self._decided = True

    def _mark_nondiff(self, reason: str) -> None:
        if self._nondiff is None:
            self._nondiff = reason
            self._decided = True

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        # a duplicate value retracts every recorded violation
        first = (
            None
            if self._nondiff is not None
            else min((v.index for v in self._violations.values()), default=None)
        )
        return {
            "ops_seen": self.ops_seen,
            "reads_checked": self.reads_checked,
            "writes_seen": self.writes_seen,
            "rf_edges": self.rf_edges,
            "rf_merges_skipped": self.rf_merges_skipped,
            "cf_edges": self._cf.edges,
            "d_edges": self._hb.edges,
            "hb_edges": self.rf_edges + self._cf.edges + self._hb.edges,
            "patterns_checked": self.patterns_checked,
            "propagate_steps": self.propagate_steps,
            "cc_rechecks": self.cc_rechecks,
            "pending_peak": self.pending_peak,
            "order_searches": sum(order.searches for order in self._orders),
            "order_moved": sum(order.moved for order in self._orders),
            "first_violation_index": first,
        }

    def finalize(self) -> Dict[str, MonitorVerdict]:
        """Close the stream and return the per-criterion verdicts.

        A parked read still waiting for its writer is a thin-air read
        from here on, so the stream cannot go on: a later :meth:`feed`
        raises.  Calling ``finalize`` again returns the same verdicts."""
        if self._regrow or self._co_grew:
            self._drain_regrow()
        if self._parked and self._nondiff is None:
            rg = min(self._parked)
            key, slots, _ = self._parked[rg]
            present = self._writer.get(key, {})
            value = next((v for v in slots if v not in present), slots[0])
            self._record(
                "ThinAirRead",
                (rg,),
                f"read of stream {key} returns {value!r}, which no "
                f"operation wrote",
            )
        stats = self.stats()
        verdicts: Dict[str, MonitorVerdict] = {}
        for criterion in self.criteria:
            if self._nondiff is not None:
                verdicts[criterion] = MonitorVerdict(
                    criterion,
                    None,
                    reason=f"non-differentiated history: {self._nondiff}",
                    stats=stats,
                )
            elif criterion in self._violations:
                violation = self._violations[criterion]
                verdicts[criterion] = MonitorVerdict(
                    criterion,
                    False,
                    violation=violation,
                    reason=f"bad pattern {violation.pattern}: "
                    f"{violation.detail}",
                    stats=stats,
                )
            elif criterion in self._inconclusive:
                verdicts[criterion] = MonitorVerdict(
                    criterion,
                    None,
                    reason=self._inconclusive[criterion],
                    stats=stats,
                )
            else:
                verdicts[criterion] = MonitorVerdict(
                    criterion, True, reason="no bad pattern", stats=stats
                )
        self._closed = self._decided = True
        return verdicts


# ----------------------------------------------------------------------
# ADT adaptation and history replay
# ----------------------------------------------------------------------
def _adt_shape(adt: Any) -> Optional[Tuple[Any, int, bool]]:
    """(streams, k, window_reads) for window-like ADTs, None otherwise:
    window streams read a window of k slots, registers and memory one
    value, which may itself be a tuple."""
    name = type(adt).__name__
    if name == "WindowStreamArray":
        return adt.streams, adt.k, True
    if name == "WindowStream":
        return 1, adt.k, True
    if name == "MemoryADT":
        return adt.registers, 1, False
    if name == "Register":
        return 1, 1, False
    return None


def monitor_for_adt(
    adt: Any,
    n: int,
    *,
    criteria: Sequence[str] = SUPPORTED_CRITERIA,
    **kwargs: Any,
) -> Optional[StreamingMonitor]:
    """A monitor configured for ``adt``, or None if out of scope (the
    bad-pattern catalogue covers read/write window streams, registers
    and register arrays — not queues, counters or sets)."""
    shape = _adt_shape(adt)
    if shape is None:
        return None
    streams, k, window_reads = shape
    return StreamingMonitor(
        n,
        streams=streams,
        k=k,
        criteria=criteria,
        _window_reads=window_reads,
        **kwargs,
    )


def replay_history(
    history: History,
    adt: Any,
    *,
    criteria: Sequence[str] = SUPPORTED_CRITERIA,
    **kwargs: Any,
) -> Dict[str, MonitorVerdict]:
    """Run the monitor over a finished history.

    Events are fed in recorded-time order when the history carries
    timestamps (exercising the true streaming path) and in program order
    otherwise.  The conflict and happens-before edges the two feeds
    propose have the same closure with ``co``, so they reach the same
    verdicts; the timed one parks fewer reads.  Which of the two ran is
    recorded in every
    verdict's ``stats`` as ``feed_order`` (``"recorded-time"`` /
    ``"program-order"``).  Histories
    whose program order is not a union of per-process chains
    (:meth:`History.sequential_processes` — free for declared rows,
    verified mask by mask otherwise), non-window ADTs and
    non-differentiated histories yield inconclusive verdicts.
    """
    shape = _adt_shape(adt)
    feed_order = "recorded-time" if history.times is not None else "program-order"
    stats: Dict[str, Any] = {"ops_seen": len(history), "feed_order": feed_order}
    if shape is None:
        return {
            c: MonitorVerdict(
                c,
                None,
                reason=f"unsupported ADT {getattr(adt, 'name', type(adt).__name__)}",
                stats=stats,
            )
            for c in criteria
        }
    chains = history.sequential_processes()
    if chains is None:
        return {
            c: MonitorVerdict(
                c,
                None,
                reason="program order is not a union of process chains",
                stats=stats,
            )
            for c in criteria
        }
    pid_of = [0] * len(history)
    for p, chain in enumerate(chains):
        for eid in chain:
            pid_of[eid] = p
    monitor = monitor_for_adt(adt, max(1, len(chains)), criteria=criteria, **kwargs)
    order = list(range(len(history)))
    if history.times is not None:
        times = history.times
        order.sort(key=lambda eid: (times[eid], eid))
    events = history.events
    for eid in order:
        event = events[eid]
        monitor.feed(pid_of[eid], event.invocation, event.output)
    verdicts = monitor.finalize()
    for verdict in verdicts.values():
        verdict.stats["feed_order"] = feed_order
    return verdicts
