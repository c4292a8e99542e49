"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a plain, frozen, JSON-round-trippable value
describing one experimental condition for a replicated object:

- the **network**: a topology-aware delay model plus a baseline loss rate;
- the **fault schedule**: timed :class:`FaultEvent`s — partitions that
  later heal, crashes that later recover (with anti-entropy state rejoin
  where the algorithm supports it), loss bursts, delay spikes and
  explicit anti-entropy repair sweeps;
- the **workload profile**: closed-loop clients with think times, or
  open-loop Poisson arrivals; read-heavy/update-heavy mixes, hot-key
  skew, and cyclic quiet/burst phases.

Specs are deliberately *inert*: building the live simulation objects is
:class:`repro.scenarios.scenario.Scenario`'s job, so the same spec can be
shipped to a worker process, serialised into a report, or shrunk with
:meth:`ScenarioSpec.fast` for smoke runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Iterable, Tuple

from ..runtime.network import DelayModel


# ----------------------------------------------------------------------
# Delay models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DelaySpec:
    """Named delay model + parameters (see :class:`DelayModel`).

    kinds: ``constant(delay)``, ``uniform(low, high)``,
    ``exponential(mean, floor)``, ``per-link(low, high, jitter)``.
    """

    kind: str = "uniform"
    params: Tuple[float, ...] = (0.5, 1.5)

    #: kind -> (min params, max params, parameter names for messages)
    _ARITY = {
        "constant": (1, 1, ("delay",)),
        "uniform": (2, 2, ("low", "high")),
        "exponential": (1, 2, ("mean", "floor")),
        "per-link": (2, 3, ("low", "high", "jitter")),
    }

    def __post_init__(self) -> None:
        """Reject malformed delay models at spec-parse time, with the
        offending parameter named — not as a ``TypeError`` from the
        factory or a nonsense delay sampled mid-run."""
        try:
            lo, hi, names = self._ARITY[self.kind]
        except KeyError:
            known = ", ".join(sorted(self._ARITY))
            raise ValueError(
                f"unknown delay model {self.kind!r}; known: {known}"
            ) from None
        count = len(self.params)
        if not (lo <= count <= hi):
            want = f"{lo}" if lo == hi else f"{lo}..{hi}"
            raise ValueError(
                f"delay model {self.kind!r} takes {want} parameter(s) "
                f"({', '.join(names)}), got {count}: {self.params!r}"
            )
        for name, value in zip(names, self.params):
            if not _finite(value) or value < 0:
                raise ValueError(
                    f"delay model {self.kind!r} parameter {name!r} must "
                    f"be a finite number >= 0, got {value!r}"
                )
        if self.kind in ("uniform", "per-link"):
            low, high = self.params[0], self.params[1]
            if low > high:
                raise ValueError(
                    f"delay model {self.kind!r} needs low <= high, "
                    f"got low={low!r} high={high!r}"
                )
        if self.kind == "per-link" and count == 3 and self.params[2] > 1:
            # a factor 1 + uniform(-jitter, jitter) below zero would
            # schedule a delivery in the past, mid-run
            raise ValueError(
                f"delay model 'per-link' parameter 'jitter' must be "
                f"<= 1, got {self.params[2]!r}"
            )

    def build(self) -> DelayModel:
        factories = {
            "constant": DelayModel.constant,
            "uniform": DelayModel.uniform,
            "exponential": DelayModel.exponential,
            "per-link": DelayModel.per_link,
        }
        try:
            factory = factories[self.kind]
        except KeyError:
            known = ", ".join(sorted(factories))
            raise ValueError(
                f"unknown delay model {self.kind!r}; known: {known}"
            ) from None
        return factory(*self.params)


# ----------------------------------------------------------------------
# Fault schedule events
# ----------------------------------------------------------------------

#: every fault action the schedule understands (validated at spec parse)
FAULT_ACTIONS = (
    "partition",
    "heal",
    "crash",
    "recover",
    "loss",
    "delay-scale",
    "repair",
    "duplicate",
    "reorder",
    "flap",
    "partition-oneway",
    "crash-storm",
)


def _finite(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault action, applied off its target's clock (the
    simulator's, or a live cluster's scaled wall clock) by
    :class:`~repro.scenarios.faults.FaultSchedule`.

    ``action`` is one of ``partition``, ``heal``, ``crash``, ``recover``,
    ``loss`` (set the loss rate: a pair of these makes a loss burst),
    ``delay-scale`` (scale sampled delays: a pair makes a delay spike),
    ``repair`` (one ring-shaped anti-entropy sweep over the live
    processes, for algorithms whose broadcast layer supports ``resync``),
    and the chaos vocabulary: ``duplicate`` (set the message-duplication
    rate), ``reorder`` (a per-link delivery-inversion burst of
    ``duration``), ``flap`` (the link between ``pids`` goes down/up for
    ``count`` cycles of ``duration``), ``partition-oneway`` (block the
    directed links from ``groups[0]`` to ``groups[1]`` until the next
    heal) and ``crash-storm`` (crash all of ``pids`` now, recover them
    all ``duration`` later).  Unused fields keep their defaults, which
    keeps the JSON small."""

    time: float
    action: str
    groups: Tuple[Tuple[int, ...], ...] = ()
    pid: int = -1
    rate: float = 0.0
    factor: float = 1.0
    pids: Tuple[int, ...] = ()
    duration: float = 0.0
    count: int = 0

    # Named constructors ------------------------------------------------
    @staticmethod
    def partition(time: float, *groups: Iterable[int]) -> "FaultEvent":
        return FaultEvent(
            time, "partition", groups=tuple(tuple(g) for g in groups)
        )

    @staticmethod
    def heal(time: float) -> "FaultEvent":
        return FaultEvent(time, "heal")

    @staticmethod
    def crash(time: float, pid: int) -> "FaultEvent":
        return FaultEvent(time, "crash", pid=pid)

    @staticmethod
    def recover(time: float, pid: int) -> "FaultEvent":
        return FaultEvent(time, "recover", pid=pid)

    @staticmethod
    def loss(time: float, rate: float) -> "FaultEvent":
        return FaultEvent(time, "loss", rate=rate)

    @staticmethod
    def delay_spike(time: float, factor: float) -> "FaultEvent":
        return FaultEvent(time, "delay-scale", factor=factor)

    @staticmethod
    def repair(time: float) -> "FaultEvent":
        return FaultEvent(time, "repair")

    @staticmethod
    def duplicate(time: float, rate: float) -> "FaultEvent":
        return FaultEvent(time, "duplicate", rate=rate)

    @staticmethod
    def reorder(time: float, duration: float) -> "FaultEvent":
        return FaultEvent(time, "reorder", duration=duration)

    @staticmethod
    def flap(
        time: float, src: int, dst: int, cycles: int = 3, period: float = 1.0
    ) -> "FaultEvent":
        return FaultEvent(
            time, "flap", pids=(src, dst), count=cycles, duration=period
        )

    @staticmethod
    def partition_oneway(
        time: float, src_group: Iterable[int], dst_group: Iterable[int]
    ) -> "FaultEvent":
        return FaultEvent(
            time,
            "partition-oneway",
            groups=(tuple(src_group), tuple(dst_group)),
        )

    @staticmethod
    def crash_storm(
        time: float, pids: Iterable[int], downtime: float = 3.0
    ) -> "FaultEvent":
        return FaultEvent(
            time, "crash-storm", pids=tuple(pids), duration=downtime
        )

    @staticmethod
    def from_dict(f: Dict[str, Any]) -> "FaultEvent":
        """Parse one event from its JSON dict form, validated."""
        return FaultEvent(
            time=f["time"],
            action=f["action"],
            groups=tuple(tuple(g) for g in f.get("groups", ())),
            pid=f.get("pid", -1),
            rate=f.get("rate", 0.0),
            factor=f.get("factor", 1.0),
            pids=tuple(f.get("pids", ())),
            duration=f.get("duration", 0.0),
            count=f.get("count", 0),
        ).validate()

    # ------------------------------------------------------------------
    def validate(self) -> "FaultEvent":
        """Reject malformed events with a clear message, at spec-parse
        time — not deep inside ``FaultSchedule.apply`` mid-run.  Returns
        ``self`` so callers can validate inline."""
        if not _finite(self.time) or self.time < 0:
            raise ValueError(
                f"fault event time must be a finite number >= 0, "
                f"got {self.time!r}"
            )
        action = self.action
        if action not in FAULT_ACTIONS:
            known = ", ".join(FAULT_ACTIONS)
            raise ValueError(
                f"unknown fault action {action!r}; known: {known}"
            )
        if action == "loss":
            # loss must stay below 1: a link that loses everything can
            # never deliver, so progress would be impossible
            if not _finite(self.rate) or not (0.0 <= self.rate < 1.0):
                raise ValueError(
                    f"loss rate must be in [0, 1), got {self.rate!r}"
                )
        elif action == "duplicate":
            # a full duplication storm (rate 1.0) is a valid chaos
            # configuration: every message is still delivered, just twice
            if not _finite(self.rate) or not (0.0 <= self.rate <= 1.0):
                raise ValueError(
                    f"duplicate rate must be in [0, 1], got {self.rate!r}"
                )
        elif action == "delay-scale":
            if not _finite(self.factor) or self.factor <= 0:
                raise ValueError(
                    f"delay-scale factor must be a finite number > 0, "
                    f"got {self.factor!r}"
                )
        elif action in ("crash", "recover"):
            if not isinstance(self.pid, int) or self.pid < 0:
                raise ValueError(
                    f"{action} needs a process id >= 0, got {self.pid!r}"
                )
        elif action == "partition":
            self._check_groups(minimum_groups=1)
        elif action == "partition-oneway":
            if len(self.groups) != 2:
                raise ValueError(
                    "partition-oneway needs exactly two groups "
                    f"(sources, destinations), got {len(self.groups)}"
                )
            self._check_groups(minimum_groups=2)
        elif action == "reorder":
            if not _finite(self.duration) or self.duration <= 0:
                raise ValueError(
                    f"reorder burst duration must be > 0, "
                    f"got {self.duration!r}"
                )
        elif action == "flap":
            if len(self.pids) != 2 or self.pids[0] == self.pids[1]:
                raise ValueError(
                    f"flap needs two distinct pids, got {self.pids!r}"
                )
            if any(not isinstance(p, int) or p < 0 for p in self.pids):
                raise ValueError(f"flap pids must be >= 0, got {self.pids!r}")
            if not isinstance(self.count, int) or self.count < 1:
                raise ValueError(
                    f"flap needs count >= 1 cycles, got {self.count!r}"
                )
            if not _finite(self.duration) or self.duration <= 0:
                raise ValueError(
                    f"flap cycle period must be > 0, got {self.duration!r}"
                )
        elif action == "crash-storm":
            if not self.pids:
                raise ValueError("crash-storm needs a non-empty pids tuple")
            if any(not isinstance(p, int) or p < 0 for p in self.pids):
                raise ValueError(
                    f"crash-storm pids must be >= 0, got {self.pids!r}"
                )
            if len(set(self.pids)) != len(self.pids):
                raise ValueError(
                    f"crash-storm pids must be distinct, got {self.pids!r}"
                )
            if not _finite(self.duration) or self.duration <= 0:
                raise ValueError(
                    f"crash-storm downtime must be > 0, got {self.duration!r}"
                )
        return self

    def _check_groups(self, minimum_groups: int) -> None:
        if len(self.groups) < minimum_groups:
            raise ValueError(
                f"{self.action} needs at least {minimum_groups} group(s), "
                f"got {len(self.groups)}"
            )
        seen: set = set()
        for group in self.groups:
            if not group:
                raise ValueError(f"{self.action} groups must be non-empty")
            for pid in group:
                if not isinstance(pid, int) or pid < 0:
                    raise ValueError(
                        f"{self.action} group members must be pids >= 0, "
                        f"got {pid!r}"
                    )
                if pid in seen:
                    raise ValueError(
                        f"{self.action} groups must be disjoint "
                        f"(pid {pid} appears twice)"
                    )
                seen.add(pid)


# ----------------------------------------------------------------------
# Workload profiles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """How clients generate and pace invocations.

    ``kind`` selects the driver: ``closed`` (one op at a time, think time
    between completions) or ``open`` (Poisson arrivals at ``rate`` per
    client, issued whether or not earlier operations completed).

    The op mix targets a window-stream array: a write ``w(x, v)`` with
    probability ``write_ratio``, else a read ``r(x)``; the stream ``x``
    is stream 0 with probability ``hot_key_weight`` (contention) and
    uniform otherwise.  ``phases`` is a cyclic intensity profile of
    ``(duration, intensity)`` pairs: intensity multiplies the open-loop
    arrival rate and divides the closed-loop think time, so
    ``((6, 0.2), (3, 4.0))`` is quiet-then-burst."""

    kind: str = "closed"
    ops_per_process: int = 8
    write_ratio: float = 0.5
    hot_key_weight: float = 0.0
    think: Tuple[float, float] = (0.1, 1.0)
    rate: float = 1.0
    phases: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("closed", "open"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if any(intensity <= 0 for _d, intensity in self.phases):
            raise ValueError("phase intensities must be positive")


# ----------------------------------------------------------------------
# The scenario spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative fault/workload scenario (see module docstring)."""

    name: str
    n: int = 3
    streams: int = 2
    k: int = 2
    delay: DelaySpec = field(default_factory=DelaySpec)
    loss_rate: float = 0.0
    faults: Tuple[FaultEvent, ...] = ()
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    quiescence_reads: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        """Dimension and rate checks at parse time, mirroring
        :meth:`FaultEvent.validate`: a bad spec should name its broken
        field here, not surface as an index error mid-run."""
        for name, minimum in (("n", 1), ("streams", 1), ("k", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise ValueError(
                    f"scenario {name} must be an integer >= {minimum}, "
                    f"got {value!r}"
                )
        # like the loss fault event: rate 1 would mean no link ever
        # delivers, so no run could terminate
        if not _finite(self.loss_rate) or not (0.0 <= self.loss_rate < 1.0):
            raise ValueError(
                f"scenario loss_rate must be in [0, 1), "
                f"got {self.loss_rate!r}"
            )

    # ------------------------------------------------------------------
    def fast(self, ops: int = 4) -> "ScenarioSpec":
        """A shrunk copy for smoke runs: fewer ops, same faults."""
        workload = replace(
            self.workload, ops_per_process=min(self.workload.ops_per_process, ops)
        )
        return replace(self, workload=workload)

    @property
    def fault_horizon(self) -> float:
        """Time of the last scheduled fault (0 when there are none)."""
        return max((event.time for event in self.faults), default=0.0)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ScenarioSpec":
        d = data.get("delay", {})
        delay = DelaySpec(
            kind=d.get("kind", "uniform"),
            params=tuple(d.get("params", (0.5, 1.5))),
        )
        faults = tuple(
            FaultEvent.from_dict(f) for f in data.get("faults", ())
        )
        w = data.get("workload", {})
        workload = WorkloadSpec(
            kind=w.get("kind", "closed"),
            ops_per_process=w.get("ops_per_process", 8),
            write_ratio=w.get("write_ratio", 0.5),
            hot_key_weight=w.get("hot_key_weight", 0.0),
            think=tuple(w.get("think", (0.1, 1.0))),
            rate=w.get("rate", 1.0),
            phases=tuple(tuple(p) for p in w.get("phases", ())),
        )
        return ScenarioSpec(
            name=data["name"],
            n=data.get("n", 3),
            streams=data.get("streams", 2),
            k=data.get("k", 2),
            delay=delay,
            loss_rate=data.get("loss_rate", 0.0),
            faults=faults,
            workload=workload,
            quiescence_reads=data.get("quiescence_reads", True),
            description=data.get("description", ""),
        )
