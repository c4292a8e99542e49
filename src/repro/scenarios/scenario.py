"""Executing a :class:`ScenarioSpec`: build, run, record.

:class:`Scenario` assembles the simulated system — simulator, network
with the spec's delay model, fault schedule, history recorder, algorithm
instance and one (closed- or open-loop) client per process — runs it to
quiescence, performs the post-quiescence stable reads, and returns a
:class:`RunResult`.

Every run is a pure function of ``(spec, algorithm, seed)`` and of the
``scripts`` an experiment may pass in place of the generated ones: the
delay model, the pacing and the fault schedule come from the spec alone,
built afresh for every run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, List, Optional, Sequence, Set, Type

from ..adts.window_stream import WindowStreamArray
from ..core.history import History
from ..core.operations import Invocation
from ..runtime.monitors import RuntimeMonitor
from ..runtime.network import Network, NetworkStats
from ..runtime.recorder import HistoryRecorder
from ..runtime.simulator import Simulator
from ..runtime.workload import Client, OpenLoopClient
from .faults import FaultSchedule
from .spec import ScenarioSpec
from .workloads import interarrival_sampler, make_script, think_sampler

#: rng stream separator for per-process script generation
_SCRIPT_SALT = 9_176_731


@dataclass
class RunResult:
    """Everything an experiment needs to know about one run.

    ``history`` and ``stable`` are built from the recorder on first use
    and kept: a run that is only fingerprinted, swept or watched through
    ``subscriber=`` never pays for the N events it would not read.
    """

    recorder: HistoryRecorder
    network_stats: NetworkStats
    algorithm: Any
    sim: Simulator
    duration: float
    ops: int
    issued: int = 0
    completed: int = 0
    spec: Optional[ScenarioSpec] = None
    monitor: Optional[RuntimeMonitor] = None

    @cached_property
    def history(self) -> History:
        return self.recorder.to_history()

    @cached_property
    def stable(self) -> Set[int]:
        return self.recorder.stable_eids()

    @property
    def mean_latency(self) -> float:
        return self.recorder.mean_latency()

    @property
    def messages_per_op(self) -> float:
        return self.network_stats.sent / self.ops if self.ops else 0.0

    @property
    def blocked(self) -> int:
        """Operations issued by clients that never completed — the
        availability gap of non-wait-free algorithms under faults."""
        return max(0, self.issued - self.completed)

    def fingerprint(self) -> str:
        """sha256 over the recorded rows, invocation and response times
        included — the bit-identity witness every golden history pins."""
        h = hashlib.sha256()
        for pid, row in enumerate(self.recorder.rows):
            for rec in row:
                h.update(
                    (
                        f"{pid}|{rec.invocation.method}|{rec.invocation.args!r}|"
                        f"{rec.output!r}|{rec.start!r}|{rec.end!r}\n"
                    ).encode()
                )
        return h.hexdigest()


class Scenario:
    """A runnable scenario: ``Scenario(spec).run(AlgorithmCls, seed=...)``."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    def adt(self) -> WindowStreamArray:
        """The checker-side ADT matching the scenario's object."""
        return WindowStreamArray(self.spec.streams, self.spec.k)

    def scripts(self, seed: int) -> List[List[Invocation]]:
        """The per-process invocation scripts for ``seed`` (deterministic)."""
        return [
            make_script(
                random.Random(seed * _SCRIPT_SALT + pid),
                self.spec.workload,
                self.spec.streams,
                pid,
            )
            for pid in range(self.spec.n)
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        algorithm_cls: Type[Any],
        seed: int = 0,
        *,
        scripts: Optional[Sequence[Sequence[Invocation]]] = None,
        quiescence_reads: Optional[Sequence[Invocation]] = None,
        post_setup: Optional[Callable[[Any], None]] = None,
        max_events: int = 5_000_000,
        monitors: bool = True,
        subscriber: Optional[Callable[[Any], None]] = None,
        **algorithm_kwargs: Any,
    ) -> RunResult:
        """Execute the scenario and return the observed history + stats.

        ``scripts``/``quiescence_reads`` replace the spec's generated
        scripts and its window reads at quiescence, for experiments on
        hand-written scripts or on ADTs other than the window array;
        they are runtime objects and not part of the serialisable spec.

        ``monitors`` (default on) attaches a :class:`RuntimeMonitor` to
        the algorithm's broadcast layer when it has one; the monitor is
        a pure observer, so the recorded history is bit-identical either
        way and the result's :attr:`RunResult.monitor` carries any
        invariant violations it caught.

        ``subscriber`` is streamed one :class:`OpRecord` per operation as
        it is recorded (see :meth:`HistoryRecorder.subscribe`) — this is how a
        :class:`repro.criteria.streaming_monitor.StreamingMonitor`
        watches the run live instead of replaying the finished history.
        """
        spec = self.spec
        # the spec owns the object dimensions: explicitly passed window
        # kwargs must agree, or scripts/quiescence reads and the checker
        # ADT would silently target a different object than the replica
        for dim in ("streams", "k"):
            value = algorithm_kwargs.get(dim)
            if value is not None and value != getattr(spec, dim):
                raise ValueError(
                    f"algorithm {dim}={value} contradicts spec "
                    f"{dim}={getattr(spec, dim)}"
                )
        adt_kwarg = algorithm_kwargs.get("adt")
        if isinstance(adt_kwarg, WindowStreamArray) and (
            adt_kwarg.streams != spec.streams or adt_kwarg.k != spec.k
        ):
            raise ValueError(
                f"algorithm adt dimensions ({adt_kwarg.streams}, "
                f"{adt_kwarg.k}) contradict spec ({spec.streams}, {spec.k})"
            )
        sim = Simulator(seed=seed)
        network = Network(
            sim, spec.n, delay=spec.delay.build(), loss_rate=spec.loss_rate,
        )
        recorder = HistoryRecorder(spec.n)
        if subscriber is not None:
            recorder.subscribe(subscriber)
        algorithm = algorithm_cls(sim, network, recorder, **algorithm_kwargs)
        if post_setup is not None:
            post_setup(algorithm)
        monitor: Optional[RuntimeMonitor] = None
        if monitors:
            service = algorithm.broadcast
            if service is not None:
                monitor = RuntimeMonitor(spec.n, sim=sim)
                service.monitor = monitor

        if scripts is None:
            scripts = self.scripts(seed)
        if len(scripts) != spec.n:
            raise ValueError("one script per process required")

        def do_invoke(
            pid: int, invocation: Invocation, done: Callable[[Any], None]
        ) -> None:
            algorithm.invoke(pid, invocation, done)

        if spec.workload.kind == "open":
            interarrival = interarrival_sampler(spec.workload, sim)
            clients: List[Any] = [
                OpenLoopClient(sim, pid, do_invoke, scripts[pid], interarrival)
                for pid in range(spec.n)
            ]
        else:
            sampler = think_sampler(spec.workload, sim)
            clients = [
                Client(sim, pid, do_invoke, scripts[pid], think=sampler)
                for pid in range(spec.n)
            ]

        schedule = FaultSchedule(spec.faults)
        schedule.install(network, algorithm, clients)
        for client in clients:
            client.start(initial_delay=0.0)
        sim.run(max_events=max_events)

        # quiescence: nothing in flight anymore (the heap is drained)
        recorder.mark_quiescent()
        if quiescence_reads is None and spec.quiescence_reads:
            quiescence_reads = [
                Invocation("r", (x,)) for x in range(spec.streams)
            ]
        if quiescence_reads:
            for pid in range(spec.n):
                if network.is_crashed(pid):
                    continue
                for invocation in quiescence_reads:
                    algorithm.invoke(pid, invocation)
            sim.run(max_events=max_events)

        ops = recorder.count()
        return RunResult(
            recorder=recorder,
            network_stats=network.stats,
            algorithm=algorithm,
            sim=sim,
            duration=sim.now,
            ops=ops,
            issued=sum(c.issued for c in clients),
            completed=sum(c.completed for c in clients),
            spec=spec,
            monitor=monitor,
        )
