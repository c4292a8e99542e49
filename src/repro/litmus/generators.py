"""Random history generators for the hierarchy experiment (E1).

Two sampling regimes, mixed by the experiment:

- *plausible* histories: outputs are drawn from replays of random
  interleaving prefixes, biasing towards histories that satisfy some
  criteria (so the strict inclusions of Fig. 1 get positive witnesses);
- *adversarial* histories: outputs drawn uniformly from a small value
  universe, biasing towards inconsistent histories (negative rows).

Algorithm-produced histories (guaranteed CC / CCv / PC / EC) come from
:class:`repro.scenarios.Scenario` runs; :func:`scenario_window_history`
adds a fourth source — algorithm runs under the named fault scenarios of
:mod:`repro.scenarios` (partitions, crashes, loss bursts), whose
histories stress the checkers far harder than fault-free runs.
Combining the sources gives the classification population used by
``bench_fig1_hierarchy``.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Sequence, Tuple

from ..adts.memory import MemoryADT
from ..adts.queue import FifoQueue
from ..adts.window_stream import WindowStream
from ..core.adt import AbstractDataType
from ..core.history import History
from ..core.operations import BOTTOM, HIDDEN, Invocation, Operation


def _interleaving_prefix_state(
    rng: random.Random,
    adt: AbstractDataType,
    updates: Sequence[Invocation],
) -> Any:
    """State after a random subset of ``updates`` in random order."""
    chosen = [u for u in updates if rng.random() < 0.7]
    rng.shuffle(chosen)
    state = adt.initial_state()
    for invocation in chosen:
        state = adt.transition(state, invocation)
    return state


def recorded_window_history(
    rng: random.Random,
    processes: int = 3,
    ops_per_process: int = 4,
    update_prob: float = 0.6,
    k: int = 2,
    values: Sequence[int] = (1, 2, 3),
    max_lag: float = 3.0,
) -> Tuple[History, WindowStream]:
    """A timed W_k history *recorded* from a simulated plausible run.

    One global interleaving assigns every operation a distinct
    invocation timestamp; replicas apply writes in global-time order
    behind a monotone per-process lag (knowledge never goes backwards),
    and each read returns the replay of exactly the writes it has seen.
    The timestamp order on updates is therefore a CCv witness by
    construction, and the history goes through
    :class:`repro.runtime.recorder.HistoryRecorder` so the observed
    times reach ``History.times`` by the production path — this is the
    population the witness-guided CCv enumeration order is measured on
    (both by ``benchmarks/bench_search_scaling.py``'s ``sat-*`` sweep
    cells and by ``tests/test_search_perf.py``).
    """
    from ..runtime.recorder import HistoryRecorder

    adt = WindowStream(k)
    recorder = HistoryRecorder(processes)
    sequence = [p for p in range(processes) for _ in range(ops_per_process)]
    rng.shuffle(sequence)  # per-process subsequences keep their row order
    writes: List[Tuple[float, int, Invocation]] = []  # time-sorted
    cuts = [0.0] * processes  # monotone visibility horizon per process
    for position, p in enumerate(sequence):
        t = float(position + 1)
        if rng.random() < update_prob:
            invocation = Invocation("w", (rng.choice(values),))
            writes.append((t, p, invocation))
            recorder.record(p, invocation, BOTTOM, t, t + 0.5)
        else:
            cuts[p] = max(cuts[p], t - rng.uniform(0.0, max_lag))
            state = adt.initial_state()
            for wt, wp, winv in writes:
                if wt <= cuts[p] or wp == p:
                    state = adt.transition(state, winv)
            recorder.record(p, Invocation("r"), state, t, t + 0.5)
    return recorder.to_history(), adt


def random_window_history(
    rng: random.Random,
    processes: int = 2,
    ops_per_process: int = 3,
    k: int = 2,
    values: Sequence[int] = (1, 2, 3),
    plausible: float = 0.8,
) -> Tuple[History, WindowStream]:
    """A random W_k history (see module docstring for the regimes)."""
    adt = WindowStream(k)
    all_writes: List[Invocation] = []
    plan: List[List[str]] = []
    for _p in range(processes):
        row_kinds = []
        for _i in range(ops_per_process):
            if rng.random() < 0.5:
                invocation = Invocation("w", (rng.choice(list(values)),))
                all_writes.append(invocation)
                row_kinds.append(invocation)
            else:
                row_kinds.append("r")
        plan.append(row_kinds)
    rows: List[List[Operation]] = []
    for row_kinds in plan:
        row: List[Operation] = []
        for kind in row_kinds:
            if kind == "r":
                if rng.random() < plausible:
                    state = _interleaving_prefix_state(rng, adt, all_writes)
                    row.append(Operation(Invocation("r"), state))
                else:
                    window = tuple(rng.choice([0] + list(values)) for _ in range(k))
                    row.append(Operation(Invocation("r"), window))
            else:
                row.append(Operation(kind, BOTTOM))
        rows.append(row)
    return History.from_processes(rows), adt


def random_queue_history(
    rng: random.Random,
    processes: int = 2,
    ops_per_process: int = 3,
    values: Sequence[int] = (1, 2, 3),
    plausible: float = 0.8,
) -> Tuple[History, FifoQueue]:
    """A random FIFO-queue history mixing pushes and pops."""
    adt = FifoQueue()
    pushes: List[Invocation] = []
    plan: List[List[Any]] = []
    for _p in range(processes):
        row = []
        for _i in range(ops_per_process):
            if rng.random() < 0.5:
                invocation = Invocation("push", (rng.choice(list(values)),))
                pushes.append(invocation)
                row.append(invocation)
            else:
                row.append("pop")
        plan.append(row)
    rows: List[List[Operation]] = []
    for row_plan in plan:
        row = []
        for kind in row_plan:
            if kind == "pop":
                if rng.random() < plausible:
                    state = _interleaving_prefix_state(rng, adt, pushes)
                    out = state[0] if state else BOTTOM
                else:
                    out = rng.choice(list(values) + [BOTTOM])
                row.append(Operation(Invocation("pop"), out))
            else:
                row.append(Operation(kind, BOTTOM))
        rows.append(row)
    return History.from_processes(rows), adt


def scenario_window_history(
    scenario: str = "partition-during-writes",
    algorithm: str = "ccv-fig5",
    seed: int = 0,
    fast_ops: int = 3,
) -> Tuple[History, AbstractDataType]:
    """Algorithm-produced W_k history under a named fault scenario.

    Runs one (shrunk) cell of the scenario × algorithm matrix and returns
    its observed history plus the matching checker ADT.  Deterministic in
    ``(scenario, algorithm, seed)``."""
    from ..scenarios import Scenario, get_scenario
    from ..scenarios.matrix import run_scenario_cell

    result = run_scenario_cell(scenario, algorithm, seed, fast_ops)
    return result.history, Scenario(result.spec).adt()


def random_memory_history(
    rng: random.Random,
    processes: int = 2,
    ops_per_process: int = 4,
    registers: str = "ab",
    distinct_values: bool = True,
    plausible: float = 0.8,
) -> Tuple[History, MemoryADT]:
    """A random memory history; with ``distinct_values`` every written
    value is unique (the hypothesis of Prop. 4 and of the session-guarantee
    checkers)."""
    adt = MemoryADT(registers)
    counter = [0]

    def fresh_value() -> int:
        counter[0] += 1
        return counter[0]

    writes: List[Invocation] = []
    plan: List[List[Any]] = []
    for _p in range(processes):
        row = []
        for _i in range(ops_per_process):
            if rng.random() < 0.5:
                value = fresh_value() if distinct_values else rng.randrange(1, 4)
                invocation = Invocation("w", (rng.choice(registers), value))
                writes.append(invocation)
                row.append(invocation)
            else:
                row.append(("r", rng.choice(registers)))
        plan.append(row)
    rows: List[List[Operation]] = []
    for row_plan in plan:
        row = []
        for kind in row_plan:
            if isinstance(kind, tuple):
                _, reg = kind
                if rng.random() < plausible:
                    state = _interleaving_prefix_state(rng, adt, writes)
                    out = state[adt.index[reg]]
                else:
                    out = rng.choice([0] + [w.args[1] for w in writes] or [0])
                row.append(Operation(Invocation("r", (reg,)), out))
            else:
                row.append(Operation(kind, BOTTOM))
        rows.append(row)
    return History.from_processes(rows), adt
