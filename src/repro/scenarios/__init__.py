"""Scenario engine: declarative fault/workload scenarios + matrix runner.

The fifth layer of the library (core → adts → criteria → runtime/
algorithms → **scenarios**): declarative :class:`ScenarioSpec`s compose a
delay model, a timed fault schedule and a workload profile;
:class:`Scenario` executes one spec against one algorithm;
:func:`run_matrix` sweeps scenario × algorithm × seed across a process
pool and feeds every observed history to the criteria engine.  See
``python -m repro explore``.
"""

from .faults import FaultSchedule
from .matrix import (
    ALGORITHMS,
    AlgorithmEntry,
    MatrixCell,
    MatrixReport,
    format_matrix_report,
    run_matrix,
    run_scenario_cell,
)
from .registry import (
    CHAOS_SCENARIOS,
    SCALE_SCENARIOS,
    SCENARIOS,
    get_scenario,
    scenario_names,
)
from .scenario import RunResult, Scenario
from .spec import DelaySpec, FaultEvent, ScenarioSpec, WorkloadSpec
from .workloads import PhaseClock, make_script, window_script

__all__ = [
    "ALGORITHMS",
    "AlgorithmEntry",
    "CHAOS_SCENARIOS",
    "DelaySpec",
    "FaultEvent",
    "FaultSchedule",
    "MatrixCell",
    "MatrixReport",
    "PhaseClock",
    "RunResult",
    "SCALE_SCENARIOS",
    "SCENARIOS",
    "Scenario",
    "ScenarioSpec",
    "WorkloadSpec",
    "format_matrix_report",
    "get_scenario",
    "make_script",
    "run_matrix",
    "run_scenario_cell",
    "scenario_names",
    "window_script",
]
