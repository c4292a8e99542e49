"""Experiment drivers, one per ``benchmarks/bench_*.py`` artifact (the
``repro.analysis`` row of README "Architecture")."""

from .consensus import ConsensusRun, consensus_matrix, format_matrix, window_consensus
from .convergence import ConvergenceResult, divergence_rate, measure_convergence
from .hierarchy import HierarchyReport, classify_population, format_report
from .latency import LatencyPoint, format_sweep, latency_sweep
from .session_stats import SessionReport, format_session_table, session_guarantee_rates

__all__ = [
    "ConsensusRun",
    "consensus_matrix",
    "format_matrix",
    "window_consensus",
    "ConvergenceResult",
    "divergence_rate",
    "measure_convergence",
    "HierarchyReport",
    "classify_population",
    "format_report",
    "LatencyPoint",
    "format_sweep",
    "latency_sweep",
    "SessionReport",
    "format_session_table",
    "session_guarantee_rates",
]
