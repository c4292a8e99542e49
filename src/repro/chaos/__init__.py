"""Chaos plane: adversarial fault injection + schedule minimisation.

The sixth layer's stress harness (PR 6).  Seeded random fault schedules
over the full fault vocabulary are run with runtime invariant monitors
(:mod:`repro.runtime.monitors`) attached; failing schedules are
delta-debugged (:mod:`repro.chaos.ddmin`) to minimal replayable repro
documents.  ``python -m repro chaos`` is the CLI front end;
``tests/chaos_corpus/`` holds the minimised regression corpus.
"""

from ..runtime.monitors import RuntimeMonitor, Violation
from .ddmin import ddmin
from .driver import (
    CHAOS_ALGORITHMS,
    CHAOS_GC_INTERVAL,
    ChaosFailure,
    ChaosReport,
    replay_file,
    run_chaos,
    run_chaos_trial,
    save_repro,
    trial_fails,
)
from .generate import (
    cleanup_events,
    event_end,
    make_spec,
    random_fault_events,
)
from .sentinels import INJECTIONS

__all__ = [
    "CHAOS_ALGORITHMS",
    "CHAOS_GC_INTERVAL",
    "INJECTIONS",
    "ChaosFailure",
    "ChaosReport",
    "RuntimeMonitor",
    "Violation",
    "cleanup_events",
    "ddmin",
    "event_end",
    "make_spec",
    "random_fault_events",
    "replay_file",
    "run_chaos",
    "run_chaos_trial",
    "save_repro",
    "trial_fails",
]
