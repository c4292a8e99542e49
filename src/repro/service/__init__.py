"""Live asyncio service plane (PR 9): the runtime algorithms on real
sockets, with the observability plane carried across.

``AsyncioTransport`` implements the :class:`repro.runtime.transport.
Transport` contract over TCP; :class:`ServiceNode` hosts any registry
algorithm behind a tiny client protocol; :class:`FaultProxy` puts the
chaos vocabulary on the wire; :mod:`repro.service.load` drives open-loop
traffic and captures the recorded history for classification.
"""

from .cluster import (
    ClientSession,
    LiveCluster,
    client_call,
    load_fault_schedule,
    port_layout,
)
from .load import LoadReport, capture_history, converged_windows, run_load
from .node import ServiceNode, build_algorithm
from .proxy import FaultProxy
from .tap import MonitorTap, RecorderTap, RingTap
from .transport import AsyncioTransport, WallClock
from .view import ViewManager

__all__ = [
    "AsyncioTransport",
    "WallClock",
    "RingTap",
    "MonitorTap",
    "RecorderTap",
    "ServiceNode",
    "build_algorithm",
    "ViewManager",
    "FaultProxy",
    "load_fault_schedule",
    "LiveCluster",
    "ClientSession",
    "client_call",
    "port_layout",
    "LoadReport",
    "run_load",
    "capture_history",
    "converged_windows",
]
