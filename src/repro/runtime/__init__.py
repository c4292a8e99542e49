"""Simulated wait-free asynchronous message-passing system (Sec. 6.1)."""

from .broadcast import (
    BroadcastService,
    CausalBroadcast,
    FifoBroadcast,
    ReliableBroadcast,
    TotalOrderBroadcast,
)
from .monitors import RuntimeMonitor, Violation
from .network import DelayModel, Network, NetworkStats, SimTransport
from .recorder import HistoryRecorder, OpRecord
from .simulator import Simulator
from .transport import Transport
from .workload import Client, OpenLoopClient

__all__ = [
    "BroadcastService",
    "CausalBroadcast",
    "FifoBroadcast",
    "ReliableBroadcast",
    "TotalOrderBroadcast",
    "RuntimeMonitor",
    "Violation",
    "DelayModel",
    "Network",
    "NetworkStats",
    "SimTransport",
    "Transport",
    "HistoryRecorder",
    "OpRecord",
    "Simulator",
    "Client",
    "OpenLoopClient",
]
