"""Core formalism: ADTs as transducers, operations, histories, replay."""

from .adt import AbstractDataType
from .history import Event, History
from .operations import BOTTOM, HIDDEN, Invocation, Operation, inv, op, operations
from .replay import accepts, replay

__all__ = [
    "AbstractDataType",
    "Event",
    "History",
    "BOTTOM",
    "HIDDEN",
    "Invocation",
    "Operation",
    "inv",
    "op",
    "operations",
    "accepts",
    "replay",
]
