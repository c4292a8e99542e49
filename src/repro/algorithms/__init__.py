"""Replication algorithms: Figs. 4–5 and baselines, each a per-process
:class:`Replica` under one :class:`ReplicatedObject` host."""

from .base import Replica, ReplicatedObject
from .cc_window import CCWindowArray
from .ccv_window import CCvWindowArray
from .generic_causal import GenericCausal, PramReplication
from .generic_ccv import GenericCCv, LwwReplication
from .gossip_ccv import GossipCCvWindowArray, merge_windows
from .sc_sequencer import ScSequencer

__all__ = [
    "Replica",
    "ReplicatedObject",
    "CCWindowArray",
    "CCvWindowArray",
    "GenericCausal",
    "GenericCCv",
    "GossipCCvWindowArray",
    "merge_windows",
    "LwwReplication",
    "PramReplication",
    "ScSequencer",
]
