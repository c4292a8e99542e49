"""Consistency criteria: checkers for SC, PC, WCC, CC, CCv, CM, EC/UC and
the session guarantees, plus hierarchy metadata and time zones."""

from .base import CRITERIA, CheckResult, check
from .causal import check_causal, check_convergence, check_weak_causal
from .causal_memory import check_causal_memory
from .causal_order import CertificateError, verify_certificate
from .causal_search import CausalCertificate, SearchBudgetExceeded
from .eventual import check_eventual, check_update_consistency, default_stable_events
from .explain import Explanation, explain, locally_explicable
from .dependencies import Dependency, mandatory_edges, semantic_dependencies
from .linearizability import check_linearizable
from .hierarchy import (
    ALL_CRITERIA,
    DIRECT_EDGES,
    check_classification_consistency,
    implied,
)
from .pipelined import check_pipelined
from .registry import classify
from .sequential import check_sequential
from .session import SessionAnalysis, all_session_guarantees
from .verdict import decide
from .zones import TimeZones, causal_order_masks, render_zones, zones_of

__all__ = [
    "CRITERIA",
    "CheckResult",
    "check",
    "classify",
    "decide",
    "check_causal",
    "check_causal_memory",
    "check_convergence",
    "check_eventual",
    "check_update_consistency",
    "default_stable_events",
    "Explanation",
    "explain",
    "locally_explicable",
    "check_pipelined",
    "check_linearizable",
    "Dependency",
    "mandatory_edges",
    "semantic_dependencies",
    "check_sequential",
    "check_weak_causal",
    "CertificateError",
    "verify_certificate",
    "CausalCertificate",
    "SearchBudgetExceeded",
    "ALL_CRITERIA",
    "DIRECT_EDGES",
    "check_classification_consistency",
    "implied",
    "SessionAnalysis",
    "all_session_guarantees",
    "TimeZones",
    "causal_order_masks",
    "render_zones",
    "zones_of",
]
