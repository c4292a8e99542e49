"""Causal orders (Def. 7) and certificate verification.

A causal order on a history is a partial order containing the program
order in which every event's non-future is finite (cofiniteness); on the
finite histories handled by the checkers cofiniteness is vacuous, so a
certificate's pasts need only induce a partial order containing the
program order — which is what `verify_certificate` checks.

`verify_certificate` re-validates a :class:`~repro.criteria.causal_search.
CausalCertificate` *independently of the search that produced it*: it
checks the family axioms (K1–K5) and replays every recorded linearisation.
The replication algorithms are model-checked through this path, so a bug
in the search heuristics cannot silently validate them.
"""

from __future__ import annotations

from typing import Dict, Set

from ..core.adt import AbstractDataType
from ..core.history import History
from ..core.operations import HIDDEN, Operation
from ..core.replay import replay
from ..util.bitset import bits
from .causal_search import CausalCertificate


class CertificateError(AssertionError):
    """A certificate failed independent re-validation."""


def verify_certificate(
    history: History, adt: AbstractDataType, certificate: CausalCertificate
) -> None:
    """Raise :class:`CertificateError` unless the certificate is valid.

    Validates, from first principles (no search):

    1. the update pasts satisfy seeding, monotonicity, closure and
       antisymmetry (so they induce a genuine causal order);
    2. for CCv, the total update order extends the induced order;
    3. every recorded linearisation contains exactly the required events,
       respects the induced causal order, and replays within ``L(T)`` with
       the correct visibility.
    """
    past: Dict[int, Set[int]] = {e: set(v) for e, v in certificate.past.items()}
    updates = set(certificate.update_eids)
    for eid in range(len(history)):
        if eid not in past:
            raise CertificateError(f"event {eid} missing from certificate")
        for u in past[eid]:
            if u not in updates:
                raise CertificateError(f"past of {eid} contains non-update {u}")
        # K1: po seeding
        for p in bits(history.past_mask(eid)):
            if p in updates and p not in past[eid]:
                raise CertificateError(f"update {p} |-> {eid} missing from past")
            # K2: monotonicity
            if not past[p] <= past[eid]:
                raise CertificateError(f"past of {p} not within past of {eid}")
        # K3: closure
        for u in past[eid]:
            if not past[u] <= past[eid]:
                raise CertificateError(f"past of update {u} not within past of {eid}")
    # K4: antisymmetry / irreflexivity
    for u in updates:
        if u in past[u]:
            raise CertificateError(f"update {u} precedes itself")
        for v in past[u]:
            if u in past[v]:
                raise CertificateError(f"updates {u} and {v} precede each other")
    # K5: total order containment (CCv)
    rank = None
    if certificate.total_update_order is not None:
        rank = {u: i for i, u in enumerate(certificate.total_update_order)}
        if set(rank) != updates:
            raise CertificateError("total order does not cover the updates")
        for u in updates:
            for v in past[u]:
                if rank[v] > rank[u]:
                    raise CertificateError(
                        f"induced order {v} -> {u} contradicts the total order"
                    )
    # 3. linearisations
    for key, lin in certificate.linearizations.items():
        if certificate.mode == "CC":
            chain_idx, e = key
            chain = history.processes()[chain_idx]
            visible = set(chain[: chain.index(e) + 1])
        else:
            e = key
            visible = {e}
        events = list(lin)
        if events[-1] != e:
            raise CertificateError(f"linearisation of {key} does not end at {e}")
        required_updates = past[e] & updates
        present_updates = {x for x in events if x in updates} - {e}
        if present_updates != required_updates:
            raise CertificateError(
                f"linearisation of {key} has updates {sorted(present_updates)}, "
                f"expected {sorted(required_updates)}"
            )
        position = {x: i for i, x in enumerate(events)}
        for x in events:
            # causal order respected: po edges and update-past edges
            for p in bits(history.past_mask(x)):
                if p in position and position[p] > position[x]:
                    raise CertificateError(f"linearisation of {key} violates po")
            for u in past[x]:
                if u in position and position[u] > position[x]:
                    raise CertificateError(
                        f"linearisation of {key} violates causal past of {x}"
                    )
        if rank is not None:
            ordered = [x for x in events if x in updates and x != e]
            if ordered != sorted(ordered, key=lambda u: rank[u]):
                raise CertificateError(
                    f"linearisation of {key} ignores the total update order"
                )
        word = []
        for x in events:
            event = history.event(x)
            if x in visible and not event.hidden:
                word.append(Operation(event.invocation, event.output))
            else:
                word.append(Operation(event.invocation, HIDDEN))
        ok, _ = replay(adt, word)
        if not ok:
            raise CertificateError(f"linearisation of {key} is not in L(T)")
