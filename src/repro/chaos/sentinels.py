"""Sentinel bugs: known defects planted for the chaos hunt to find.

Each is a mixin overriding one method of the broadcast service, which
:func:`plant` subclasses with it, so :mod:`repro.runtime` carries no
switch for any; :data:`SENTINELS` is the ``--inject`` vocabulary:

``gc-frontier``
    the peer view counts each crashed replica one message ahead, so the
    stability sweep prunes what a downed replica has not seen (caught
    by the ``gc-frontier``/``pruned-gap`` monitors).
"""

from typing import Any, Dict, List, Optional

from ..runtime.broadcast import PeerView, ReliableBroadcast


class _CrashedRowsAhead(PeerView):
    def stable(self) -> List[int]:
        crashed = self.is_crashed
        return [
            min(row[origin] + crashed(q) for q, row in enumerate(self.rows))
            for origin in range(len(self.rows))
        ]


class _GcFrontier:
    def __init__(self, network: Any) -> None:
        super().__init__(network)
        for endpoint in self.endpoints.values():
            endpoint.peers = _CrashedRowsAhead(self.n, self.endpoints)
            endpoint.peers.is_crashed = network.is_crashed


#: each sentinel's service mixin, by ``--inject`` name
SENTINELS: Dict[str, type] = {"gc-frontier": _GcFrontier}

#: the ``--inject`` vocabulary: ``none`` plants nothing
INJECTIONS = ("none", *SENTINELS)


def sentinel(inject: str) -> Optional[type]:
    """The mixin of ``inject`` (``None`` for ``"none"``)."""
    if inject not in INJECTIONS:
        raise ValueError(
            f"unknown injection {inject!r}; known: {', '.join(INJECTIONS)}"
        )
    return SENTINELS.get(inject)


def plant(service_cls: Any, inject: str) -> Any:
    """The subclass of ``service_cls`` that carries ``inject``, or
    ``service_cls`` itself (``None`` included) when it is no reliable
    broadcast."""
    mixin = sentinel(inject)
    if mixin is None or not issubclass(service_cls or object, ReliableBroadcast):
        return service_cls
    return type(service_cls.__name__, (mixin, service_cls), {})
