"""Sentinel bugs: known defects planted for the chaos hunt to find.

Each is a mixin overriding one method of the broadcast service or of
the part class its row names (``endpoint_cls`` or ``lazy_cls``), which
:func:`plant` subclasses with it, so :mod:`repro.runtime` carries no
switch for any; :data:`SENTINELS` is the ``--inject`` vocabulary:

``gc-frontier``
    the peer view counts each crashed replica one message ahead, so the
    stability sweep prunes what a downed replica has not seen (caught
    by the ``gc-frontier``/``pruned-gap`` monitors);
``oneshot-resync``
    supervised resync degrades to the one-shot catch-up it replaced;
``pull-starve``
    lazy-push holders drop pull requests, stranding the bodies the push
    overlay missed (``pull-stranded`` or divergence); inert on a flood.

The last two are *differential*: a trial fails only if the clean run of
the same schedule passes — a schedule no strategy could survive is not
the sentinel's fault — and runs without repair sweeps, which would mask
the stranding being hunted.
"""

from typing import Any, Dict, List, NamedTuple, Optional

from ..runtime.broadcast import PeerView, ReliableBroadcast


class _CrashedRowsAhead(PeerView):
    def stable(self) -> List[int]:
        crashed = self.is_crashed
        return [
            min(row[origin] + crashed(q) for q, row in enumerate(self.rows))
            for origin in range(len(self.rows))
        ]


class _GcFrontier:
    def __init__(self, network: Any, **config: Any) -> None:
        super().__init__(network, **config)
        for endpoint in self.endpoints.values():
            endpoint.peers = _CrashedRowsAhead(self.n, self.endpoints)
            endpoint.peers.is_crashed = network.is_crashed


class _OneShotResync:
    def start_resync(self) -> None:
        self.resync()


class _StarvePulls:
    def _pull_request(self, requester: int, mid: Any) -> None:
        pass  # dropped on the floor


class Sentinel(NamedTuple):
    service_mixin: Optional[type]
    part: Optional[str]  # the service attribute naming the part class it bugs
    part_mixin: Optional[type]
    differential: bool


SENTINELS: Dict[str, Sentinel] = {
    "gc-frontier": Sentinel(_GcFrontier, None, None, False),
    "oneshot-resync": Sentinel(None, "endpoint_cls", _OneShotResync, True),
    "pull-starve": Sentinel(None, "lazy_cls", _StarvePulls, True),
}

#: the ``--inject`` vocabulary: ``none`` plants nothing
INJECTIONS = ("none", *SENTINELS)


def sentinel(inject: str) -> Optional[Sentinel]:
    """The table row of ``inject`` (``None`` for ``"none"``)."""
    if inject not in INJECTIONS:
        raise ValueError(
            f"unknown injection {inject!r}; known: {', '.join(INJECTIONS)}"
        )
    return SENTINELS.get(inject)


def plant(service_cls: Any, inject: str) -> Any:
    """The subclass of ``service_cls`` that carries ``inject``, or
    ``service_cls`` itself (``None`` included) when it is no reliable
    broadcast."""
    row = sentinel(inject)
    if row is None or not issubclass(service_cls or object, ReliableBroadcast):
        return service_cls
    attrs = {}
    if row.part is not None:
        base = getattr(service_cls, row.part)
        attrs[row.part] = type(base.__name__, (row.part_mixin, base), {})
    mixins = (row.service_mixin,) if row.service_mixin else ()
    return type(service_cls.__name__, (*mixins, service_cls), attrs)
