"""Locked view manager: who is up, as seen from one live node.

Each node multicasts a heartbeat control frame every ``HB_INTERVAL``
seconds; a peer with no heartbeat for ``HB_TIMEOUT`` is *down* in this
node's view.  The view is the live plane's membership oracle: the
broadcast layers' helper selection (``_resync_helper``, pull-holder
failover) asks ``Transport.is_crashed``, which the service node wires to
:meth:`ViewManager.is_down` — so a crashed or partitioned-away peer
drops out of the helper pools off real RPC timeouts, exactly the role
``Network.crashed`` plays in the simulator.

Heartbeats double as anti-entropy digests: each carries the sender's
broadcast endpoint's ``digest()``, which the transport also hands to the
receiving endpoint's control sink, where it moves the peer view and has
the endpoint repair what the sender lacks — the view manager only times
them.

View transitions are serialized through an ``asyncio.Lock`` — heartbeat
arrivals and the sweep timer both mutate the view under it, so a rejoin
racing a timeout sweep cannot interleave half-applied state.  Reads
(``is_down``) are lock-free snapshots of a plain set, safe on a single
event loop.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Set

HB_INTERVAL = 0.25
HB_TIMEOUT = 1.2


class ViewManager:
    """Heartbeat-driven membership view for one node."""

    def __init__(
        self,
        my_pid: int,
        n: int,
        now: Callable[[], float],
        hb_interval: float = HB_INTERVAL,
        hb_timeout: float = HB_TIMEOUT,
    ) -> None:
        self.my_pid = my_pid
        self.n = n
        self._now = now
        self.hb_interval = hb_interval
        self.hb_timeout = hb_timeout
        self._lock = asyncio.Lock()
        self._last_seen: Dict[int, float] = {}
        self._down: Set[int] = set()
        #: observers called as ``cb(pid, up: bool)`` after a transition
        #: commits (under the lock, so transitions arrive in order)
        self.on_transition: List[Callable[[int, bool], None]] = []
        self.transitions = 0

    # -- reads ----------------------------------------------------------
    def is_down(self, pid: int) -> bool:
        return pid in self._down

    def snapshot(self) -> Dict[str, object]:
        now = self._now()
        return {
            "down": sorted(self._down),
            "last_seen_age": {
                pid: round(now - t, 3) for pid, t in self._last_seen.items()
            },
            "transitions": self.transitions,
        }

    # -- writes (all under the lock) ------------------------------------
    async def heartbeat(self, pid: int) -> None:
        """A heartbeat (or any control traffic) arrived from ``pid``."""
        async with self._lock:
            self._last_seen[pid] = self._now()
            if pid in self._down:
                self._transition(pid, up=True)

    async def sweep(self) -> None:
        """Mark peers whose heartbeats went stale as down."""
        async with self._lock:
            horizon = self._now() - self.hb_timeout
            for pid, seen in self._last_seen.items():
                if seen < horizon and pid not in self._down:
                    self._transition(pid, up=False)

    def _transition(self, pid: int, up: bool) -> None:
        if up:
            self._down.discard(pid)
        else:
            self._down.add(pid)
        self.transitions += 1
        for cb in self.on_transition:
            cb(pid, up)
