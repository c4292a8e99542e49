"""View manager: who is up, as seen from one live node.

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

Both writes are plain calls on the node's event loop — a heartbeat from
the callback that read its frame, a sweep from the heartbeat timer — and
one loop runs its callbacks one at a time, so a rejoin and a timeout
sweep cannot interleave.
"""

from __future__ import annotations

from typing import Callable, Dict, Set

#: heartbeat cadence / staleness horizon (seconds)
HB_INTERVAL = 0.25
HB_TIMEOUT = 1.2


class ViewManager:
    """Heartbeat-driven membership view for one node."""

    def __init__(self, now: Callable[[], float]) -> None:
        self._now = now
        self._last_seen: Dict[int, float] = {}
        self._down: Set[int] = set()
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

    # -- writes -----------------------------------------------------------
    def heartbeat(self, pid: int) -> None:
        """A heartbeat arrived from ``pid``."""
        self._last_seen[pid] = self._now()
        if pid in self._down:
            self._down.discard(pid)
            self.transitions += 1

    def sweep(self) -> None:
        """Mark peers whose heartbeats went stale as down."""
        horizon = self._now() - HB_TIMEOUT
        for pid, seen in self._last_seen.items():
            if seen < horizon and pid not in self._down:
                self._down.add(pid)
                self.transitions += 1
