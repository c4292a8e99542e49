"""Heartbeat-digest repair, one endpoint against a stub transport.

A live node sends each message once per peer and covers wire loss from
digests: when peer q's digest arrives, the
endpoint resends q every logged message q's row and spill runs lack
that the endpoint had already seen when q's *previous* digest arrived.
The stub hosts pid 0 of a 3-process cluster and records what the
endpoint hands it, so every resend is visible and nothing is delivered
anywhere else.
"""

import pytest

import repro.runtime.broadcast as broadcast
from repro.runtime import CausalBroadcast, ReliableBroadcast
from repro.runtime.transport import Transport


class StubTransport(Transport):
    """Hosts pid 0 of ``n``: messages and control bodies are recorded as
    ``(dst, ...)`` pairs, never delivered."""

    def __init__(self, n=3):
        self.n = n
        self.hosted = (0,)
        self.sent = []  # (dst, message id)
        self.controls = []  # (dst, body)

    def attach(self, pid, handler):
        self.handler = handler

    def attach_dedup(self, pid, seen):
        pass

    def attach_control(self, pid, handler):
        self.sink = handler

    def send(self, src, dst, payload):
        self.sent.append((dst, payload["id"]))

    def multicast(self, src, payload):
        self.sent.extend((dst, payload["id"]) for dst in range(1, self.n))

    def control(self, src, dst, body):
        self.controls.append((dst, body))

    def is_crashed(self, pid):
        return False

    def separated(self, src, dst):
        return False


def _node(service_cls=ReliableBroadcast):
    transport = StubTransport()
    service = service_cls(transport)
    delivered = []
    endpoint = service.endpoint(0, lambda origin, payload: delivered.append(payload))
    return transport, service, endpoint, delivered


def _message(origin, seq):
    return {"id": (origin, seq), "origin": origin, "payload": f"{origin}.{seq}"}


def _repaired(transport):
    """The ids repaired so far, per destination, and forget them."""
    out = [(dst, body["body"]["id"]) for dst, body in transport.controls]
    assert all(body["kind"] == "repair" for _, body in transport.controls)
    transport.controls.clear()
    return out


def _digest(frontier, spill=()):
    return {"kind": "hb", "frontier": list(frontier), "spill": [list(r) for r in spill]}


def test_a_direct_endpoint_sends_once_per_peer_and_relays_nothing():
    transport, _, endpoint, delivered = _node()
    endpoint.broadcast("a")
    transport.handler(1, _message(1, 0))
    assert transport.sent == [(1, (0, 0)), (2, (0, 0))]
    assert delivered == ["a", "1.0"]


def test_a_digest_repairs_exactly_what_its_sender_lacks_after_one_heartbeat():
    transport, service, endpoint, _ = _node()
    for value in "abc":
        endpoint.broadcast(value)  # (0, 0) (0, 1) (0, 2)
    transport.handler(1, _message(1, 0))
    sink = transport.sink
    # peer 2's first digest: nothing was seen before a previous one
    sink(2, _digest([0, 0, 0]))
    assert _repaired(transport) == []
    endpoint.broadcast("d")  # (0, 3): seen after that digest
    # peer 2 holds (0, 0) and, spilled, (0, 2): it lacks (0, 1) and
    # (1, 0), which were seen here before its last digest; (0, 3) is
    # in its grace heartbeat and may still be in flight
    sink(2, _digest([1, 0, 0], spill=[(0, 2, 3)]))
    assert _repaired(transport) == [(2, (0, 1)), (2, (1, 0))]
    # the next digest: (0, 3)'s grace is over, and the repairs landed
    sink(2, _digest([3, 1, 0]))
    assert _repaired(transport) == [(2, (0, 3))]
    # a peer that holds everything costs nothing
    sink(2, _digest([4, 1, 0]))
    assert _repaired(transport) == []
    assert service.stats()["repairs_sent"] == 3
    assert service.stats()["repairs_received"] == 0
    # peer 1's digests are graced on their own
    sink(1, _digest([0, 0, 0]))
    assert _repaired(transport) == []
    sink(1, _digest([0, 1, 0]))
    assert sorted(_repaired(transport)) == [(1, (0, seq)) for seq in range(4)]


def test_a_repair_that_is_still_missing_is_sent_again():
    transport, _, endpoint, _ = _node()
    endpoint.broadcast("a")
    sink = transport.sink
    sink(1, _digest([0, 0, 0]))
    sink(1, _digest([0, 0, 0]))
    sink(1, _digest([0, 0, 0]))  # the first repair was lost too
    assert _repaired(transport) == [(1, (0, 0)), (1, (0, 0))]


def test_a_repair_is_received_as_a_message_and_counted():
    transport, service, _, delivered = _node(CausalBroadcast)
    message = dict(_message(1, 0), stamp=(0, 1, 0))
    transport.sink(2, {"kind": "repair", "body": message})
    transport.sink(1, {"kind": "repair", "body": message})  # a copy
    assert delivered == ["1.0"]
    assert service.seen_ids(0) == {(1, 0)}
    assert service.stats()["repairs_received"] == 2
    assert transport.sent == []  # a direct endpoint relays nothing


def test_a_resync_request_replays_everything_lacking_at_once():
    """The grace is the heartbeat's: a recovering peer's request is
    answered in full, as before digests repaired anything."""
    transport, service, endpoint, _ = _node()
    endpoint.broadcast("a")
    endpoint.broadcast("b")
    transport.sent.clear()
    served = transport.sink(
        1, {"kind": "resync-req", "frontier": [0, 0, 0], "spill": [[0, 1, 2]]}
    )
    assert served == 1 and transport.sent == [(1, (0, 0))]
    assert _repaired(transport) == []
    assert service.stats()["repairs_sent"] == 0


def test_the_digest_lists_the_spill_as_runs_and_cuts_it(monkeypatch):
    transport, _, endpoint, _ = _node()
    for origin, seq in [(1, 4), (1, 3), (2, 7), (1, 6), (2, 1)]:
        transport.handler(origin, _message(origin, seq))
    assert endpoint.digest() == {
        "frontier": [0, 0, 0],
        "spill": [[1, 3, 5], [1, 6, 7], [2, 1, 2], [2, 7, 8]],
    }
    monkeypatch.setattr(broadcast, "DIGEST_SPILL", 3)
    assert endpoint.digest()["spill"] == [[1, 3, 5], [1, 6, 7]]


@pytest.mark.parametrize("runs", [[(1, 3, 5)], [(1, 3, 4), (1, 4, 5)]])
def test_a_peer_view_learns_runs_as_ids(runs):
    _, _, endpoint, _ = _node()
    endpoint.peers.learn(2, [0, 3, 0], [list(run) for run in runs])
    assert endpoint.peers.spills[2] == {(1, 3), (1, 4)}
    assert endpoint.peers.seen(2, (1, 2)) and endpoint.peers.seen(2, (1, 4))
    assert not endpoint.peers.seen(2, (1, 5))
