"""Digest and gap repair, one endpoint against a stub transport.

A live node sends each message once per peer and covers wire loss two
ways.  When peer q's digest arrives, the endpoint resends q every logged
message it repairs to q — its own, and those of an origin that is down,
when no lower live peer holds them — that q's row and spill runs lack
and the endpoint had already seen when q's *previous* digest arrived.
And when an origin's own copy arrives above the frontier, the ids below
it that are still missing once the copy can no longer be overtaken are
asked for with one ``nack`` to that origin, which answers from its log.
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

    now = 0.0  # set by hand

    def __init__(self, n=3):
        self.n = n
        self.hosted = (0,)
        self.sent = []  # (dst, message id)
        self.controls = []  # (dst, body)
        self.down = set()

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
        return pid in self.down

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


def _nacks(transport):
    """The nacks sent so far as (dst, origin, lo, hi), and forget them."""
    out = [
        (dst, body["origin"], body["lo"], body["hi"])
        for dst, body in transport.controls
    ]
    assert all(body["kind"] == "nack" for _, body in transport.controls)
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
    # peer 2 holds (0, 0) and, spilled, (0, 2): it lacks (0, 1), seen
    # here before its last digest; (0, 3) is in its grace heartbeat and
    # may still be in flight; (1, 0) is origin 1's to repair
    sink(2, _digest([1, 0, 0], spill=[(0, 2, 3)]))
    assert _repaired(transport) == [(2, (0, 1))]
    # the next digest: (0, 3)'s grace is over, and the repair landed
    sink(2, _digest([3, 0, 0]))
    assert _repaired(transport) == [(2, (0, 3))]
    # a peer that holds everything of this origin costs nothing
    sink(2, _digest([4, 0, 0]))
    assert _repaired(transport) == []
    assert service.stats()["repairs_sent"] == 2
    assert service.stats()["repairs_received"] == 0
    # peer 1's digests are graced on their own
    sink(1, _digest([0, 0, 0]))
    assert _repaired(transport) == []
    sink(1, _digest([0, 1, 0]))
    assert sorted(_repaired(transport)) == [(1, (0, seq)) for seq in range(4)]


def test_the_lowest_live_holder_repairs_for_an_origin_that_is_down():
    transport, service, endpoint, _ = _node()
    transport.handler(1, _message(1, 0))
    transport.handler(1, _message(1, 1))
    sink = transport.sink
    sink(2, _digest([0, 0, 0]))
    sink(2, _digest([0, 1, 0]))
    assert _repaired(transport) == []  # origin 1 is up: its own repairs
    transport.down.add(1)
    sink(2, _digest([0, 1, 0]))
    assert _repaired(transport) == [(2, (1, 1))]
    assert service.stats()["repairs_sent"] == 1


def test_a_gap_in_an_origins_copies_is_nacked_once_at_once_on_fifo_links():
    transport, service, endpoint, _ = _node()
    for seq in (0, 3):
        transport.handler(1, _message(1, seq))
    assert _nacks(transport) == [(1, 1, 1, 3)]
    transport.handler(1, _message(1, 4))  # the same gap: asked already
    assert _nacks(transport) == []
    transport.handler(1, _message(1, 6))  # a new one above it
    assert _nacks(transport) == [(1, 1, 5, 6)]
    # how long a repair takes is not known here: it is never overdue,
    # and digests repair what a lost nack or repair leaves open
    transport.now += 1e6
    transport.handler(1, _message(1, 7))
    assert _nacks(transport) == []
    for seq in (1, 2, 5):
        transport.sink(1, {"kind": "repair", "body": _message(1, seq)})
    assert endpoint.frontier == [0, 8, 0] and _nacks(transport) == []
    assert service.stats()["nacks_sent"] == 2


def test_a_gap_is_asked_for_again_once_its_repair_is_overdue():
    transport, service, endpoint, _ = _node()
    transport.latency, transport.overtake = 1.5, 1.0
    transport.handler(1, _message(1, 0))
    transport.handler(1, _message(1, 3))
    transport.now = 1.0
    transport.handler(1, _message(1, 5))  # (1, 3) can no longer be overtaken
    assert _nacks(transport) == [(1, 1, 1, 3)]
    transport.now = 2.0
    transport.handler(1, _message(1, 6))  # nor can (1, 5): (1, 4) is lost
    assert _nacks(transport) == [(1, 1, 4, 5)]
    # 2.5 after the first ask, latency plus overtake: overdue, and asked
    # for again a run at a time, lowest first
    transport.now = 3.5
    transport.handler(1, _message(1, 7))
    assert _nacks(transport) == [(1, 1, 1, 3)]
    transport.handler(1, _message(1, 8))
    assert _nacks(transport) == [(1, 1, 4, 5)]
    assert service.stats()["nacks_sent"] == 4


def test_a_gap_counts_as_loss_once_its_copy_can_no_longer_be_overtaken():
    transport, service, endpoint, _ = _node()
    transport.overtake = 2.0
    transport.handler(1, _message(1, 2))  # (1, 0), (1, 1) may be in flight
    transport.now = 1.0
    transport.handler(1, _message(1, 0))
    transport.handler(1, _message(1, 4))
    assert _nacks(transport) == []
    transport.now = 2.5
    transport.handler(1, _message(1, 5))
    # (1, 2) arrived 2.5 ago: (1, 1) is lost; (1, 3) may still come
    assert _nacks(transport) == [(1, 1, 1, 2)]


def test_only_an_origins_own_copy_opens_a_nack():
    transport, service, endpoint, _ = _node()
    transport.handler(2, _message(1, 3))  # a resync copy from a helper
    transport.sink(2, {"kind": "repair", "body": _message(1, 5)})
    assert _nacks(transport) == [] and service.stats()["nacks_sent"] == 0


def test_a_nack_for_an_origin_that_is_down_goes_to_the_lowest_live_holder():
    transport, _, endpoint, _ = _node()
    transport.down.add(1)
    endpoint.peers.learn(2, [0, 2, 0])
    transport.handler(1, _message(1, 0))
    transport.handler(1, _message(1, 2))
    assert _nacks(transport) == [(2, 1, 1, 2)]


def test_a_nack_is_answered_from_the_log_with_what_the_row_lacks():
    transport, service, endpoint, _ = _node()
    for value in "abcd":
        endpoint.broadcast(value)
    transport.sink(2, _digest([1, 0, 0], spill=[(0, 2, 3)]))
    transport.sink(2, {"kind": "nack", "origin": 0, "lo": 1, "hi": 4})
    assert _repaired(transport) == [(2, (0, 1)), (2, (0, 3))]
    assert service.stats()["repairs_sent"] == 2


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
