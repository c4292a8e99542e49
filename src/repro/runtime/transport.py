"""The transport interface the broadcast/replication stack is written to.

The runtime algorithms (``ReliableBroadcast``, ``CausalBroadcast`` and
every ``ReplicatedObject`` subclass) need exactly seven things from the
layer below them:

- which processes it **hosts** (``hosted``): the pids whose handlers it
  dispatches.  The broadcast layer builds one endpoint per hosted pid
  and treats every other pid as a remote peer it only hears from;
- point-to-point **send** and pid-ordered **multicast** with asynchronous
  delivery into per-process handlers (``attach``);
- an out-of-band **control call** (``control``, into the sink given to
  ``attach_control``) for the layer's own requests — the resync
  request, which carries the requester's seen-digest to a helper, and,
  live, the heartbeat digest.  Not a broadcast message: never
  deduplicated or relayed by the transport.  The simulated plane makes
  it an immediate in-line call — no delay, no rng draw, no
  ``NetworkStats`` entry, blind to partitions and crashes — and returns
  the sink's result; what the sink *sends* in response (the replayed
  messages) is what the fault model acts on.  The live plane sends one
  control frame and returns ``None``;
- a **repair** send (``repair``) for a logged message a peer's digest
  shows it lacks: live, a ``repair`` control frame; simulated, an
  ordinary message copy, drawn, delayed, lossy and held by partitions;
- a **clock** (``now``) and **deferred scheduling** (``schedule``) for
  timers — the supervised resync timeouts and the simulated heartbeat;
- **membership** queries (``is_crashed``) so helpers skip dead peers;
- **reachability** queries (``separated``) so resync picks helpers it can
  actually talk to.

:class:`Transport` names that contract.  The simulated stack
(:class:`repro.runtime.network.Network`, re-exported as ``SimTransport``)
implements it by delegating timers to the discrete-event
:class:`~repro.runtime.simulator.Simulator`; the live stack
(``repro.service.AsyncioTransport``) implements it over TCP sockets with
``loop.call_later`` timers.  The broadcast layers cannot tell the
difference — which is the point: the conformance suite in
``tests/test_transport_conformance.py`` runs the same delivery/FIFO/causal
assertions against both.

Timer semantics the implementations must honour:

- ``schedule(delay, cb, *args)`` runs ``cb(*args)`` once, ``delay``
  time units later, and returns an opaque handle;
- callbacks run on the transport's single event thread/loop, never
  concurrently with message delivery — the broadcast layers are written
  lock-free on that assumption;
- a crashed source neither sends nor receives until recovered, and a
  ``separated`` pair exchanges nothing until reconnected (hold, not lose,
  in the simulated plane; the live plane's fault proxy makes the same
  choice).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, Tuple

Handler = Callable[[int, Any], None]
ControlHandler = Callable[[int, Any], Any]  # (src pid, control body)


class Transport:
    """Abstract message-passing substrate for ``n`` processes.

    Deliberately *not* an ``abc.ABC``: the simulated implementation sits
    on the runtime's hottest paths and must not pay metaclass dispatch;
    the unimplemented methods raise instead.
    """

    #: number of processes (pids ``0..n-1``)
    n: int
    #: the pids whose handlers this transport dispatches
    hosted: Sequence[int]

    # -- delivery -------------------------------------------------------
    def attach(self, pid: int, handler: Handler) -> None:
        """Register ``handler(src, payload)`` as ``pid``'s message sink."""
        raise NotImplementedError

    def attach_dedup(
        self, pid: int, seen: Callable[[Tuple[int, int]], bool]
    ) -> None:
        """Offer ``seen((origin, seq)) -> bool``, ``pid``'s "already saw
        this broadcast message" test.  Optional on both sides: a
        transport that can read a message's id may skip a copy for which
        ``seen`` is true instead of handing it to ``pid``'s handler.
        The handler must keep its own check, because a transport may
        honour the offer for some copies only, or ignore it — this base
        implementation does.  Where the two planes honour it:

        - simulated (``Network``): at *send* time — a copy whose
          destination already holds ``message["id"]`` is drawn and
          counted as usual, but never scheduled (``stats.elided``), and
          so is one that arrives no earlier than a copy of its id
          already in flight to the same destination (folded into it);
        - live, binary codec (``AsyncioTransport``): at *receive* time,
          on the packed message frame's header peek, before decoding
          (``wire_stats["dups_dropped"]``);
        - live, JSON codec or generic frame shapes: not at all — the
          copy is decoded and the handler's own check drops it."""

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Asynchronously deliver ``payload`` from ``src`` to ``dst``.

        A handler that passes on the very message object it was handed
        (a relay) must not have modified it: a transport may forward the
        bytes that object arrived in rather than encode it again."""
        raise NotImplementedError

    def multicast(self, src: int, payload: Any) -> None:
        """Send ``payload`` from ``src`` to every other process, in pid
        order (one independent delay per destination)."""
        raise NotImplementedError

    # -- control call ---------------------------------------------------
    def attach_control(self, pid: int, handler: ControlHandler) -> None:
        """Register ``handler(src, body)`` as ``pid``'s control sink."""
        raise NotImplementedError

    def control(self, src: int, dst: int, body: Any) -> Any:
        """Hand ``body`` to ``dst``'s control sink on behalf of ``src``;
        returns the sink's result when the call is in-line, else
        ``None`` (see the module docstring for the two semantics)."""
        raise NotImplementedError

    def repair(self, src: int, dst: int, message: Any) -> None:
        """Resend the logged broadcast ``message`` to ``dst``, whose
        digest shows it lacks it: a ``repair`` control body, which
        ``dst``'s sink receives as if ``src`` had relayed the message."""
        self.control(src, dst, {"kind": "repair", "body": message})

    # -- clock and timers ----------------------------------------------
    @property
    def now(self) -> float:
        """The transport's notion of current time (simulated or wall)."""
        raise NotImplementedError

    def schedule(self, delay: float, cb: Callable, *args: Any) -> Any:
        """Run ``cb(*args)`` after ``delay`` time units; returns an opaque
        handle."""
        raise NotImplementedError

    # -- membership and reachability -----------------------------------
    def is_crashed(self, pid: int) -> bool:
        raise NotImplementedError

    def separated(self, src: int, dst: int) -> bool:
        """True while the directed pair cannot currently communicate
        (partitioned or blocked); used by resync helper selection."""
        raise NotImplementedError
