"""Substrate ablation — cost of the broadcast lattice (Sec. 6.1).

Measures, per primitive, the host cost and the message amplification of
delivering a batch of broadcasts; and the causal-broadcast buffering a
receiver pays to re-order deliveries (the price of causality at the
transport layer, which the paper's algorithms inherit).
"""

import pytest

from repro.runtime import (
    CausalBroadcast,
    DelayModel,
    FifoBroadcast,
    Network,
    ReliableBroadcast,
    Simulator,
    TotalOrderBroadcast,
)

from _util import emit

PRIMITIVES = {
    "reliable": ReliableBroadcast,
    "fifo": FifoBroadcast,
    "causal": CausalBroadcast,
    "total-order": TotalOrderBroadcast,
}


def _run_batch(service_cls, n=4, per_proc=10, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, n, delay=DelayModel.uniform(0.5, 4.0))
    service = service_cls(net)
    counts = [0] * n
    for pid in range(n):
        service.endpoint(pid, lambda o, p, i=pid: counts.__setitem__(i, counts[i] + 1))
    for i in range(per_proc):
        for pid in range(n):
            service.broadcast(pid, (pid, i))
    sim.run()
    return net.stats.sent, counts


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_broadcast_throughput(benchmark, name):
    cls = PRIMITIVES[name]

    def run():
        return _run_batch(cls)

    sent, counts = benchmark(run)
    assert all(c == 40 for c in counts)  # everyone delivers everything


def test_message_amplification(benchmark):
    lines = ["messages on the wire for 4 procs x 10 broadcasts each:",
             f"{'primitive':>12s} {'sent':>8s}"]
    for name, cls in sorted(PRIMITIVES.items()):
        sent, _ = _run_batch(cls)
        lines.append(f"{name:>12s} {sent:8d}")
    lines.append("\nthe reliable family sends each broadcast once per peer"
                 " (n-1); total-order routes through the sequencer (2 legs)")
    emit("broadcast_amplification", "\n".join(lines))
    benchmark.pedantic(lambda: _run_batch(ReliableBroadcast),
                       rounds=2, iterations=1)


def test_causal_buffering_grows_with_jitter(benchmark):
    """The causal broadcast holds back out-of-order messages; the buffer
    occupancy grows with delay jitter.  The workload forms real causal
    chains: each process re-broadcasts in reaction to deliveries, so a
    receiver can hold a reaction while its cause is still in flight."""

    def measure(jitter: float) -> int:
        sim = Simulator(seed=7)
        net = Network(sim, 4, delay=DelayModel.uniform(0.5, jitter))
        service = CausalBroadcast(net)
        peak = [0]
        budget = [24]  # bound the reaction cascade

        def make_handler(pid):
            def handler(origin, payload):
                peak[0] = max(
                    peak[0],
                    max(service.pending_messages(q) for q in range(4)),
                )
                if origin != pid and budget[0] > 0:
                    budget[0] -= 1
                    service.broadcast(pid, ("react", pid, payload))

            return handler

        for pid in range(4):
            service.endpoint(pid, make_handler(pid))
        service.broadcast(0, ("seed", 0, None))
        sim.run()
        return peak[0]

    occupancy = {jitter: measure(jitter) for jitter in (1.0, 10.0, 40.0)}
    lines = ["peak causal-broadcast buffer occupancy vs delay jitter",
             "(reactive workload: broadcasts depend on deliveries):"]
    for jitter, peak_val in occupancy.items():
        lines.append(f"  jitter {jitter:5.1f}: {peak_val} buffered messages")
    emit("causal_buffering", "\n".join(lines))
    assert occupancy[40.0] > occupancy[1.0]
    benchmark.pedantic(lambda: measure(10.0), rounds=2, iterations=1)
