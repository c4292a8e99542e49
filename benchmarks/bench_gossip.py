"""Extension ablation — op-based (Fig. 5) vs state-based (gossip) CCv.

The paper cites CRDTs [22] as the other road to convergence.  This bench
quantifies the trade-off on lossy links: the op-based algorithm needs a
repair protocol — its direct sends converge through heartbeat-digest
repair — while the state-based gossip converges through loss with none,
at the cost of shipping whole states.
"""

import pytest

from repro.algorithms import CCvWindowArray, GossipCCvWindowArray
from repro.core.operations import Invocation
from repro.runtime import DelayModel, Network, Simulator

from _util import emit

LOSS_RATES = (0.0, 0.2, 0.4)


def _run_gossip(loss: float, seed: int, max_rounds: int = 400):
    sim = Simulator(seed=seed)
    net = Network(sim, 4, delay=DelayModel.uniform(0.2, 1.0), loss_rate=loss)
    obj = GossipCCvWindowArray(sim, net, None, streams=1, k=2)
    for pid in range(4):
        obj.invoke(pid, Invocation("w", (0, 10 + pid)))
    obj.start_gossip(rounds=max_rounds)
    # run in slices so we can detect convergence round
    while not obj.converged() and sim.pending:
        sim.run(until=sim.now + 1.0)
    obj.stop_gossip()
    sim.run()
    return obj.converged(), obj.rounds, net.stats


def _run_opbased(loss: float, seed: int):
    sim = Simulator(seed=seed)
    net = Network(sim, 4, delay=DelayModel.uniform(0.2, 1.0), loss_rate=loss)
    obj = CCvWindowArray(sim, net, None, streams=1, k=2)
    for pid in range(4):
        obj.invoke(pid, Invocation("w", (0, 10 + pid)))
    sim.run()
    converged = len({obj.window(pid, 0) for pid in range(4)}) == 1
    return converged, net.stats


def test_gossip_vs_opbased_under_loss(benchmark):
    def experiment():
        rows = []
        for loss in LOSS_RATES:
            gossip_ok = sum(_run_gossip(loss, s)[0] for s in range(5))
            direct_ok = sum(_run_opbased(loss, s)[0] for s in range(5))
            rows.append((loss, gossip_ok, direct_ok))
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    lines = ["runs converged out of 5, per message-loss rate:",
             f"{'loss':>6s} {'gossip':>8s} {'op+direct':>9s}"]
    for loss, gossip_ok, direct_ok in rows:
        lines.append(f"{loss:6.1f} {gossip_ok:8d} {direct_ok:9d}")
    lines.append("\ngossip (state-based, CRDT-style [22]) rides out loss by")
    lines.append("retrying semilattice merges; op-based needs a repair")
    lines.append("protocol: its direct sends converge through")
    lines.append("heartbeat-digest repair.")
    emit("gossip_vs_opbased_loss", "\n".join(lines))
    assert all(r[1] == 5 for r in rows)       # gossip always converges
    assert all(r[2] == 5 for r in rows)       # digest repair heals the loss


@pytest.mark.parametrize("loss", LOSS_RATES)
def test_gossip_rounds_to_convergence(benchmark, loss):
    def run():
        return _run_gossip(loss, seed=17)

    converged, rounds, stats = benchmark.pedantic(run, rounds=2, iterations=1)
    assert converged
