"""One fault vocabulary, one interpreter: `FaultSchedule` on both planes.

`repro.scenarios.faults` states the fault-target contract; this file is
its conformance suite.  The table below lists, per action of
`FAULT_ACTIONS`, the calls a schedule makes on its target and when.
Every row is installed twice through the same `FaultSchedule` — on the
simulated `Network` under a `Simulator`, and on a started `LiveCluster`
— behind a recorder that notes each call and passes it on, so the real
target on either plane also has to accept what it is handed.
"""

import asyncio
import json

import pytest

from repro.runtime.network import DelayModel, Network
from repro.runtime.simulator import Simulator
from repro.scenarios import FaultSchedule, Scenario
from repro.scenarios.matrix import ALGORITHMS
from repro.scenarios.spec import (
    FAULT_ACTIONS,
    DelaySpec,
    FaultEvent as F,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.service import LiveCluster, client_call, load_fault_schedule

BASE_PORT = 7860
#: wall seconds per schedule unit on the live side of the table
TIME_SCALE = 0.04
#: how late (schedule units) a live timer may fire and still be on time
LATE = 10.0


class Recorder:
    """Stands where the fault target stands: clock and timers are the
    real target's, every other call is noted as ``(time, name, args)``
    and passed on if the real target answers it."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.calls = []

    @property
    def now(self):
        return self.inner.now

    def schedule(self, delay, cb, *args):
        return self.inner.schedule(delay, cb, *args)

    def __getattr__(self, name):
        real = getattr(self.inner, name, None)

        def call(*args, **kwargs):
            noted = args + tuple(sorted(kwargs.items()))
            self.calls.append((self.inner.now, name, noted))
            if real is not None:
                return real(*args, **kwargs)

        return call


LINK = ((0, 1), (1, 0))

#: action -> (events, [(time, target call, arguments)])
CONTRACT = {
    "partition": (
        [F.partition(1.0, [0], [1, 2])],
        [(1.0, "partition", ((0,), (1, 2)))],
    ),
    "heal": ([F.heal(1.0)], [(1.0, "heal", ())]),
    "crash": ([F.crash(1.0, 1)], [(1.0, "crash", (1,))]),
    "recover": (
        [F.crash(0.5, 2), F.recover(1.0, 2)],
        [(0.5, "crash", (2,)), (1.0, "recover", (2,))],
    ),
    "loss": ([F.loss(1.0, 0.2)], [(1.0, "set_loss_rate", (0.2,))]),
    "delay-scale": (
        [F.delay_spike(1.0, 3.0)],
        [(1.0, "set_delay_scale", (3.0,))],
    ),
    "duplicate": (
        [F.duplicate(1.0, 1.0)],
        [(1.0, "set_duplicate_rate", (1.0,))],
    ),
    "reorder": ([F.reorder(1.0, 2.0)], [(1.0, "start_reorder", (2.0,))]),
    "partition-oneway": (
        [F.partition_oneway(1.0, [0, 1], [2])],
        [(1.0, "block_links", (((0, 2), (1, 2)),))],
    ),
    # down at 1 and 2, up at 1.5 and 2.5: the tails are more timers
    "flap": (
        [F.flap(1.0, 0, 1, cycles=2, period=1.0)],
        [
            (1.0, "block_links", (LINK,)),
            (1.5, "unblock_links", (LINK,)),
            (2.0, "block_links", (LINK,)),
            (2.5, "unblock_links", (LINK,)),
        ],
    ),
    "crash-storm": (
        [F.crash_storm(1.0, (1, 2), downtime=1.5)],
        [
            (1.0, "crash", (1,)),
            (1.0, "crash", (2,)),
            (2.5, "recover", (1,)),
            (2.5, "recover", (2,)),
        ],
    ),
    # each live process resyncs from its next live neighbour; the
    # crashed one is skipped, not revived
    "repair": (
        [F.crash(0.5, 1), F.repair(1.0)],
        [
            (0.5, "crash", (1,)),
            (1.0, "is_crashed", (0,)),
            (1.0, "is_crashed", (1,)),
            (1.0, "is_crashed", (2,)),
            (1.0, "resync", (0, ("helper", 2))),
            (1.0, "resync", (2, ("helper", 0))),
        ],
    ),
}


def test_the_table_covers_the_vocabulary():
    assert sorted(CONTRACT) == sorted(FAULT_ACTIONS)


@pytest.mark.parametrize("action", FAULT_ACTIONS)
def test_schedule_calls_on_the_simulator(action):
    events, expected = CONTRACT[action]
    sim = Simulator(seed=0)
    target = Recorder(Network(sim, 3, delay=DelayModel.constant(0.1)))
    FaultSchedule(events).install(target)
    sim.run()
    assert target.calls == expected


@pytest.mark.parametrize("action", FAULT_ACTIONS)
def test_schedule_calls_on_a_live_cluster(action, tmp_path):
    events, expected = CONTRACT[action]
    if action == "reorder":
        # no live dial: refused when the schedule is loaded (`serve
        # --faults` exits 2 on it, test_service.py), never mid-run
        path = tmp_path / "faults.json"
        path.write_text(json.dumps([{"time": 1.0, "action": "reorder", "duration": 2.0}]))
        with pytest.raises(ValueError, match="unsupported live fault action 'reorder'"):
            load_fault_schedule(str(path))
        with pytest.raises(ValueError, match="supported: partition, heal"):
            LiveCluster(3, base_port=BASE_PORT).start_reorder(2.0)
        return

    async def body():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        cluster = LiveCluster(3, base_port=BASE_PORT)
        cluster.time_scale = TIME_SCALE
        await cluster.start()
        try:
            target = Recorder(cluster)
            FaultSchedule(events).install(target)
            await asyncio.sleep((expected[-1][0] + 1.0) * TIME_SCALE)
            while len(target.calls) < len(expected) and cluster.now < LATE:
                await asyncio.sleep(TIME_SCALE)
            return target.calls, live_effects(cluster), errors
        finally:
            await cluster.close()

    calls, effects, errors = asyncio.run(body())
    assert [call[1:] for call in calls] == [call[1:] for call in expected]
    for (at, name, _args), (due, _name, _) in zip(calls, expected):
        assert due <= at < due + LATE, (name, due, at)
    assert not errors, errors
    assert effects == LIVE_EFFECTS.get(action, {}), action


def live_effects(cluster):
    """What is left set on the proxies and nodes, defaults dropped."""
    effects = {}
    for pid, proxy in cluster.proxies.items():
        for dial in ("loss_rate", "duplicate_rate", "extra_delay", "group_of"):
            if getattr(proxy, dial):
                effects.setdefault(dial, {})[pid] = getattr(proxy, dial)
        if proxy.blocked_from:
            effects.setdefault("blocked_from", {})[pid] = set(proxy.blocked_from)
    crashed = [node.my_pid for node in cluster.nodes if node.crashed]
    if crashed:
        effects["crashed"] = crashed
    return effects


EVERY = (0, 1, 2)
#: what each row leaves behind on a 3-node cluster: a dial or a link call
#: reaches every proxy under the same name, each holds its own inbound
#: side; the one translation is `delay-scale`, in schedule time
LIVE_EFFECTS = {
    "partition": {"group_of": {pid: {0: 0, 1: 1, 2: 1} for pid in EVERY}},
    "crash": {"crashed": [1]},
    "loss": {"loss_rate": {pid: 0.2 for pid in EVERY}},
    "duplicate": {"duplicate_rate": {pid: 1.0 for pid in EVERY}},
    "delay-scale": {
        "extra_delay": {
            pid: 2.0 * LiveCluster.DELAY_UNIT * TIME_SCALE for pid in EVERY
        }
    },
    "partition-oneway": {"blocked_from": {2: {0, 1}}},
    "repair": {"crashed": [1]},
}


# ----------------------------------------------------------------------
# The behaviours the second interpreter had let drift
# ----------------------------------------------------------------------
DOWN_THROUGH_REPAIR = (F.crash(1.0, 1), F.repair(2.0), F.recover(3.0, 1))


def test_repair_does_not_revive_a_crashed_process_on_the_simulator():
    seen = []

    def watch(algorithm):
        network = algorithm.network
        for at in (1.5, 2.5, 3.5):
            network.schedule(at, lambda: seen.append(sorted(network.crashed)))

    spec = ScenarioSpec(
        name="down-through-repair",
        n=3,
        delay=DelaySpec("constant", (0.1,)),
        faults=DOWN_THROUGH_REPAIR,
        workload=WorkloadSpec(ops_per_process=4),
    )
    entry = ALGORITHMS["ccv-fig5"]
    result = Scenario(spec).run(
        entry.cls, seed=1, post_setup=watch, **entry.kwargs(2, 2)
    )
    assert seen == [[1], [1], []]
    assert result.algorithm.converged() and result.monitor.ok


@pytest.mark.parametrize("proxied", [True, False], ids=["proxied", "direct"])
def test_repair_does_not_revive_a_crashed_node_on_a_live_cluster(proxied):
    """The same three events.  Live `repair` used to send `recover` to
    every node, crashed ones included, and to do nothing at all on a
    cluster without proxies."""

    async def body():
        cluster = LiveCluster(3, base_port=BASE_PORT + 10, proxied=proxied)
        cluster.time_scale = 0.2
        await cluster.start()
        try:
            await asyncio.sleep(0.2)
            FaultSchedule(DOWN_THROUGH_REPAIR).install(cluster)
            seen = []
            for at in (1.5, 2.5, 3.5):
                await asyncio.sleep((at - cluster.now) * cluster.time_scale)
                seen.append([node.crashed for node in cluster.nodes])
            requested = [
                node.broadcast.stats()["resyncs_requested"] for node in cluster.nodes
            ]
            # the operator RPCs of the client protocol flip the same flag
            for cmd, down in (("crash", True), ("recover", False)):
                await client_call(cluster.client_addr(0), {"cmd": cmd})
                assert cluster.is_crashed(0) is down
            return seen, requested, cluster.fault_failures
        finally:
            await cluster.close()

    seen, requested, failures = asyncio.run(body())
    down = [False, True, False]
    assert seen == [down, down, [False, False, False]]
    # the sweep was a ring hop by each live node; node 1's is its rejoin
    assert requested == [1, 1, 1]
    assert not failures


def test_a_past_dated_event_is_refused_on_both_planes():
    sim = Simulator(seed=0)
    network = Network(sim, 2)
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match=r"fault at t=1.0 is in the past \(now=2.0\)"):
        FaultSchedule([F.heal(3.0), F.heal(1.0)]).install(network)
    assert not sim.pending

    async def body():
        cluster = LiveCluster(2, base_port=BASE_PORT + 20)  # never started
        cluster.time_scale = 0.01
        FaultSchedule([F.heal(0.0)]).install(cluster)  # the clock starts here
        await asyncio.sleep(0.05)
        late = FaultSchedule([F.heal(cluster.now + 2.0), F.heal(1.0)])
        with pytest.raises(ValueError, match=r"fault at t=1.0 is in the past"):
            late.install(cluster)
        await asyncio.sleep(0.05)  # nothing of it was scheduled
        await cluster.close()
        return late.applied

    assert asyncio.run(body()) == 0
