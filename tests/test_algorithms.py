"""Model-checking the replication algorithms (Props. 6-7) and baselines.

Every algorithm is run on randomized schedules and its *observed history*
is fed to the exact checkers: Fig. 4 must always be CC, Fig. 5 must always
be CCv (and EC/UC at quiescence), PRAM must be PC, the LWW baseline EC,
and the sequencer baseline SC.  Wait-freedom and fault-tolerance are
asserted directly (zero latency; progress despite crashes).
"""

import random

import pytest

from repro.adts import Counter, FifoQueue, GrowSet, MemoryADT, WindowStreamArray
from repro.algorithms import (
    CCWindowArray,
    CCvWindowArray,
    GenericCausal,
    GenericCCv,
    LwwReplication,
    PramReplication,
    ScSequencer,
)
from repro.core.operations import Invocation
from repro.criteria import check, check_eventual, check_update_consistency, verify_certificate
from repro.runtime import DelayModel, Network, Simulator
from repro.scenarios import (
    DelaySpec,
    FaultEvent,
    Scenario,
    ScenarioSpec,
    window_script,
)


def _scripts(seed, n, length, streams):
    return [
        window_script(random.Random(seed * 100 + pid), length, streams)
        for pid in range(n)
    ]


def _spec(n, streams=2, k=2, quiescence_reads=False, **fields):
    """A scripted condition: ``n`` processes on a ``streams`` x ``k``
    object, the default delays and think times unless ``fields`` say
    otherwise."""
    return ScenarioSpec(
        name="scripted", n=n, streams=streams, k=k,
        quiescence_reads=quiescence_reads, **fields,
    )


class TestFig4CausalConsistency:
    @pytest.mark.parametrize("seed", range(5))
    def test_histories_are_causally_consistent(self, seed):
        """Prop. 6, model-checked."""
        res = Scenario(_spec(3)).run(
            CCWindowArray, seed=seed, scripts=_scripts(seed, 3, 4, 2),
            streams=2, k=2,
        )
        adt = WindowStreamArray(2, 2)
        result = check(res.history, adt, "CC")
        assert result.ok, f"seed {seed}: {res.history}"
        verify_certificate(res.history, adt, result.certificate)

    def test_wait_free_zero_latency(self):
        spec = _spec(3, delay=DelaySpec("uniform", (10, 50)))
        res = Scenario(spec).run(
            CCWindowArray, seed=1, scripts=_scripts(1, 3, 5, 2),
            streams=2, k=2,
        )
        assert res.mean_latency == 0.0

    def test_progress_under_crashes(self):
        """All but one process may crash; the survivor keeps operating."""
        crashes = (FaultEvent.crash(0.5, 1), FaultEvent.crash(0.5, 2))
        res = Scenario(_spec(3, faults=crashes)).run(
            CCWindowArray, seed=2, scripts=_scripts(2, 3, 6, 2),
            streams=2, k=2,
        )
        survivor_ops = len(res.recorder.rows[0])
        assert survivor_ops == 6  # full script completed

    def test_write_costs_n_minus_1_messages_without_flooding(self):
        sim = Simulator(seed=0)
        net = Network(sim, 4)
        obj = CCWindowArray(sim, net, None, streams=1, k=2)
        obj.invoke(0, Invocation("w", (0, 5)))
        assert net.stats.sent == 3
        obj.invoke(0, Invocation("r", (0,)))
        assert net.stats.sent == 3  # reads are free

    def test_fig3c_shape_never_produced(self):
        """Sec. 6.2 'false causality': the algorithm is *strictly* stronger
        than CC — no run shows both processes reading their own write
        before the other's (each write's message reaches the other process
        either before or after its write, ordering them)."""
        for seed in range(30):
            sim = Simulator(seed=seed)
            net = Network(sim, 2, delay=DelayModel.uniform(0.5, 5.0))
            obj = CCWindowArray(sim, net, None, streams=1, k=2)
            obj.invoke(0, Invocation("w", (0, 1)))
            obj.invoke(1, Invocation("w", (0, 2)))
            sim.run()
            r0 = obj.invoke(0, Invocation("r", (0,)))
            r1 = obj.invoke(1, Invocation("r", (0,)))
            assert not (r0 == (2, 1) and r1 == (1, 2))


class TestFig5CausalConvergence:
    @pytest.mark.parametrize("seed", range(5))
    def test_histories_are_causally_convergent(self, seed):
        """Prop. 7, model-checked, plus quiescent EC/UC."""
        res = Scenario(_spec(3, quiescence_reads=True)).run(
            CCvWindowArray, seed=seed, scripts=_scripts(seed + 50, 3, 4, 2),
            streams=2, k=2,
        )
        adt = WindowStreamArray(2, 2)
        result = check(res.history, adt, "CCV")
        assert result.ok, f"seed {seed}: {res.history}"
        verify_certificate(res.history, adt, result.certificate)
        assert check_eventual(res.history, adt, res.stable).ok
        assert check_update_consistency(res.history, adt, res.stable).ok

    def test_replicas_converge_to_top_k_by_timestamp(self):
        sim = Simulator(seed=4)
        net = Network(sim, 3, delay=DelayModel.uniform(0.5, 8.0))
        obj = CCvWindowArray(sim, net, None, streams=1, k=2)
        for pid in range(3):
            obj.invoke(pid, Invocation("w", (0, pid + 10)))
        sim.run()
        windows = {obj.window(pid, 0) for pid in range(3)}
        assert len(windows) == 1, windows

    def test_lamport_clock_advances_on_receive(self):
        sim = Simulator(seed=5)
        net = Network(sim, 2, delay=DelayModel.constant(1.0))
        obj = CCvWindowArray(sim, net, None, streams=1, k=1)
        obj.invoke(0, Invocation("w", (0, 7)))
        sim.run()
        assert obj.replicas[1].vtime >= 1
        obj.invoke(1, Invocation("w", (0, 8)))
        sim.run()
        # p1's write is timestamped after p0's: the register holds 8
        assert obj.window(0, 0) == (8,) and obj.window(1, 0) == (8,)


class TestPaperLiteralInsertion:
    """Demonstrates the off-by-one in Fig. 5 as printed (the
    transcription note in ``repro/algorithms/ccv_window.py``)."""

    def test_literal_k1_register_ignores_all_writes(self):
        sim = Simulator(seed=0)
        net = Network(sim, 1)
        obj = CCvWindowArray(sim, net, None, streams=1, k=1, paper_literal=True)
        obj.invoke(0, Invocation("w", (0, 9)))
        sim.run()
        assert obj.window(0, 0) == (0,)  # the write was dropped!

    def test_literal_k2_drops_previous_newest(self):
        sim = Simulator(seed=0)
        net = Network(sim, 1)
        obj = CCvWindowArray(sim, net, None, streams=1, k=2, paper_literal=True)
        obj.invoke(0, Invocation("w", (0, 1)))
        obj.invoke(0, Invocation("w", (0, 2)))
        sim.run()
        # sequentially writing 1 then 2 must leave (1, 2); the literal
        # transcription leaves value 1 nowhere
        assert obj.window(0, 0) != (1, 2)

    def test_corrected_version_matches_sequential_spec(self):
        sim = Simulator(seed=0)
        net = Network(sim, 1)
        obj = CCvWindowArray(sim, net, None, streams=1, k=2)
        for v in (1, 2, 3):
            obj.invoke(0, Invocation("w", (0, v)))
        sim.run()
        assert obj.window(0, 0) == (2, 3)


class TestGenericAlgorithms:
    def test_generic_causal_on_queue(self):
        q = FifoQueue()
        scripts = [
            [Invocation("push", (1,)), Invocation("pop"), Invocation("pop")],
            [Invocation("push", (2,)), Invocation("pop")],
        ]
        res = Scenario(_spec(2)).run(GenericCausal, seed=6, scripts=scripts, adt=q)
        assert check(res.history, q, "CC").ok

    def test_generic_causal_on_counter_and_set(self):
        for adt, script in (
            (Counter(), [Invocation("inc"), Invocation("read"), Invocation("fetch_inc")]),
            (GrowSet(), [Invocation("add", (1,)), Invocation("snapshot")]),
        ):
            res = Scenario(_spec(3)).run(
                GenericCausal, seed=8, scripts=[script] * 3, adt=adt
            )
            assert check(res.history, adt, "CC").ok, adt.name

    def test_generic_ccv_on_queue_converges(self):
        q = FifoQueue()
        scripts = [[Invocation("push", (pid,))] for pid in range(3)]
        res = Scenario(_spec(3)).run(
            GenericCCv, seed=9, scripts=scripts, adt=q,
            quiescence_reads=[Invocation("pop")],
        )
        assert check(res.history, q, "CCV").ok
        # converged: all three post-quiescence pops return the same head
        stable_outs = {
            res.history.event(e).output for e in res.stable
        }
        assert len(stable_outs) == 1

    def test_generic_ccv_log_lengths_agree(self):
        res = Scenario(_spec(3)).run(
            GenericCCv, seed=10,
            scripts=[[Invocation("add", (pid,))] for pid in range(3)],
            adt=GrowSet(),
        )
        lengths = {len(res.algorithm.replicas[pid].log) for pid in range(3)}
        assert lengths == {3}


class TestBaselines:
    @pytest.mark.parametrize("seed", range(3))
    def test_pram_histories_are_pipelined(self, seed):
        mem = MemoryADT("ab")
        scripts = [
            [Invocation("w", ("a", seed * 10 + pid)), Invocation("r", ("b",)), Invocation("r", ("a",))]
            for pid in range(3)
        ]
        res = Scenario(_spec(3)).run(
            PramReplication, seed=seed, scripts=scripts, adt=mem
        )
        assert check(res.history, mem, "PC").ok

    def test_lww_converges_at_quiescence(self):
        mem = MemoryADT("ab")
        scripts = [
            [Invocation("w", ("a", pid + 1))] for pid in range(3)
        ]
        res = Scenario(_spec(3)).run(
            LwwReplication, seed=12, scripts=scripts, adt=mem,
            clock_skew=1.0, quiescence_reads=[Invocation("r", ("a",))],
        )
        assert check_eventual(res.history, mem, res.stable).ok

    def test_lww_can_violate_causality(self):
        """The forum anomaly: with non-causal delivery some schedule lets a
        process see the answer without the question."""
        mem = MemoryADT("qa")
        anomalies = 0
        for seed in range(40):
            sim = Simulator(seed=seed)
            net = Network(sim, 3, delay=DelayModel.uniform(0.5, 20.0))
            obj = LwwReplication(sim, net, None, adt=mem)
            obj.invoke(0, Invocation("w", ("q", 1)))

            def answer_if_seen() -> None:
                if obj.invoke(1, Invocation("r", ("q",))) == 1:
                    obj.invoke(1, Invocation("w", ("a", 2)))

            sim.schedule(5.0, answer_if_seen)

            seen = {}

            def probe() -> None:
                seen["a"] = obj.invoke(2, Invocation("r", ("a",)))
                seen["q"] = obj.invoke(2, Invocation("r", ("q",)))

            sim.schedule(10.0, probe)
            sim.run()
            if seen.get("a") == 2 and seen.get("q") == 0:
                anomalies += 1
        assert anomalies > 0, "expected at least one answer-without-question"

    @pytest.mark.parametrize("seed", range(3))
    def test_sequencer_histories_are_sequentially_consistent(self, seed):
        adt = WindowStreamArray(2, 2)
        res = Scenario(_spec(3)).run(
            ScSequencer, seed=seed, scripts=_scripts(seed + 77, 3, 3, 2),
            adt=adt,
        )
        assert check(res.history, adt, "SC").ok

    def test_sequencer_latency_tracks_network_delay(self):
        adt = WindowStreamArray(1, 1)
        lat = {}
        for d in (1.0, 8.0):
            spec = _spec(3, streams=1, k=1, delay=DelaySpec("constant", (d,)))
            res = Scenario(spec).run(
                ScSequencer, seed=3, scripts=_scripts(3, 3, 4, 1), adt=adt
            )
            lat[d] = res.mean_latency
        assert lat[8.0] > 4 * lat[1.0]

    def test_sequencer_blocks_when_sequencer_crashes(self):
        """The SC baseline is not fault-tolerant: crash the sequencer and
        non-sequencer operations never complete (contrast with Fig. 4)."""
        adt = WindowStreamArray(1, 1)
        spec = _spec(3, streams=1, k=1, faults=(FaultEvent.crash(0.0, 0),))
        res = Scenario(spec).run(
            ScSequencer, seed=4,
            scripts=[[Invocation("w", (0, 1))] for _ in range(3)], adt=adt,
        )
        assert res.ops == 0  # nothing completed
