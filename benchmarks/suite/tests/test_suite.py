"""The benchmark's own checks: inputs are a function of the seed, the
estimators and the self-time arithmetic do what the README says, a
traced run leaves no wrapper behind, and ``BENCHMARK.json`` names
exactly what the workloads report.  No sockets, no timing assertions.
"""

import json
import pathlib
import sys

import pytest

SUITE = pathlib.Path(__file__).resolve().parents[1]
ROOT = SUITE.parents[1]
for path in (str(ROOT / "src"), str(SUITE.parent)):
    if path not in sys.path:
        sys.path.insert(0, path)

from suite import harness, live, monitor, sim, trace  # noqa: E402
from suite import run as suite_run  # noqa: E402


#: what an untraced run of any workload reports
END_TO_END = ("ops_per_s", "p50_ms", "p99_ms", "cpu_us_per_op", "peak_rss_mb", "setup_s")


@pytest.fixture
def small_monitor(monkeypatch):
    """The monitor workload at a size that runs in a blink."""
    monkeypatch.setattr(monitor, "STREAM_OPS", 1_500)
    monkeypatch.setattr(monitor, "SPLICED_OPS", 600)


@pytest.fixture(scope="module")
def catalogue():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _inputs(workload, seed):
    if workload.startswith("live_"):
        return live.make_inputs(workload, seed, seconds=1.0)
    if workload == "sim_faults":
        return sim.make_inputs(seed)
    return monitor.make_inputs(seed)


@pytest.mark.parametrize(
    "workload", ["live_write_sat", "live_read_paced", "sim_faults", "monitor_stream"]
)
def test_inputs_are_a_function_of_the_seed(workload, small_monitor):
    first = harness.input_sha256(_inputs(workload, 7))
    assert harness.input_sha256(_inputs(workload, 7)) == first
    assert harness.input_sha256(_inputs(workload, 8)) != first


def test_spliced_stream_closes_where_the_inputs_say(small_monitor):
    inputs = monitor.make_inputs(3)
    found = monitor.check_spliced(
        monitor.to_ops(inputs["spliced"]), inputs["spliced_index"]
    )
    assert found["spliced_pattern"] == monitor.EXPECTED_PATTERN
    assert found["spliced_index"] == inputs["spliced_index"]
    assert found["detect_lag_ops"] == 0


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def test_better_decile_takes_the_side_stalls_do_not_reach():
    slices = [float(v) for v in range(1, 12)]  # 1..11: p10 = 1.2, p90 = 10.8
    assert harness.better_decile(slices, "higher") == pytest.approx(10.8)
    assert harness.better_decile(slices, "lower") == pytest.approx(1.2)
    # one stalled slice does not move the side it is not on
    assert harness.better_decile(slices[:-1] + [1000.0], "lower") == pytest.approx(1.2)
    assert harness.better_decile([0.001] + slices[1:], "higher") == pytest.approx(10.8)
    assert harness.better_decile([5.0], "higher") == 5.0
    with pytest.raises(ValueError):
        harness.better_decile([], "higher")
    with pytest.raises(ValueError):
        harness.better_decile(slices, "faster")

    # a closed loop reports the median slice, an open loop the better decile
    columns = {name: slices for name in harness.BETTER}
    assert harness.summarise_slices(columns, open_loop=False)["metrics"]["p99_ms"] == 6.0
    assert harness.summarise_slices(columns, open_loop=True)["metrics"] == pytest.approx(
        {"ops_per_s": 10.8, "p50_ms": 1.2, "p99_ms": 1.2, "cpu_us_per_op": 1.2}
    )


def test_best_of_passes_is_the_per_slice_lower_quartile():
    passes = [[3.0, 9.0, 2.0], [4.0, 1.0, 2.5], [3.5, 8.0, 7.0]]
    assert harness.best_of_passes(passes) == [3.0, 1.0, 2.0]  # < 4 passes: minimum
    # eight passes: the third-best, so a lucky reading is not believed
    eight = [[float(v)] for v in (5, 0.1, 6, 7, 5.5, 9, 8, 6.5)]
    assert harness.best_of_passes(eight) == [5.5]
    with pytest.raises(ValueError):
        harness.best_of_passes([[1.0], [1.0, 2.0]])


def _calibration(readings):
    """A Calibration holding ``(when, took)`` readings."""
    calibration = harness.Calibration(unit=lambda: 0.0)
    for when, took in readings:
        calibration.when.append(when)
        calibration.took.append(took)
    return calibration


def test_slowness_is_a_median_that_one_disturbed_reading_cannot_move():
    ref = harness.CALIBRATION_REFERENCE_S
    calibration = _calibration(
        [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, 9 * ref), (4.0, 2 * ref), (9.0, ref)]
    )
    # readings inside [1.5, 3.5] are at 2.0 and 3.0; two neighbours each side
    assert calibration.slowness(1.5, 3.5) == pytest.approx(2.0)
    # an interval with no reading inside still has its neighbours
    assert calibration.slowness(5.0, 6.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        harness.Calibration().slowness(0.0, 1.0)


def _pass_clock(calibration, spans, ops):
    clock = harness.PassClock(calibration)
    clock.start = [a for a, _b in spans]
    clock.wall = [b - a for a, b in spans]
    clock.cpu = list(clock.wall)
    clock.ops = list(ops)
    return clock


def test_summarise_passes_reports_work_over_best_time_at_reference_speed():
    ref = harness.CALIBRATION_REFERENCE_S
    # two slices of 100 ops and a tail slice that holds time but no ops;
    # the second pass ran on a host twice as slow and took twice as long
    fast = _calibration([(0.0, ref), (10.0, ref)])
    slow = _calibration([(0.0, 2 * ref), (10.0, 2 * ref)])
    first = _pass_clock(fast, [(1.0, 1.2), (2.0, 2.4), (3.0, 3.1)], [100, 100, 0])
    second = _pass_clock(slow, [(1.0, 1.4), (2.0, 2.6), (3.0, 3.2)], [100, 100, 0])
    summary = harness.summarise_passes(200, [first, second])
    metrics = summary["metrics"]
    # scaled, the slow pass reads 0.2, 0.3, 0.1: it wins the second slice
    assert metrics["ops_per_s"] == pytest.approx(200 / 0.6)
    assert metrics["cpu_us_per_op"] == pytest.approx(0.6 / 200 * 1e6)
    assert metrics["p50_ms"] == pytest.approx(2000.0)  # 0.2 s per 100 ops
    assert metrics["p99_ms"] == pytest.approx(3000.0)
    assert summary["detail"]["passes"] == 2
    assert summary["detail"]["raw_ops_per_s"] == pytest.approx(200 / 0.7)
    # a typical pass, none chosen: 0.7 s and 0.6 s at the reference speed
    assert harness.pass_cpu_us_per_op(200, [first, second]) == pytest.approx(0.65 / 200 * 1e6)


def test_slices_close_at_the_first_completion_past_the_edge():
    slices = harness.Slices(start=100.0, length=1.0)
    for now in (100.2, 100.4, 100.9):
        slices.record(now, 0.010)
    slices.record(101.3, 0.020, ok=False)  # closes the first slice at 101.3
    slices.close(102.0)
    assert [row["ops"] for row in slices.rows] == [3, 1]
    assert slices.rows[0]["wall"] == pytest.approx(1.3)
    assert slices.failed == 1
    # a failed op is charged the call timeout, so it misses any limit
    assert slices.rows[1]["lat"] == [harness.FAILED_LATENCY_S]

    twice_as_slow = _calibration([(100.0, 2 * harness.CALIBRATION_REFERENCE_S)])
    closed = slices.per_slice(101.0, twice_as_slow, open_loop=False)
    assert closed["raw_ops_per_s"] == [pytest.approx(1 / 0.7)]
    assert closed["ops_per_s"] == [pytest.approx(2 / 0.7)]
    assert closed["p50_ms"] == [pytest.approx(harness.FAILED_LATENCY_S * 1e3 / 2)]
    # an open loop's completion rate is the schedule's, not the host's
    paced = slices.per_slice(101.0, twice_as_slow, open_loop=True)
    assert paced["ops_per_s"] == paced["raw_ops_per_s"]
    assert slices.rate(100.0) == pytest.approx(4 / 2.0)
    assert slices.rate(101.0) == pytest.approx(1 / 0.7)
    # all slices, none chosen: 6 ms of CPU at half speed over 4 ops
    slices.rows[0]["cpu"], slices.rows[1]["cpu"] = 0.004, 0.002
    assert slices.cpu_us_per_op(100.0, twice_as_slow) == pytest.approx(750.0)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    tracer = trace.Tracer(clock)

    def leaf():
        clock.now += 5

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 2
        traced_leaf()
        traced_leaf()
        clock.now += 1

    traced_middle = tracer.wrap("middle", middle)

    def outer():
        clock.now += 10
        traced_middle()
        clock.now += 20

    tracer.wrap("outer", outer)()
    assert tracer.self_ns == {"leaf": 10, "middle": 3, "outer": 30}
    assert tracer.total_ns == {"leaf": 10, "middle": 13, "outer": 43}
    assert tracer.count == {"leaf": 2, "middle": 1, "outer": 1}
    assert not tracer.stack
    # the ledger adds up to the CPU it is given, by construction
    rows = trace.ledger(tracer, ops=1, cpu_s=50e-9)
    layers = sum(rows[f"{name}_us_per_op"] for name in ("leaf", "middle", "outer"))
    assert layers + rows["loop.residual_us_per_op"] == pytest.approx(0.05)
    assert rows["trace.coverage_share"] == pytest.approx(43 / 50)


def test_a_span_that_raises_is_closed():
    clock = FakeClock()
    tracer = trace.Tracer(clock)

    def boom():
        clock.now += 4
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.self_ns["boom"] == 4 and not tracer.stack


def test_a_coroutine_is_traced_one_step_at_a_time():
    import asyncio

    clock = FakeClock()
    tracer = trace.Tracer(clock)

    async def call():
        clock.now += 3
        await asyncio.sleep(0)  # suspended: whoever runs now is not our child
        clock.now += 4
        return "done"

    async def other():
        clock.now += 100

    async def main():
        traced = tracer.wrap_async("call", call)
        result, _ = await asyncio.gather(traced(), other())
        return result

    assert asyncio.run(main()) == "done"
    assert tracer.self_ns["call"] == 7
    assert tracer.count["call"] == 2


def _patched_attributes():
    targets = [(owner, attr) for owner, attr, _name, _rid in trace.PATCHES]
    targets += [(trace.ClientSession, "call"), (trace.StreamingMonitor, "feed")]
    return {(owner, attr): vars(owner)[attr] for owner, attr in targets}


def test_wrappers_are_fully_removed_after_a_traced_run(small_monitor):
    before = _patched_attributes()
    result = monitor.run(seed=5, seconds=0.01, traced=True)
    assert _patched_attributes() == before
    assert result["correct"]
    assert set(result["metrics"]) == set(monitor.LAYER_METRICS)
    spans = result["detail"]["spans"]
    fed = spans["streaming_monitor.feed_write"]["count"] + spans["streaming_monitor.feed_read"]["count"]
    assert fed == monitor.STREAM_OPS
    assert len(json.dumps(result["raw_spans"])) < 5 * 1024 * 1024


def test_handler_tables_are_restored():
    tracer = trace.Tracer()
    installed = trace.Installed(tracer)
    seen = []
    handlers = {0: lambda src, message: seen.append(message)}
    original = handlers[0]
    installed.wrap_handlers(handlers, "broadcast.receive")
    handlers[0](1, {"id": (1, 0)})
    assert tracer.count["broadcast.receive"] == 1 and seen == [{"id": (1, 0)}]
    installed.remove()
    assert handlers[0] is original


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_names_what_the_workloads_report(catalogue):
    assert catalogue["paths"] == ["benchmarks/suite"]
    assert catalogue["command"] == ["python3", "benchmarks/suite/run.py"]
    workloads = [w["name"] for w in catalogue["workloads"]]
    assert workloads == ["live_write_sat", "live_read_paced", "sim_faults", "monitor_stream"]
    end_to_end = {m["name"]: m for m in catalogue["end_to_end"]}
    assert set(end_to_end) == set(END_TO_END)
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in end_to_end.values())
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end.values())
    reported = set(live.LAYER_METRICS) | set(sim.LAYER_METRICS) | set(monitor.LAYER_METRICS)
    assert {m["name"] for m in catalogue["per_layer"]} == reported


def test_report_prints_and_returns_exactly_the_catalogue(catalogue, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    result = {
        "input_sha256": "0" * 64,
        "metrics": {name: 1.5 for name in END_TO_END},
        "checks": {"correct": True},
        "attempted": 10,
        "failed": 0,
        "correct": True,
    }
    line = suite_run.report(catalogue, "sim_faults", 1, False, result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in catalogue["end_to_end"]]
    printed = capsys.readouterr().out
    for metric in catalogue["end_to_end"]:
        assert f"{metric['name']} " in printed and f" {metric['unit']}\n" in printed
    assert (tmp_path / "sim_faults-seed1-untraced.json").exists()

    # a per-layer metric of a layer the workload does not execute is
    # absent from the table and 0 on the driver's line
    traced = dict(result, metrics={"loop.residual_us_per_op": 2.0})
    line = suite_run.report(catalogue, "sim_faults", 1, True, traced)
    assert line["metrics"]["loop.residual_us_per_op"]["value"] == 2.0
    assert line["metrics"]["tap.spills"]["value"] == 0.0
    assert "tap.spills" not in capsys.readouterr().out

    with pytest.raises(SystemExit):
        suite_run.report(catalogue, "sim_faults", 1, True, dict(result, metrics={"nope": 1.0}))
    with pytest.raises(SystemExit):
        suite_run.report(catalogue, "sim_faults", 1, False, dict(result, metrics={"ops_per_s": 1.0}))
