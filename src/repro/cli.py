"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's artifacts from a terminal:

- ``litmus``     — the Fig. 3 classification table (E3);
- ``hierarchy``  — the Fig. 1 inclusion audit on random histories (E1);
- ``consensus``  — the consensus-number matrix of W_k (E7);
- ``latency``    — operation latency vs network delay (E6);
- ``sessions``   — session-guarantee violation rates per algorithm (E9);
- ``classify``   — classify a user-supplied history from a JSON file;
- ``explore``    — the scenario × algorithm × seed matrix: run named
  fault/workload scenarios against their algorithms in parallel and check
  each observed history against the algorithm's advertised criterion;
- ``chaos``      — seeded random fault schedules with runtime invariant
  monitors; failing schedules are ddmin-minimised to replayable repro
  JSON files (the chaos regression corpus).

The JSON history format accepted by ``classify``::

    {
      "adt": {"type": "window", "k": 2},        // or "memory"/"queue"/...
      "processes": [
        [{"method": "w", "args": [1]},
         {"method": "r", "output": [0, 1]}],
        [{"method": "w", "args": [2]}]
      ],
      "criteria": ["SC", "CC", "CCV"]            // optional
    }

An op may carry its real-time interval, numbers ``"start"`` and ``"end"``;
``LIN`` is checked against them, ``?`` when an op lacks one.

Outputs are printed as plain-text tables; exit status is 0 unless a
requested assertion (e.g. litmus match) fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict, List, Optional, Sequence

from .adts import (
    Counter,
    FifoQueue,
    GrowSet,
    MemoryADT,
    Register,
    SplitQueue,
    Stack,
    WindowStream,
)
from .chaos import CHAOS_ALGORITHMS, INJECTIONS
from .core import History, Operation
from .core.operations import BOTTOM, HIDDEN, Invocation, output_from_json
from .criteria import check, decide
from .util.tables import render_table

def _window_array(spec: Dict[str, Any]):
    # the multi-stream array the runtime algorithms implement — live
    # service captures classify against it (streams/k match the cluster)
    from .adts.window_stream import WindowStreamArray

    return WindowStreamArray(int(spec.get("streams", 2)), int(spec.get("k", 2)))


ADT_FACTORIES = {
    "window": lambda spec: WindowStream(int(spec.get("k", 2))),
    "window-array": _window_array,
    "register": lambda spec: Register(),
    "memory": lambda spec: MemoryADT(spec.get("registers", "abcdef")),
    "queue": lambda spec: FifoQueue(),
    "split-queue": lambda spec: SplitQueue(),
    "stack": lambda spec: Stack(),
    "counter": lambda spec: Counter(),
    "gset": lambda spec: GrowSet(),
}


def load_history(spec: Dict[str, Any]):
    """Build ``(History, ADT, criteria)`` from a JSON specification.

    A malformed document raises ``ValueError`` naming the bad field."""
    if not isinstance(spec, dict):
        raise ValueError(
            f"a history is a JSON object with \"adt\" and \"processes\", "
            f"not a {type(spec).__name__}"
        )
    adt_spec = spec.get("adt", {})
    adt_type = adt_spec.get("type", "window")
    try:
        adt = ADT_FACTORIES[adt_type](adt_spec)
    except KeyError:
        known = ", ".join(sorted(ADT_FACTORIES))
        raise ValueError(f"unknown adt type {adt_type!r}; known: {known}") from None
    rows = []
    times: List[List[float]] = []
    timed = True
    for pid, row_spec in enumerate(spec.get("processes", [])):
        row = []
        row_times = []
        for index, op_spec in enumerate(row_spec):
            try:
                method = op_spec["method"]
            except (KeyError, TypeError):
                raise ValueError(
                    f"processes[{pid}][{index}] has no \"method\""
                ) from None
            invocation = Invocation(method, tuple(op_spec.get("args", ())))
            output = output_from_json(op_spec.get("output"))
            if adt.is_update(invocation) and not adt.is_query(invocation) and output is HIDDEN:
                output = BOTTOM
            row.append(Operation(invocation, output))
            start = op_spec.get("start")
            if start is None:
                timed = False
                continue
            try:
                row_times.append(float(start))
            except (TypeError, ValueError):
                raise ValueError(
                    f"processes[{pid}][{index}] \"start\" is not a "
                    f"number: {start!r}"
                ) from None
        rows.append(row)
        times.append(row_times)
    criteria = [c.upper() for c in spec.get("criteria", ("SC", "CC", "CCV", "PC", "WCC"))]
    # invocation timestamps (optional "start" per op) ride along exactly
    # like recorder histories carry them: the witness-guided CCv search
    # seeds its enumeration from them, and the streaming monitor replays
    # in recorded-time order — the true streaming path.  Live service
    # captures always include them; hand-written litmus files need not.
    history = History.from_processes(rows, times=times if timed else None)
    return history, adt, criteria


def _decide_lin(spec: Dict[str, Any], history: History, adt: Any, search: bool):
    """LIN needs what a history does not hold, each op's real-time
    interval: checked against the file's numeric ``start``/``end``, ``?``
    where one is missing, never the SC answer under LIN's name."""
    from .criteria import check_linearizable
    from .criteria.verdict import SEARCH_MAX_OPS, Verdict

    ops = [  # in event order: row-major, as History.from_processes numbers
        (f"processes[{pid}][{index}]", op)
        for pid, row in enumerate(spec.get("processes", []))
        for index, op in enumerate(row)
    ]
    missing = [
        f'{where} "{name}"' for where, op in ops for name in ("start", "end")
        if not isinstance(op.get(name), (int, float))
    ]
    if missing:
        note = "LIN needs each op's real-time interval: no " + ", ".join(missing[:3])
        return Verdict("LIN", None, note=note + (", ..." if missing[3:] else ""))
    if not search or len(history) > SEARCH_MAX_OPS:
        return decide(history, adt, "LIN", search=search)
    intervals = {eid: (op["start"], op["end"]) for eid, (_, op) in enumerate(ops)}
    result = check_linearizable(history, adt, intervals)
    return Verdict("LIN", result.ok, result)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_litmus(args: argparse.Namespace) -> int:
    from .litmus import all_litmus

    criteria = ("SC", "CC", "CCV", "PC", "WCC", "CM")
    rows = []
    mismatches = 0
    for litmus in all_litmus():
        cells: List[str] = [litmus.key, litmus.title]
        for criterion in criteria:
            if criterion not in litmus.expected:
                cells.append("-")
                continue
            got = check(litmus.history, litmus.adt, criterion).ok
            mark = "yes" if got else "no"
            if got != litmus.expected[criterion]:
                mark += "!"
                mismatches += 1
            cells.append(mark)
        rows.append(cells)
    print(render_table(["fig", "title", *criteria], rows))
    print(f"\nmismatches vs verified classification: {mismatches}")
    return 1 if mismatches else 0


def cmd_hierarchy(args: argparse.Namespace) -> int:
    from .analysis import classify_population, format_report

    report = classify_population(
        seed=args.seed,
        random_histories=args.histories,
        scenario_histories=args.scenario_histories,
    )
    print(format_report(report))
    return 1 if report.inclusion_violations else 0


def cmd_consensus(args: argparse.Namespace) -> int:
    from .analysis import consensus_matrix, format_matrix

    rates = consensus_matrix(
        max_n=args.max_n, max_k=args.max_k, runs=args.runs, seed=args.seed
    )
    print(format_matrix(rates))
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    from .analysis import format_sweep, latency_sweep

    points = latency_sweep(
        delays=tuple(args.delays), ops_per_process=args.ops, seed=args.seed
    )
    print(format_sweep(points))
    return 0


def cmd_sessions(args: argparse.Namespace) -> int:
    from .analysis import format_session_table, session_guarantee_rates

    reports = session_guarantee_rates(
        runs=args.runs, ops_per_process=args.ops, seed=args.seed
    )
    print(format_session_table(reports))
    return 0


_WORK_COUNTERS = (
    ("families", "fam"),
    ("event_checks", "checks"),
    ("memo_hits", "memo"),
    ("propagate_steps", "prop"),
    ("total_orders", "orders"),
    ("orders_to_witness", "witness@"),
    ("orders_pruned", "pruned"),
    ("conflict_cuts", "cut"),
    ("lin_nodes", "lin"),
)


def _int_at_least(minimum: int, note: str = ""):
    """argparse type: an int >= ``minimum``.

    Refusing at the parser keeps a bad value out of what it sizes, where
    it would fail opaquely long after argument handling: ``--jobs -1``
    in the process pool, ``--runs 0`` dividing by zero.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}{note}, got {value}"
            )
        return value

    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0 — ``--delays`` (a negative mean
    delay would schedule deliveries in the past, mid-sweep), ``load
    --rate`` and ``--duration`` (zero issues nothing), ``serve
    --time-scale`` (``nan`` passes a ``<= 0`` test)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}"
        )
    return value


def _format_work(stats: Dict[str, Any]) -> str:
    """Compact search-work summary for the classify table."""
    parts = [
        f"{label}={stats[key]}"
        for key, label in _WORK_COUNTERS
        if stats.get(key)
    ]
    return " ".join(parts) if parts else "-"


def cmd_explore(args: argparse.Namespace) -> int:
    from concurrent.futures.process import BrokenProcessPool

    from .scenarios import (
        SCALE_SCENARIOS,
        format_matrix_report,
        get_scenario,
        run_matrix,
        scenario_names,
    )

    if args.list:
        for name in scenario_names(include_scale=True, include_chaos=True):
            spec = get_scenario(name)
            print(f"{name:24s} {spec.description}")
        return 0
    scenarios = args.scenario or scenario_names()
    if args.scale and not any(s in SCALE_SCENARIOS for s in scenarios):
        scenarios = [*scenarios, *SCALE_SCENARIOS]
    try:
        report = run_matrix(
            scenarios, args.algorithm, seeds=args.seeds, jobs=args.jobs,
            fast=args.fast, only=args.only,
        )
    except KeyError as exc:
        # an unknown --scenario/--algorithm, or an --only matching no
        # cell, is refused before any cell runs; any other KeyError is a
        # bug and keeps its trace
        if not str(exc.args[0]).startswith(("unknown ", "--only ")):
            raise
        print(f"repro explore: {exc.args[0]}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:
        print(f"repro explore: a worker died: {exc}", file=sys.stderr)
        return 1
    print(format_matrix_report(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import replay_file, run_chaos

    if args.replay:
        failed = 0
        for path in args.replay:
            try:
                outcome, doc = replay_file(path)
            except ValueError as exc:
                print(f"repro chaos: {exc}", file=sys.stderr)
                return 2
            expect = bool(doc.get("expect_failure"))
            recorded = set(doc.get("failure_kinds", ()))
            if expect:
                reproduced = bool(recorded.intersection(outcome.kinds))
                status = "reproduced" if reproduced else "NOT reproduced"
                if not reproduced:
                    failed += 1
            else:
                status = "clean" if not outcome.failed else "FAILED"
                if outcome.failed:
                    failed += 1
            print(f"{path}: {status} ({', '.join(outcome.kinds) or 'ok'})")
        return 1 if failed else 0

    report = run_chaos(
        seed=args.seed,
        trials=args.trials,
        algorithms=tuple(args.algorithm or CHAOS_ALGORITHMS),
        inject=args.inject,
        n=args.n,
        ops=args.ops,
        save_dir=args.save_dir,
        stop_on_failure=not args.keep_going,
        check_criterion=not args.no_check,
        log=print,
    )
    print(
        f"chaos: seed={report.seed} inject={report.inject} "
        f"runs={report.runs} failures={len(report.failures)}"
    )
    for failure in report.failures:
        print(
            f"  trial {failure.trial} [{failure.algorithm}]: "
            f"{', '.join(failure.kinds)} — minimised "
            f"{failure.original_events} -> {len(failure.minimized)} events"
            + (f" ({failure.path})" if failure.path else "")
        )
    if args.expect_failure:
        return 0 if report.failures else 1
    return 0 if report.ok else 1


#: monitor counters surfaced by ``classify`` (and its ``--json``),
#: mirroring the search-side ``_WORK_COUNTERS``; ``feed_order`` says
#: whether the replay followed recorded timestamps or, lacking them,
#: fell back to program order (same verdicts, more reads parked)
_MONITOR_COUNTERS = (
    "ops_seen",
    "feed_order",
    "rf_edges",
    "rf_merges_skipped",
    "cf_edges",
    "d_edges",
    "hb_edges",
    "patterns_checked",
    "order_searches",
    "order_moved",
    "first_violation_index",
)


def cmd_classify(args: argparse.Namespace) -> int:
    from .criteria.streaming_monitor import SUPPORTED_CRITERIA, replay_history

    try:
        with open(args.file) as fh:
            spec = json.load(fh)
        history, adt, criteria = load_history(spec)
    except ValueError as exc:
        print(f"repro classify: {args.file}: {exc}", file=sys.stderr)
        return 2
    print(f"history: {history}")
    wanted = [c for c in criteria if c in SUPPORTED_CRITERIA]
    monitored = replay_history(
        history, adt, criteria=wanted or SUPPORTED_CRITERIA
    )
    rows = []
    doc: Dict[str, Any] = {"file": args.file, "history": str(history), "criteria": {}}
    for criterion in criteria:
        # below the op cutoff nothing bounds the search's time
        if criterion == "LIN":
            verdict = _decide_lin(spec, history, adt, not args.streaming_only)
        else:
            verdict = decide(
                history, adt, criterion,
                search=not args.streaming_only,
                monitor=monitored.get(criterion),
            )
        work = dict(verdict.result.stats or {}) if verdict.result is not None else {}
        rows.append(
            [criterion, _holds(verdict.ok), verdict.reason, _format_work(work)]
        )
        doc["criteria"][criterion] = {
            "ok": verdict.ok, "reason": verdict.reason, "stats": work,
        }
    print(render_table(["criterion", "holds", "reason", "work"], rows))
    # histories exported with per-run network accounting (an explore
    # --json cell has a "network" block: sent/delivered/elided
    # /suppressed_relays/pulled, where delivered counts first arrivals and
    # elided the copies skipped or folded into them) surface it here,
    # msgs/op included; a bare history carries no traffic, so classify
    # stays a pure history tool otherwise
    network = spec.get("network")
    if isinstance(network, dict):
        doc["network"] = dict(network)
        if network.get("sent") is not None and len(history):
            doc["network"]["msgs_per_op"] = round(
                network["sent"] / len(history), 2
            )
        print(
            "network: "
            + ", ".join(f"{key}={val}" for key, val in doc["network"].items())
        )
    stats: Dict[str, Any] = {}
    srows = []
    doc["streaming"] = {"criteria": {}, "stats": {}}
    for criterion, mv in monitored.items():
        stats = dict(mv.stats or stats)
        bad = mv.violation
        pattern = bad.pattern if bad else None
        srows.append([criterion, _holds(mv.ok), pattern or "-", mv.reason or "-"])
        doc["streaming"]["criteria"][criterion] = {
            "ok": mv.ok,
            "reason": mv.reason,
            "pattern": pattern,
            "first_violation_index": bad.index if bad else None,
            "witness": [list(op) for op in bad.witness] if bad else None,
        }
    doc["streaming"]["stats"] = {
        key: stats.get(key) for key in _MONITOR_COUNTERS if key in stats
    }
    print()
    print("streaming monitor (single-pass bad-pattern search):")
    print(render_table(["criterion", "holds", "pattern", "reason"], srows))
    work = " ".join(
        f"{key}={stats[key]}"
        for key in _MONITOR_COUNTERS
        if stats.get(key) is not None
    )
    print(f"monitor work: {work or '-'}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"report written to {args.json_out}")
    return 0


def _holds(ok: Optional[bool]) -> str:
    return "?" if ok is None else ("yes" if ok else "no")


def _pid_outside(command: str, args: argparse.Namespace) -> bool:
    """Refuse (one stderr line) a ``--pid`` that is no node of ``--n``."""
    if args.pid is None or 0 <= args.pid < args.n:
        return False
    print(
        f"repro {command}: --pid {args.pid} is not a node of 0..{args.n - 1}",
        file=sys.stderr,
    )
    return True


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .scenarios.faults import FaultSchedule
    from .service import LiveCluster, ServiceNode, load_fault_schedule, port_layout

    def refused(exc: ValueError) -> int:
        """The configuration was rejected (a fault action the live plane
        cannot apply, an unknown or not wait-free algorithm) before
        anything was started."""
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2

    if _pid_outside("serve", args):
        return 2
    try:
        events = load_fault_schedule(args.faults) if args.faults else []
    except ValueError as exc:
        return refused(exc)

    async def until_done() -> None:
        """``--duration`` seconds, or until interrupted."""
        try:
            await asyncio.sleep(args.duration or float("inf"))
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass

    async def run_cluster() -> int:
        try:
            cluster = LiveCluster(
                args.n,
                base_port=args.base_port,
                algorithm=args.algorithm,
                streams=args.streams,
                k=args.k,
                seed=args.seed,
                proxied=not args.no_proxy,
                codec=args.codec,
            )
        except ValueError as exc:
            return refused(exc)
        cluster.time_scale = args.time_scale
        await cluster.start()
        ports = ", ".join(
            f"{pid}:{cluster.client_addr(pid)[1]}" for pid in range(args.n)
        )
        print(
            f"cluster up: n={args.n} algorithm={args.algorithm} "
            f"client ports {ports}"
            + (" (proxied)" if not args.no_proxy else "")
        )
        if events:
            FaultSchedule(events).install(cluster)
            print(f"driving {len(events)} fault event(s) from {args.faults}")
        try:
            await until_done()
        finally:
            await cluster.close()
        for failure in cluster.fault_failures:
            print(
                f"repro serve: fault schedule event failed ({failure!r})",
                file=sys.stderr,
            )
        return 1 if cluster.fault_failures else 0

    async def run_node() -> int:
        # only the in-process cluster starts fault proxies: a lone node
        # dials its peers' own ports
        layout = port_layout(args.n, args.base_port, proxied=False)
        try:
            node = ServiceNode(
                args.pid,
                addrs=layout["dial"],
                my_addr=layout["peer"][args.pid],
                client_addr=layout["client"][args.pid],
                algorithm=args.algorithm,
                streams=args.streams,
                k=args.k,
                seed=args.seed,
                codec=args.codec,
            )
        except ValueError as exc:
            return refused(exc)
        await node.start()
        print(
            f"node {args.pid}/{args.n} up: algorithm={args.algorithm} "
            f"peer port {layout['peer'][args.pid][1]}, "
            f"client port {layout['client'][args.pid][1]}"
        )
        try:
            await until_done()
        finally:
            await node.close()
        return 0

    try:
        if args.pid is None:
            return asyncio.run(run_cluster())
        if args.faults:
            print(
                "--faults needs the cluster shape (the schedule is installed "
                "on in-process proxies and nodes); start without --pid",
                file=sys.stderr,
            )
            return 2
        return asyncio.run(run_node())
    except KeyboardInterrupt:
        return 0


def cmd_load(args: argparse.Namespace) -> int:
    import asyncio

    from .scenarios.spec import WorkloadSpec
    from .service import (
        capture_history,
        converged_windows,
        port_layout,
        run_load,
    )

    spec = WorkloadSpec(
        kind="open",
        rate=args.rate,
        write_ratio=args.write_ratio,
        hot_key_weight=args.hot_key,
    )
    layout = port_layout(args.n, args.base_port)
    addrs = layout["client"]

    async def run() -> int:
        report = await run_load(
            addrs,
            spec,
            streams=args.streams,
            duration=args.duration,
            sessions_per_node=args.sessions,
            seed=args.seed,
            window=args.window,
            connections=args.connections,
            codec=args.codec,
            closed=args.closed,
        )
        lat = report.latency_percentiles()
        print(
            f"issued {report.issued}, completed {report.completed} "
            f"({report.ops_per_sec:.0f} op/s), rejected {report.rejected}, "
            f"errors {report.errors}"
        )
        print(
            f"latency p50={lat['p50_ms']:.2f}ms p95={lat['p95_ms']:.2f}ms "
            f"p99={lat['p99_ms']:.2f}ms "
            f"(window={args.window}, connections={args.connections}, "
            f"codec={args.codec}, {'closed' if args.closed else 'open'} loop)"
        )
        if args.settle:
            await asyncio.sleep(args.settle)
        conv = await converged_windows(addrs, args.streams)
        print(f"replicas converged: {conv}")
        if args.capture:
            meta = {
                "load": {
                    "duration": args.duration,
                    "sessions_per_node": args.sessions,
                    "window": args.window,
                    "connections": args.connections,
                    "codec": args.codec,
                    "closed": args.closed,
                    "completed": report.completed,
                    "ops_per_sec": round(report.ops_per_sec, 1),
                    "latency": lat,
                }
            }
            doc = await capture_history(
                addrs, args.streams, args.k, meta=meta
            )
            with open(args.capture, "w") as fh:
                json.dump(doc, fh)
            ops = sum(len(row) for row in doc["processes"])
            print(
                f"captured {ops} ops to {args.capture} — classify with: "
                f"repro classify {args.capture} --streaming-only"
            )
        return 0 if report.errors == 0 else 1

    return asyncio.run(run())


def cmd_status(args: argparse.Namespace) -> int:
    import asyncio

    from .service import client_call, port_layout

    if _pid_outside("status", args):
        return 2
    layout = port_layout(args.n, args.base_port)
    pids = [args.pid] if args.pid is not None else list(range(args.n))

    async def run() -> int:
        failures = 0
        statuses = {}
        for pid in pids:
            try:
                reply = await client_call(
                    layout["client"][pid], {"cmd": "status"}, timeout=2.0
                )
                statuses[pid] = reply.get("status", {})
            except (OSError, asyncio.TimeoutError, ConnectionError):
                statuses[pid] = {"unreachable": True}
                failures += 1
        if args.json_out:
            print(json.dumps(statuses, indent=2, default=str))
            return 1 if failures else 0
        for pid, doc in statuses.items():
            if doc.get("unreachable"):
                print(f"node {pid}: unreachable")
                continue
            mon = doc.get("monitor", {})
            stats = doc.get("stats", {})
            print(
                f"node {pid}: {'CRASHED' if doc.get('crashed') else 'up'} "
                f"ops={doc.get('ops')} backlog={doc.get('backlog')} "
                f"sent={stats.get('sent')} delivered={stats.get('delivered')} "
                f"monitor={'ok' if mon.get('ok', True) else 'VIOLATIONS'} "
                f"violations={mon.get('total', 0)}"
            )
            for line in mon.get("violations", [])[:5]:
                print(f"    {line}")
        return 1 if failures else 0

    return asyncio.run(run())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Causal Consistency: Beyond Memory (PPoPP'16) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("litmus", help="classify the Fig. 3 histories")
    p.set_defaults(fn=cmd_litmus)

    p = sub.add_parser("hierarchy", help="audit the Fig. 1 hierarchy")
    p.add_argument("--histories", type=_int_at_least(0), default=30)
    p.add_argument(
        "--scenario-histories", type=_int_at_least(0), default=0,
        help="also classify N algorithm runs under the fault scenarios",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_hierarchy)

    p = sub.add_parser("consensus", help="consensus-number matrix of W_k")
    p.add_argument("--max-n", type=_int_at_least(1), default=5)
    p.add_argument("--max-k", type=_int_at_least(1), default=4)
    p.add_argument("--runs", type=_int_at_least(1), default=15)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_consensus)

    p = sub.add_parser("latency", help="latency vs network delay sweep")
    p.add_argument("--delays", type=_positive_float, nargs="+", default=[0.5, 1, 2, 5, 10])
    p.add_argument("--ops", type=_int_at_least(1), default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("sessions", help="session-guarantee violation rates")
    p.add_argument("--runs", type=_int_at_least(1), default=15)
    p.add_argument("--ops", type=_int_at_least(1), default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_sessions)

    # no abbreviations: the retired --streaming must not parse as
    # --streaming-only
    p = sub.add_parser(
        "classify", help="classify a JSON history file", allow_abbrev=False
    )
    p.add_argument("file")
    p.add_argument(
        "--streaming-only", action="store_true",
        help="skip the enumeration search and leave the verdicts to the "
        "streaming bad-pattern monitor — the mode for live service "
        "captures, whose op counts are far past what the exact search "
        "can decide",
    )
    p.add_argument(
        "--json", dest="json_out", metavar="FILE",
        help="dump verdicts + work counters (search and monitor) as JSON "
        "to FILE",
    )
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser(
        "explore",
        help="run the scenario x algorithm matrix (fault/workload sweeps)",
    )
    p.add_argument(
        "--scenario", action="append",
        help="scenario name (repeatable); default: every default scenario",
    )
    p.add_argument(
        "--algorithm", action="append",
        help="algorithm key (repeatable); default: each scenario's own",
    )
    p.add_argument(
        "--only", metavar="SUBSTR",
        help="run only cells whose scenario/algorithm label contains "
        "SUBSTR; matching no cell is an error",
    )
    p.add_argument("--seeds", type=_int_at_least(1), default=2)
    p.add_argument(
        "--jobs", default=None,
        type=_int_at_least(0, " (0 = one worker per host CPU)"),
        help="worker processes (default: host-sized; 1 = serial)",
    )
    p.add_argument(
        "--fast", action="store_true", help="shrunk smoke-sized workloads"
    )
    p.add_argument(
        "--scale", action="store_true",
        help="also run the 10k-op scale-up scenarios, each with its own "
        "default algorithms, unless --scenario names one of them",
    )
    p.add_argument("--json", help="also dump the report as JSON to FILE")
    p.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser(
        "chaos",
        help="seeded random fault schedules + invariant monitors + "
        "failing-schedule minimisation",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trials", type=_int_at_least(1), default=25,
        help="random schedules per algorithm (default 25)",
    )
    p.add_argument(
        "--algorithm", action="append",
        help="algorithm key (repeatable); default: "
        + ", ".join(CHAOS_ALGORITHMS),
    )
    p.add_argument(
        "--inject",
        choices=INJECTIONS,
        default="none",
        help="plant a sentinel bug to test the pipeline end to end",
    )
    p.add_argument(
        "--n", type=_int_at_least(2, " (a partition needs two sides)"),
        default=4, help="processes per run",
    )
    p.add_argument(
        "--ops", type=_int_at_least(1), default=6, help="operations per process"
    )
    p.add_argument(
        "--save-dir", default=None,
        help="write minimised repros as replayable JSON into this dir",
    )
    p.add_argument(
        "--keep-going", action="store_true",
        help="continue hunting after the first failure",
    )
    p.add_argument(
        "--no-check", action="store_true",
        help="skip the consistency-criterion check and the streaming "
        "monitor (runtime monitors + convergence where the criterion "
        "implies it only; much faster)",
    )
    p.add_argument(
        "--expect-failure", action="store_true",
        help="exit 0 iff at least one failure was found (for testing "
        "the pipeline against an --inject sentinel)",
    )
    p.add_argument(
        "--replay", nargs="+", metavar="FILE",
        help="replay saved repro JSON files instead of hunting",
    )
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="host a live asyncio cluster (or one node) on loopback TCP",
    )
    p.add_argument("--n", type=_int_at_least(1), default=3, help="cluster size")
    p.add_argument(
        "--pid", type=int, default=None,
        help="host only this node (one OS process per node), dialling "
        "its peers directly; default: the whole cluster in-process, "
        "fault proxies included",
    )
    p.add_argument("--base-port", type=int, default=7420)
    p.add_argument("--algorithm", default="ccv-fig5")
    p.add_argument("--streams", type=_int_at_least(1), default=2)
    p.add_argument("--k", type=_int_at_least(1), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--no-proxy", action="store_true",
        help="peers dial each other directly (no fault proxies; only "
        "the whole-cluster shape has proxies, a --pid node never does)",
    )
    p.add_argument(
        "--faults", metavar="FILE",
        help="install this fault schedule JSON (a ScenarioSpec document or "
        "a bare event list) on the cluster's proxies and nodes; `reorder` "
        "is refused (exit 2), an event that raises is reported (exit 1)",
    )
    p.add_argument(
        "--time-scale", type=_positive_float, default=1.0,
        help="seconds of wall time per fault-schedule time unit (event "
        "times, flap and crash-storm tails, delay-scale latency)",
    )
    p.add_argument(
        "--duration", type=float, default=0.0,
        help="exit after this many seconds (default: serve until ^C)",
    )
    p.add_argument(
        "--codec", choices=("binary", "json"), default="binary",
        help="peer wire codec (hello-negotiated; json is the compat "
        "fallback — mixed clusters interoperate)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "load",
        help="open-loop load against a running live cluster, with "
        "optional history capture for classify",
    )
    p.add_argument("--n", type=_int_at_least(1), default=3)
    p.add_argument("--base-port", type=int, default=7420)
    p.add_argument("--duration", type=_positive_float, default=3.0)
    p.add_argument(
        "--rate", type=_positive_float, default=25.0, help="arrivals/s per session"
    )
    p.add_argument("--write-ratio", type=float, default=0.5)
    p.add_argument(
        "--hot-key", type=float, default=0.0,
        help="probability an op targets stream 0 (contention)",
    )
    p.add_argument("--sessions", type=_int_at_least(1), default=4, help="per node")
    p.add_argument("--streams", type=_int_at_least(1), default=2)
    p.add_argument("--k", type=_int_at_least(1), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--settle", type=float, default=1.0,
        help="seconds to wait before the convergence check",
    )
    p.add_argument(
        "--capture", metavar="FILE",
        help="write the cluster's recorded history as classify JSON",
    )
    p.add_argument(
        "--window", type=_int_at_least(1), default=1,
        help="pipelining depth per connection (1 = lock-step)",
    )
    p.add_argument(
        "--connections", type=_int_at_least(1), default=1,
        help="client connections per node (sessions share round-robin)",
    )
    p.add_argument(
        "--closed", action="store_true",
        help="closed-loop saturation drive (issue as fast as the window "
        "admits) instead of Poisson arrivals",
    )
    p.add_argument(
        "--codec", choices=("binary", "json"), default="json",
        help="client wire codec (the server answers in kind)",
    )
    p.set_defaults(fn=cmd_load)

    p = sub.add_parser(
        "status", help="operator status of a running live cluster"
    )
    p.add_argument("--n", type=_int_at_least(1), default=3)
    p.add_argument("--base-port", type=int, default=7420)
    p.add_argument("--pid", type=int, default=None, help="one node only")
    p.add_argument(
        "--json", dest="json_out", action="store_true",
        help="dump full status documents as JSON",
    )
    p.set_defaults(fn=cmd_status)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
