"""CLI tests: every subcommand and the JSON history loader."""

import asyncio
import json
import os
import pathlib
import random
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.chaos.sentinels import INJECTIONS
from repro.cli import build_parser, load_history, main
from repro.core.operations import BOTTOM, HIDDEN
from repro.service import LiveCluster


class TestLoadHistory:
    def test_window_history(self):
        spec = {
            "adt": {"type": "window", "k": 2},
            "processes": [
                [
                    {"method": "w", "args": [1]},
                    {"method": "r", "output": [0, 1]},
                ],
                [{"method": "w", "args": [2]}],
            ],
            "criteria": ["sc", "cc"],
        }
        history, adt, criteria = load_history(spec)
        assert len(history) == 3
        assert criteria == ["SC", "CC"]
        assert history.event(1).output == (0, 1)
        assert history.event(0).output is BOTTOM  # pure update default

    def test_memory_history(self):
        spec = {
            "adt": {"type": "memory", "registers": "xy"},
            "processes": [
                [
                    {"method": "w", "args": ["x", 5]},
                    {"method": "r", "args": ["x"], "output": 5},
                ]
            ],
        }
        history, adt, criteria = load_history(spec)
        assert adt.name == "Memory[2]"
        assert "WCC" in criteria

    def test_hidden_outputs(self):
        spec = {
            "adt": {"type": "queue"},
            "processes": [[{"method": "pop"}]],  # no output => hidden
        }
        history, _, _ = load_history(spec)
        assert history.event(0).output is HIDDEN

    def test_unknown_adt(self):
        with pytest.raises(ValueError):
            load_history({"adt": {"type": "blockchain"}, "processes": []})


class TestCommands:
    def test_litmus_command(self, capsys):
        assert main(["litmus"]) == 0
        out = capsys.readouterr().out
        assert "3a" in out and "mismatches vs verified classification: 0" in out

    def test_hierarchy_command(self, capsys):
        assert main(["hierarchy", "--histories", "6", "--seed", "3"]) == 0
        assert "inclusion violations : 0" in capsys.readouterr().out

    def test_consensus_command(self, capsys):
        assert main(["consensus", "--max-n", "3", "--max-k", "2", "--runs", "5"]) == 0
        assert "agreement rate" in capsys.readouterr().out

    def test_latency_command(self, capsys):
        assert main(["latency", "--delays", "1", "4", "--ops", "3"]) == 0
        assert "sequencer" in capsys.readouterr().out

    def test_sessions_command(self, capsys):
        assert main(["sessions", "--runs", "3", "--ops", "4"]) == 0
        assert "RYW" in capsys.readouterr().out

    def test_classify_command(self, tmp_path, capsys):
        spec = {
            "adt": {"type": "window", "k": 2},
            "processes": [
                [{"method": "w", "args": [1]}, {"method": "r", "output": [0, 1]}],
                [{"method": "w", "args": [2]}, {"method": "r", "output": [1, 2]}],
            ],
        }
        path = tmp_path / "history.json"
        path.write_text(json.dumps(spec))
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SC" in out and "yes" in out

    def test_classify_keeps_the_reason_and_work_of_a_no(self, tmp_path, capsys):
        """A search that answers "no" returns a falsy ``CheckResult``
        (its truth is its ``ok``): the verdict's reason and the work
        counters are read whenever a result exists, not when it is true."""
        spec = {
            "adt": {"type": "window", "k": 1},
            "processes": [
                [{"method": "w", "args": [1]}, {"method": "r", "output": [2]}],
                [{"method": "w", "args": [2]}, {"method": "r", "output": [1]}],
            ],
            "criteria": ["SC"],
        }
        path = tmp_path / "history.json"
        path.write_text(json.dumps(spec))
        report = tmp_path / "report.json"
        assert main(["classify", str(path), "--json", str(report)]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("SC ")
        )
        assert row.split()[:2] == ["SC", "no"]
        assert len(row.split()) > 2
        sc = json.loads(report.read_text())["criteria"]["SC"]
        assert sc["ok"] is False
        assert sc["reason"] and sc["stats"]
        # the SC, PC and LIN searches count only the nodes they visit
        assert row.split()[-1] == f"lin={sc['stats']['lin_nodes']}"

    def test_classify_survives_search_budget(self, tmp_path, capsys, monkeypatch):
        """A criterion whose search runs out of budget is inconclusive —
        ``?`` in the table, ``"ok": null`` in the JSON — and the other
        criteria and the exit status are unaffected."""
        import repro.criteria.causal as causal

        search = causal.search_causal_order
        monkeypatch.setattr(
            causal,
            "search_causal_order",
            lambda history, adt, mode, max_nodes: search(
                history, adt, mode, max_nodes=50
            ),
        )

        def w(value):
            return {"method": "w", "args": [value]}

        def r(*window):
            return {"method": "r", "output": list(window)}

        # a 4x5 W_2 history whose CCv search needs far more than 50 families
        spec = {
            "adt": {"type": "window", "k": 2},
            "processes": [
                [r(1, 1), w(2), r(1, 2), r(1, 3), r(1, 1)],
                [r(1, 1), r(3, 2), w(3), w(1), w(1)],
                [w(1), w(1), r(1, 0), w(1), r(1, 1)],
                [r(1, 2), w(2), w(3), r(1, 3), w(1)],
            ],
            "criteria": ["SC", "CCV"],
        }
        path = tmp_path / "history.json"
        path.write_text(json.dumps(spec))
        report = tmp_path / "report.json"
        assert main(["classify", str(path), "--json", str(report)]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("CCV")
        )
        assert row.split()[1] == "?"
        assert "search budget exceeded" in row
        criteria = json.loads(report.read_text())["criteria"]
        assert criteria["CCV"]["ok"] is None
        assert "search budget exceeded" in criteria["CCV"]["reason"]
        assert criteria["SC"]["ok"] is False

    def test_classify_leaves_a_long_history_to_the_monitor(
        self, tmp_path, capsys, monkeypatch
    ):
        """Past the search's op cutoff, classify with no flags does not
        search: the monitor decides what it supports, the rest is ``?``."""
        from repro.criteria.base import CRITERIA
        from repro.criteria.verdict import SEARCH_MAX_OPS

        def boom(history, adt):
            raise AssertionError("the exact search ran")

        for name in list(CRITERIA):
            monkeypatch.setitem(CRITERIA, name, boom)
        # three processes, each writing fresh values and reading its own
        # last one back: differentiated, CC and CCv
        spec = {
            "adt": {"type": "window", "k": 1},
            "processes": [
                [
                    op
                    for i in range(100)
                    for op in (
                        {"method": "w", "args": [1000 * p + i + 1]},
                        {"method": "r", "output": [1000 * p + i + 1]},
                    )
                ]
                for p in range(3)
            ],
            "criteria": ["SC", "CC", "CCV"],
        }
        path = tmp_path / "history.json"
        path.write_text(json.dumps(spec))
        report = tmp_path / "report.json"
        assert main(["classify", str(path), "--json", str(report)]) == 0
        criteria = json.loads(report.read_text())["criteria"]
        assert 600 > SEARCH_MAX_OPS
        assert criteria["SC"]["ok"] is None
        assert criteria["SC"]["reason"] == (
            "history beyond enumeration-search reach"
        )
        for name in ("CC", "CCV"):
            assert criteria[name]["ok"] is True
            assert criteria[name]["reason"] == (
                "history beyond enumeration-search reach; "
                "decided by streaming monitor"
            )


class TestRetiredFlags:
    """Knobs whose only non-test callers were the retired bench
    harnesses left the CLI, and ``classify --jobs`` left with the CCv
    worker pool it sized; the codec choice, which a mixed cluster needs,
    did not.  The monitor runs on every explore cell and classify file,
    so the switches that turned it on (``explore --monitor``,
    ``classify --streaming``) left too."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "history.json", "--order-heuristic", "lex"],
            ["classify", "history.json", "--jobs", "2"],
            ["classify", "history.json", "--streaming"],
            ["explore", "--monitor"],
            ["serve", "--tap", "sync"],
            ["serve", "--no-coalesce"],
        ],
        ids=lambda argv: next(arg for arg in argv if arg.startswith("--")),
    )
    def test_retired_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_codec_still_parses(self):
        assert build_parser().parse_args(["serve", "--codec", "json"]).codec == "json"

    def test_chaos_inject_choices_are_the_sentinel_table(self):
        parse = build_parser().parse_args
        for inject in INJECTIONS:
            assert parse(["chaos", "--inject", inject]).inject == inject
        with pytest.raises(SystemExit):
            parse(["chaos", "--inject", "gc_frontier"])


# ----------------------------------------------------------------------
# The operator commands against a running cluster
# ----------------------------------------------------------------------
def _free_port_block(size):
    """A base port whose ``size`` successors all bind on loopback."""
    rng = random.Random()
    for _ in range(50):
        base = rng.randrange(20000, 60000 - size)
        socks = []
        try:
            for port in range(base, base + size):
                sock = socket.socket()
                socks.append(sock)
                sock.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for sock in socks:
                sock.close()
    pytest.skip("no free block of loopback ports")


@pytest.fixture
def served_cluster():
    """An n=3 live cluster served from a background thread's loop;
    yields its base port."""
    base = _free_port_block(9)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    box = {}

    def serve():
        asyncio.set_event_loop(loop)
        box["cluster"] = LiveCluster(3, base_port=base, proxied=False)
        loop.run_until_complete(box["cluster"].start())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(10), "cluster did not start"
    try:
        yield base
    finally:
        asyncio.run_coroutine_threadsafe(box["cluster"].close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


class TestRefusedInput:
    """Bad arguments and malformed files end in one line on stderr and
    exit 2, not in a traceback from deep inside a sweep or a loader."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sessions", "--runs", "0"],
            ["consensus", "--runs", "0"],
            ["consensus", "--max-n", "0"],
            ["consensus", "--max-k", "0"],
            ["latency", "--delays", "1", "-1"],
            ["latency", "--ops", "0"],
            ["sessions", "--ops", "0"],
            ["explore", "--seeds", "0"],
            ["explore", "--seeds", "-1"],
            ["hierarchy", "--histories", "-3"],
            ["hierarchy", "--scenario-histories", "-2"],
            ["serve", "--time-scale", "nan", "--duration", "0.1"],
            ["serve", "--time-scale", "0", "--duration", "0.1"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_a_size_below_one_or_a_delay_not_positive_is_refused(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert f"argument {flag}:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--n", "1", "--trials", "1"],
            ["chaos", "--n", "0"],
            ["chaos", "--trials", "0"],
            ["chaos", "--trials", "-3"],
            ["chaos", "--ops", "0"],
            ["status", "--n", "0"],
        ],
        ids=" ".join,
    )
    def test_a_hunt_or_cluster_with_nothing_to_check_is_refused(
        self, argv, capsys
    ):
        """A chaos hunt needs two processes to partition, a trial and an
        operation; a status query needs a node."""
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {argv[1]}:" in errors[0], err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--n", "0"],
            ["serve", "--streams", "0"],
            ["serve", "--k", "0"],
            ["serve", "--k", "-1"],
            ["load", "--n", "0"],
            ["load", "--streams", "0"],
            ["load", "--k", "0"],
            ["load", "--sessions", "0"],
            ["load", "--connections", "0"],
            ["load", "--window", "0"],
            ["load", "--rate", "0"],
            ["load", "--rate", "-3"],
            ["load", "--duration", "0"],
        ],
        ids=" ".join,
    )
    def test_a_cluster_or_load_that_serves_nothing_is_refused(
        self, argv, capsys
    ):
        """No nodes, no streams, an empty window, no sessions, no
        connections, no pipelining, no arrivals or no time: each used to
        run and exit 0 having served nothing, or end in a traceback."""
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {argv[1]}:" in errors[0], err
        assert "Traceback" not in err

    @pytest.mark.parametrize("pid", ["7", "-1"])
    def test_serve_refuses_a_pid_outside_the_cluster(self, pid, capsys):
        assert main(["serve", "--n", "3", "--pid", pid]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and f"--pid {pid} is not a node of 0..2" in lines[0]
        assert captured.out == ""

    @pytest.mark.parametrize("pid", ["7", "-1"])
    def test_status_refuses_a_pid_outside_the_cluster(self, pid, capsys):
        assert main(["status", "--n", "3", "--pid", pid]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and f"--pid {pid} is not a node of 0..2" in lines[0]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"processes": [[{"args": [1]}]]}, '"method"'),
            ({"processes": [[{"method": "w", "args": [1], "start": "soon"}]]},
             '"start"'),
            ({"adt": {"type": "blockchain"}, "processes": []}, "adt type"),
            ([{"method": "w", "args": [1]}], "not a list"),
        ],
        ids=["no-method", "start-not-a-number", "unknown-adt", "top-level-list"],
    )
    def test_classify_names_the_bad_field(self, doc, field, tmp_path, capsys):
        path = tmp_path / "history.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and field in lines[0], captured.err
        assert captured.out == ""

    def test_chaos_replay_of_a_list_is_refused(self, tmp_path, capsys):
        path = tmp_path / "repro.json"
        path.write_text("[]")
        assert main(["chaos", "--replay", str(path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "not a chaos-repro document" in lines[0]

    @pytest.mark.parametrize(
        "flag, noun", [("--scenario", "scenario"), ("--algorithm", "algorithm")]
    )
    def test_explore_refuses_an_unknown_name(self, flag, noun, capsys):
        argv = ["explore", "--fast", "--seeds", "1", "--jobs", "1", flag, "nope"]
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and f"unknown {noun} 'nope'" in lines[0]

    def test_explore_only_matching_no_cell_is_one_line(self, capsys):
        argv = [
            "explore", "--fast", "--seeds", "1", "--jobs", "1",
            "--scenario", "churn", "--scenario", "scale-n8-hotkey",
            "--only", "nomatch",
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "'nomatch' matches no cell" in lines[0]
        for label in ("churn/cc-fig4", "scale-n8-hotkey/gossip"):
            assert label in lines[0]
        assert captured.out == ""

    def test_explore_accepts_a_key_outside_the_default_sweep(self, capsys):
        # the lazy-push family is resolvable by explicit key only
        argv = [
            "explore", "--fast", "--seeds", "1", "--jobs", "1",
            "--scenario", "churn", "--algorithm", "ccv-lazy",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "ccv-lazy" in captured.out
        assert captured.err == ""

    def test_a_timed_capture_loads_as_before(self):
        spec = {
            "adt": {"type": "window-array", "streams": 1, "k": 2},
            "processes": [
                [{"method": "w", "args": [0, 1], "start": 0.5},
                 {"method": "r", "args": [0], "output": [0, 1], "start": 2}],
                [{"method": "r", "args": [0], "output": [0, 0], "start": 1.0}],
            ],
        }
        history, _, _ = load_history(spec)
        assert history.times == (0.5, 2.0, 1.0)
        assert history.event(1).output == (0, 1)
        # one op without a timestamp: the history carries none
        del spec["processes"][1][0]["start"]
        assert load_history(spec)[0].times is None


class TestOperatorCommands:
    def test_status_and_load(self, served_cluster, capsys):
        where = ["--n", "3", "--base-port", str(served_cluster)]
        assert main(["status", *where]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "node 0", "node 1", "node 2"
        ]
        assert all(line.split()[2] == "up" for line in lines), lines
        assert main(["load", "--duration", "1", *where]) == 0
        out = capsys.readouterr().out
        assert "replicas converged: True" in out, out

    def test_nodes_served_one_per_process_connect(self, capsys):
        """``serve --pid i`` hosts one node and no proxy, so it dials its
        peers' own ports; dialling the proxy ports, which only the
        whole-cluster shape opens, it never connected."""
        import repro

        base = str(_free_port_block(6))
        env = dict(os.environ)
        src = str(pathlib.Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        nodes = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--n", "2",
                 "--pid", str(pid), "--base-port", base, "--duration", "20"],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            for pid in (0, 1)
        ]
        try:
            deadline = time.monotonic() + 15
            while True:
                main(["status", "--n", "2", "--base-port", base, "--json"])
                statuses = json.loads(capsys.readouterr().out)
                connected = [
                    doc.get("connected") for doc in statuses.values()
                ]
                if connected == [{"1": True}, {"0": True}]:
                    break
                assert time.monotonic() < deadline, statuses
                time.sleep(0.2)
        finally:
            for node in nodes:
                node.terminate()
            for node in nodes:
                node.wait(10)
