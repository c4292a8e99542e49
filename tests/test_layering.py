"""Layering: the service plane uses the broadcast layer's public surface,
and the algorithms are code for process pᵢ.

``repro.service`` hosts a broadcast stack it did not write.  It may call
its public methods and set its public data attributes (``monitor``,
``RESYNC_TIMEOUT``); it may not name an underscore attribute of the
broadcast object, probe it with ``getattr``/``hasattr``, or replace one
of its methods at run time — each of those is the service knowing how
the layer below is built.  (The CI ``hygiene`` job runs the first check
as a plain ``grep`` so a reach-in fails in seconds.)

``repro.algorithms`` is per-process code: a replica holds its own state
and nothing sized by the number of processes, and a host holds exactly
the replicas of the pids its transport hosts.

A fault schedule has one interpreter: ``scenarios/faults.py`` is the only
module in ``src/`` that turns a ``FaultEvent.action`` into calls; every
plane is a target of it.  (Also a ``hygiene`` grep.)

The benchmark's tracer (``benchmarks/suite/trace.py``) is the one
outsider allowed to replace methods, and it finds them by name: every
callable it wraps must still be defined where it looks.

The simulated network reaches into the simulator's event heap at one
site only: ``Network._fan_out`` open-codes ``Simulator.schedule``.

The broadcast layer plants no bugs: a chaos sentinel is a subclass built
by ``chaos/sentinels.py``, the only module that names one, never a
switch in ``runtime/`` or ``service/``.

A verdict has one rule: ``criteria/verdict.py``'s ``decide`` is the only
place that turns a search budget trip into "inconclusive"; explore,
classify, chaos and the hierarchy audit ask it.
"""

import ast
import inspect
import pathlib
import re
import sys

import pytest

from repro.chaos.sentinels import SENTINELS
from repro.runtime.broadcast import CausalBroadcast, PeerView
from repro.scenarios import Scenario, get_scenario
from repro.scenarios.matrix import ALGORITHMS
from repro.scenarios.spec import FAULT_ACTIONS
from repro.service import LiveCluster

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(ROOT / "benchmarks"))

from suite import trace  # noqa: E402

SERVICE = ROOT / "src/repro/service"
SOURCES = sorted(SERVICE.glob("*.py"))
ALGORITHM_SOURCES = sorted((SERVICE.parent / "algorithms").glob("*.py"))

#: the names a broadcast object goes by in the service plane
REACH_IN = re.compile(
    r"_patch_resync|_merge_digest|_merge_target_view|\b(b|broadcast)\._[a-z]"
)


def _is_broadcast(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("b", "broadcast")
    return isinstance(node, ast.Attribute) and node.attr == "broadcast"


def test_there_are_service_sources_to_check():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_reach_in(path):
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if REACH_IN.search(line)
    ]
    assert not hits, "\n".join(hits)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_probing_and_no_method_patching(path):
    offences = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and node.args
            and _is_broadcast(node.args[0])
        ):
            offences.append(f"{path.name}:{node.lineno}: probes the broadcast object")
        targets = node.targets if isinstance(node, ast.Assign) else []
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and _is_broadcast(target.value)
                and callable(getattr(CausalBroadcast, target.attr, None))
            ):
                offences.append(
                    f"{path.name}:{target.lineno}: replaces broadcast.{target.attr}"
                )
    assert not offences, "\n".join(offences)


# ----------------------------------------------------------------------
# The algorithms are code for process p_i
# ----------------------------------------------------------------------
def _is_n(node: ast.AST) -> bool:
    """``n`` or ``<anything>.n``."""
    return (isinstance(node, ast.Name) and node.id == "n") or (
        isinstance(node, ast.Attribute) and node.attr == "n"
    )


@pytest.mark.parametrize("path", ALGORITHM_SOURCES, ids=lambda p: p.name)
def test_no_table_sized_by_the_number_of_processes(path):
    """No ``range(n)`` / ``range(self.n)`` / ``[...] * self.n``: a host
    walks ``transport.hosted``, a replica walks nothing."""
    offences = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "range"
            and any(_is_n(arg) for arg in node.args)
        ):
            offences.append(f"{path.name}:{node.lineno}: range over n")
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mult)
            and (_is_n(node.left) or _is_n(node.right))
        ):
            offences.append(f"{path.name}:{node.lineno}: table of n rows")
    assert not offences, "\n".join(offences)


def test_no_replica_reaches_for_another_replica():
    """A replica class never names ``replicas`` — the host's table of
    everyone's state is not its to index."""
    replica_classes, offences = 0, []
    for path in ALGORITHM_SOURCES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(cls, ast.ClassDef) and cls.name.endswith("Replica")):
                continue
            replica_classes += 1
            offences += [
                f"{path.name}:{node.lineno}: {cls.name} names .replicas"
                for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and node.attr == "replicas"
            ]
    assert replica_classes >= 7
    assert not offences, "\n".join(offences)


@pytest.mark.parametrize("key", sorted(ALGORITHMS))
def test_a_host_holds_the_replicas_of_the_hosted_pids_only(key):
    entry = ALGORITHMS[key]
    spec = get_scenario("partition-during-writes").fast(2)
    run = Scenario(spec).run(entry.cls, **entry.kwargs(spec.streams, spec.k))
    assert list(run.algorithm.replicas) == list(range(spec.n))
    if entry.cls.wait_free:  # a live node refuses the sequencer
        cluster = LiveCluster(3, base_port=7990, algorithm=key, proxied=False)
        for node in cluster.nodes:  # never started
            assert list(node.algorithm.replicas) == [node.my_pid]


# ----------------------------------------------------------------------
# One fault vocabulary, one interpreter
# ----------------------------------------------------------------------
SRC = ROOT / "src/repro"
INTERPRETER = "scenarios/faults.py"
#: modules that compare an action to a literal without acting on it:
#: `spec.py` validates an event's fields per action, `matrix.py` and
#: `chaos/generate.py` scan a finished schedule (does it recover
#: anything? how long is its tail?)
ACTION_READERS = {"scenarios/spec.py", "scenarios/matrix.py", "chaos/generate.py"}


def _is_action(node: ast.AST) -> bool:
    """``action`` or ``<anything>.action``."""
    return (isinstance(node, ast.Name) and node.id == "action") or (
        isinstance(node, ast.Attribute) and node.attr == "action"
    )


def _names_a_fault_action(node: ast.AST) -> bool:
    return any(
        isinstance(leaf, ast.Constant) and leaf.value in FAULT_ACTIONS
        for leaf in ast.walk(node)
    )


def test_only_the_fault_schedule_dispatches_on_an_action():
    """``.action == "crash"`` (or ``!=`` / ``in (...)``) against a
    fault-action literal appears in the interpreter, in the listed
    read-only modules, and nowhere else under ``src/``."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            if any(map(_is_action, sides)) and any(map(_names_a_fault_action, sides)):
                found.add(path.relative_to(SRC).as_posix())
    assert INTERPRETER in found
    assert found - {INTERPRETER} <= ACTION_READERS, sorted(found)


# ----------------------------------------------------------------------
# One reach from the network into the simulator
# ----------------------------------------------------------------------
def _is_sim(node: ast.AST) -> bool:
    """``sim`` or ``<anything>.sim``."""
    return (isinstance(node, ast.Name) and node.id == "sim") or (
        isinstance(node, ast.Attribute) and node.attr == "sim"
    )


def test_only_the_fan_out_loop_touches_the_simulators_private_fields():
    network = ast.parse((SRC / "runtime/network.py").read_text())
    reaches = {}
    for fn in ast.walk(network):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and _is_sim(node.value)
            ):
                reaches.setdefault(fn.name, set()).add(node.attr)
    assert reaches == {"_fan_out": {"_events", "_heap", "_next_seq"}}, reaches


# ----------------------------------------------------------------------
# What the benchmark's tracer wraps is still there to be wrapped
# ----------------------------------------------------------------------
def _name(value):
    return getattr(value, "__name__", value).rsplit(".", 1)[-1]


@pytest.mark.parametrize(
    "owner,attr",
    [(owner, attr) for owner, attr, _span, _rid in trace.PATCHES]
    + [(trace.ClientSession, "call"), (trace.StreamingMonitor, "feed")],
    ids=_name,
)
def test_the_tracer_finds_every_callable_it_wraps(owner, attr):
    """``Installed.patch_layers`` reads ``vars(owner)[attr]`` and runs
    only under ``--trace 1``: a method renamed, or moved to a base
    class, would otherwise fail there, late, or zero a ledger row."""
    assert callable(vars(owner).get(attr)), f"{_name(owner)}.{attr} is gone"


# ----------------------------------------------------------------------
# The chaos sentinels live in one table, outside the broadcast layer
# ----------------------------------------------------------------------
PLANTED_SWITCH = re.compile(r"\w_bug\b|supervised_resync")


@pytest.mark.parametrize(
    "path",
    sorted((SRC / "runtime").glob("*.py")) + SOURCES,
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_sentinel_switch_below_the_chaos_plane(path):
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if PLANTED_SWITCH.search(line)
    ]
    assert not hits, "\n".join(hits)


def test_the_stability_frontier_has_no_knob():
    assert list(inspect.signature(PeerView.stable).parameters) == ["self"]


def test_only_the_sentinel_table_compares_a_sentinel_name():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                isinstance(leaf, ast.Constant) and leaf.value in SENTINELS
                for side in (node.left, *node.comparators)
                for leaf in ast.walk(side)
            ):
                found.add(path.relative_to(SRC).as_posix())
    assert found <= {"chaos/sentinels.py"}, sorted(found)


def test_only_decide_catches_a_search_budget_trip():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        # innermost enclosing function of every node ("" at module level)
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owner[node] = func.name
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type and (
                "SearchBudgetExceeded" in ast.unparse(node.type)
            ):
                found.add((path.relative_to(SRC).as_posix(), owner.get(node, "")))
    assert found == {("criteria/verdict.py", "decide")}, sorted(found)
