"""Layering: the service plane uses the broadcast layer's public surface.

``repro.service`` hosts a broadcast stack it did not write.  It may call
its public methods and set its public data attributes (``monitor``,
``RESYNC_TIMEOUT``); it may not name an underscore attribute of the
broadcast object, probe it with ``getattr``/``hasattr``, or replace one
of its methods at run time — each of those is the service knowing how
the layer below is built.  (The CI ``hygiene`` job runs the first check
as a plain ``grep`` so a reach-in fails in seconds.)
"""

import ast
import pathlib
import re

import pytest

from repro.runtime.broadcast import LazyCausalBroadcast

SERVICE = pathlib.Path(__file__).resolve().parent.parent / "src/repro/service"
SOURCES = sorted(SERVICE.glob("*.py"))

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
                and callable(getattr(LazyCausalBroadcast, target.attr, None))
            ):
                offences.append(
                    f"{path.name}:{target.lineno}: replaces broadcast.{target.attr}"
                )
    assert not offences, "\n".join(offences)
