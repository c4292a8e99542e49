"""``src/`` holds what the system runs.

Every top-level function and class in ``src/``, and every method of a
top-level class, must have a caller outside the tests: its name occurs in
``src/`` (an ``__init__`` re-export or an ``__all__`` entry does not
count), ``examples/`` or ``benchmarks/``.  A name is also reached

- by string, when a string literal equals it (``vars(cls)["invoke"]`` in
  the benchmark's tracer, ``getattr(proxy, "set_extra_delay")``, the
  method string ``Invocation("top")`` an ADT constructor is named after);
- through the criteria registry, when the function is decorated
  ``@register("...")``;
- by the standard library, when the method overrides one that a
  standard-library base of its class defines (the event loop calls
  ``data_received`` on an ``asyncio.Protocol``).

Code that only tests use belongs in ``tests/`` (reference oracles and
test tools live in ``tests/oracles.py``).  The scan matches names, so a
dead method that shares its name with a live symbol is missed.
"""

import ast
import importlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: definitions with no caller outside the tests, kept on purpose
KEPT = {
    "retained_log": "the broadcast layer's retained log as an observable; "
    "five test files read the log through it",
    "fingerprint": "a run's identity: tests/goldens/runtime.json is keyed "
    "by RunResult.fingerprint()",
    "ProductADT": "Sec. 4.2 states composition over the product of ADTs; "
    "tests/test_product.py proves memory is the product of registers",
    "from_dag": "a history whose program order is not a union of chains "
    "(fork/join); only the tests build one",
    "history_dot": "util/dot.py waits for its caller, the rendering of a "
    "violation as the paper draws it (ROADMAP)",
    "hierarchy_dot": "util/dot.py waits for its caller (see history_dot)",
}


def _python_files(*dirs):
    for name in dirs:
        yield from sorted((ROOT / name).rglob("*.py"))


def _imported_modules(tree):
    """Local name -> dotted path of what a module imports at top level."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    names[top] = top
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _dotted(expr):
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        head = _dotted(expr.value)
        return f"{head}.{expr.attr}" if head else None
    return None


def _stdlib_inherited(tree, cls):
    """Every attribute a class inherits from its standard-library bases
    (``asyncio.Protocol``'s callbacks): the library calls an override."""
    imported = _imported_modules(tree)
    names = set()
    for base in cls.bases:
        dotted = _dotted(base)
        if dotted is None:
            continue
        head, _, rest = dotted.partition(".")
        path = ".".join(filter(None, [imported.get(head), rest]))
        if path.split(".")[0] not in sys.stdlib_module_names:
            continue
        module, _, attr = path.rpartition(".")
        base_cls = getattr(importlib.import_module(module), attr)
        if isinstance(base_cls, type):  # not typing.NamedTuple, a function
            for klass in base_cls.__mro__[:-1]:  # all but object
                names.update(vars(klass))
    return names


def _definitions():
    """(file, line, qualified name, name, registered?) of every
    top-level function and class in src/ and every method of a
    top-level class; dunder methods are called by the language, and
    overrides of a standard-library base's methods by the library."""
    for path in _python_files("src"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield path, node.lineno, node.name, node.name, _registered(node)
            if isinstance(node, ast.ClassDef):
                inherited = _stdlib_inherited(tree, node)
                for sub in node.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")
                    ) and sub.name not in inherited:
                        yield (
                            path, sub.lineno, f"{node.name}.{sub.name}",
                            sub.name, False,
                        )


def _registered(node):
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Name)
        and d.func.id == "register"
        for d in getattr(node, "decorator_list", ())
    )


def _reexport(node):
    """An import, or the ``__all__`` list, of a package ``__init__``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _used_names():
    used = set()
    for path in _python_files("src", "examples", "benchmarks"):
        tree = ast.parse(path.read_text(), filename=str(path))
        body = tree.body
        if path.name == "__init__.py":
            body = [node for node in body if not _reexport(node)]
        for top in body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and not isinstance(
                    node.ctx, ast.Store
                ):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and not isinstance(
                    node.ctx, ast.Store
                ):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    used.add(node.value)
    return used


def test_every_src_definition_has_a_caller():
    used = _used_names()
    unused = [
        f"{path.relative_to(ROOT)}:{line} {qualified}"
        for path, line, qualified, name, registered in _definitions()
        if name not in used and not registered and name not in KEPT
    ]
    assert not unused, (
        "no caller outside the tests — delete it, or move it to "
        "tests/oracles.py:\n  " + "\n  ".join(unused)
    )


def test_every_kept_name_is_still_defined_and_still_uncalled():
    """An entry of ``KEPT`` goes once its definition gains a caller or
    is deleted, so the list cannot grow stale."""
    used = _used_names()
    defined = {name for _, _, _, name, _ in _definitions()}
    assert set(KEPT) <= defined
    assert not set(KEPT) & used


def _annotation_names(node):
    """Names inside a quoted annotation (``-> "History"``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            expr = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return set()


def _unused_imports(path):
    """``(line, name)`` of every name ``path`` imports and never uses.

    A package ``__init__`` re-exports, a name in ``__all__`` is exported,
    ``from __future__`` is a compiler directive, and an import marked
    ``# noqa: F401`` is made for its side effect."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = "\n".join(lines[node.lineno - 1:node.end_lineno])
            if "noqa: F401" in span:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return [(line, name) for line, name in imported if name not in used]


def test_every_src_import_is_used():
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in _python_files("src")
        if path.name != "__init__.py"
        for line, name in _unused_imports(path)
    ]
    assert not unused, "imported and never used:\n  " + "\n  ".join(unused)
