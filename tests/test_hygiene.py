"""``src/`` holds what the system runs.

Every top-level function and class in ``src/``, and every method of a
top-level class, must have a caller outside the tests: its name occurs in
``src/`` (an ``__init__`` re-export or an ``__all__`` entry does not
count), ``examples/`` or ``benchmarks/``.  A name is also reached

- by string, where a string literal that equals it is an attribute name:
  the name argument of ``getattr``/``hasattr``, the key of
  ``vars(...)[...]`` (the benchmark's tracer), an argument of a function
  that hands its parameter to ``getattr`` (``_each_proxy("set_extra_delay")``),
  or the second field of a method table row ``(owner, "name", ...)``.  A
  dict key, a JSON field or an operation name such as
  ``Invocation("top")`` reaches nothing;
- through the criteria registry, when the function is decorated
  ``@register("...")``;
- by the standard library, when the method overrides one that a
  standard-library base of its class defines (the event loop calls
  ``data_received`` on an ``asyncio.Protocol``).

A method is reached by an attribute only at a site whose receiver could
be an instance (or the class object) of its class: of that class, of a
subclass, of a base, or of a class that shares a subclass with it.  A
receiver's type is resolved where that is cheap — an imported module
(which holds no methods), a local or ``self.x`` assigned from a
constructor call, an annotated field or parameter, ``self`` in a
method, and a call whose return annotation names the type; a receiver
that resolves to none of these counts for every class.  So a dead
``stop`` does not pass through ``range.stop``, nor a dead facade method
through the same-named method of the class it wraps.

Code that only tests use belongs in ``tests/`` (reference oracles and
test tools live in ``tests/oracles.py``).
"""

import ast
import importlib
import importlib.util
import pathlib
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: definitions with no caller outside the tests, kept on purpose, by
#: qualified name
KEPT = {
    "ReliableBroadcast.retained_log": "the broadcast layer's retained log "
    "as an observable; five test files read the log through it",
    "RunResult.fingerprint": "a run's identity: tests/goldens/runtime.json "
    "is keyed by RunResult.fingerprint()",
    "ProductADT": "Sec. 4.2 states composition over the product of ADTs; "
    "tests/test_product.py proves memory is the product of registers",
    "History.po_lt": "program order |-> of Sec. 2 as a predicate: the "
    "history tests state po through it, the checkers read the masks",
    "History.from_dag": "a history whose program order is not a union of "
    "chains (fork/join); only the tests build one",
    "history_dot": "util/dot.py waits for its caller, the rendering of a "
    "violation as the paper draws it (ROADMAP)",
    "hierarchy_dot": "util/dot.py waits for its caller (see history_dot)",
    "ReliableBroadcast.seen_ids": "the broadcast layer's seen set as an "
    "observable; five test files compare replicas through it",
    "TimeZones.present": "Fig. 2's present zone beside the five stored "
    "ones; CRITERION_ZONES names it and the zone tests read it",
    "_StarvePulls._pull_request": "a planted bug: chaos/sentinels.plant "
    "mixes it into the lazy-push part class with type() at run time, a "
    "subclass no static scan sees",
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
    """(file, line, qualified name, name, owner class, registered?) of
    every top-level function and class in src/ (owner ``None``) and
    every method of a top-level class; dunder methods are called by the
    language, and overrides of a standard-library base's methods by the
    library."""
    for path in _python_files("src"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield (
                path, node.lineno, node.name, node.name, None,
                _registered(node),
            )
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
                            sub.name, node.name, False,
                        )


def _registered(node):
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Name)
        and d.func.id == "register"
        for d in getattr(node, "decorator_list", ())
    )


def _is_all(node):
    """The ``__all__`` list of a package ``__init__``: an export, not a use."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _module_name(path):
    """Dotted module name of a scanned file (its package for ``__init__``)."""
    for root in (SRC, ROOT / "benchmarks", ROOT):
        if root in path.parents:
            parts = list(path.relative_to(root).with_suffix("").parts)
            return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
    raise ValueError(path)


def _is_module(dotted):
    try:
        return importlib.util.find_spec(dotted) is not None
    except (ImportError, ValueError):
        return False


#: annotations naming a builtin type (no class here derives from one;
#: ``tuple`` is left out, a ``NamedTuple`` is one)
_BUILTINS = {
    "int", "float", "str", "bytes", "bool", "range",
    "dict", "list", "set", "frozenset",
}
_CONTAINERS = {"Dict": "dict", "List": "list", "Set": "set", "FrozenSet": "frozenset"}
_UNKNOWN = ("unknown",)


class _Scope:
    def __init__(self, parent, kind, cls=None):
        self.parent = parent
        #: "module", "class" or "function"
        self.kind = kind
        #: the class whose body this is
        self.cls = cls
        #: name -> every binding of it in this scope
        self.bindings = defaultdict(list)


class _Scan:
    """Every name read, string constant and attribute site in src/,
    examples/ and benchmarks/, with what is known of each receiver.
    A bare name reaches a method only when it is read in its class's
    body: a method body cannot see its class's names.

    A type is a frozenset of tokens — ``("inst", C)``, ``("cls", C)``,
    ``("module",)``, ``("builtin", b)``, ``("func", def node)`` — or
    ``None`` when it is not resolved.  A binding is ``("types", t)``,
    ``("expr", node, scope)``, ``("ann", annotation)``, ``("import",
    module, name)`` or ``_UNKNOWN``.  Classes are named by their bare
    names, which are unique across the scanned tree."""

    def __init__(self):
        self.names = set()
        #: string literals used as attribute names (see the module doc)
        self.strings = set()
        #: (callee name, string literal argument) of every call, and the
        #: functions that pass a parameter to ``getattr`` as the name
        self._string_args = set()
        self._forwarders = set()
        #: class name -> names read in that class's body
        self.class_reads = defaultdict(set)
        #: attribute name -> [(receiver expression, scope)]
        self.sites = defaultdict(list)
        #: class name -> base names, and attribute name -> bindings
        self.bases = {}
        self.members = defaultdict(lambda: defaultdict(list))
        #: top-level function name -> its definitions
        self.functions = defaultdict(list)
        self._memo = {}
        self._handled = set()
        for path in _python_files("src", "examples", "benchmarks"):
            tree = ast.parse(path.read_text(), filename=str(path))
            body = tree.body
            if path.name == "__init__.py":
                body = [node for node in body if not _is_all(node)]
            scope = _Scope(None, "module")
            #: the package relative imports of this file count from
            self._package = _module_name(path)
            if path.name != "__init__.py":
                self._package = self._package.rpartition(".")[0]
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.functions[node.name].append(node)
                self._statement(node, scope, None)
        self.strings.update(
            string for callee, string in self._string_args
            if callee in self._forwarders
        )
        self._family = {}

    # -- collecting -------------------------------------------------------
    def _statement(self, node, scope, owner):
        """Record ``node`` and everything under it that runs in ``scope``;
        ``owner`` is ``(class name, self parameter)`` inside a method."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._function(node, scope, owner)
            return
        if isinstance(node, ast.ClassDef):
            self._class(node, scope)
            return
        if isinstance(node, ast.Lambda):
            inner = _Scope(scope, "function")
            for arg in _all_args(node.args):
                inner.bindings[arg.arg].append(_UNKNOWN)
            self._statement(node.args, scope, owner)
            self._statement(node.body, inner, owner)
            return
        self._record(node, scope, owner)
        for child in ast.iter_child_nodes(node):
            self._statement(child, scope, owner)

    def _record(self, node, scope, owner):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(node, ast.AnnAssign):
                    binding = ("ann", node.annotation)
                else:
                    binding = ("expr", node.value, scope)
                if isinstance(target, ast.Name):
                    scope.bindings[target.id].append(binding)
                    self._handled.add(id(target))
                elif _on_self(target, owner):
                    self.members[owner[0]][target.attr].append(binding)
                    self._handled.add(id(target))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.Import):
                    name = alias.asname or alias.name.split(".")[0]
                    scope.bindings[name].append(("types", frozenset({("module",)})))
                else:
                    base = node.module or ""
                    if node.level:
                        package = self._package.split(".")
                        package = package[: len(package) - node.level + 1]
                        base = ".".join(filter(None, [*package, node.module]))
                    scope.bindings[alias.asname or alias.name].append(
                        ("import", base, alias.name)
                    )
        elif isinstance(node, ast.ExceptHandler) and node.name:
            scope.bindings[node.name].append(_UNKNOWN)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                scope.bindings[name].append(_UNKNOWN)
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self.names.add(node.id)
                if scope.kind == "class":
                    self.class_reads[scope.cls].add(node.id)
            elif id(node) not in self._handled:
                scope.bindings[node.id].append(_UNKNOWN)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                self.sites[node.attr].append((node.value, scope))
            elif _on_self(node, owner) and id(node) not in self._handled:
                self.members[owner[0]][node.attr].append(_UNKNOWN)
        elif isinstance(node, ast.Call):
            self.strings.update(_attribute_name_args(node))
            callee = _dotted(node.func)
            if callee is not None:
                self._string_args.update(
                    (callee.rpartition(".")[2], arg.value)
                    for arg in node.args
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                )
        elif isinstance(node, ast.Subscript):
            value, key = node.value, node.slice
            if (
                isinstance(value, ast.Call)
                and _dotted(value.func) == "vars"
                and isinstance(key, ast.Constant)
                and isinstance(key.value, str)
            ):
                self.strings.add(key.value)
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            owner, name = node.elts[:2]
            if (
                _dotted(owner) is not None
                and isinstance(name, ast.Constant)
                and isinstance(name.value, str)
            ):
                self.strings.add(name.value)

    def _function(self, node, scope, owner, cls=None):
        params = {arg.arg for arg in _all_args(node.args)}
        if any(
            isinstance(call, ast.Call)
            and _dotted(call.func) == "getattr"
            and len(call.args) >= 2
            and isinstance(call.args[1], ast.Name)
            and call.args[1].id in params
            for call in ast.walk(node)
        ):
            self._forwarders.add(node.name)
        for part in (*node.decorator_list, node.args, node.returns):
            if part is not None:
                self._statement(part, scope, owner)
        if scope.kind != "class":
            scope.bindings[node.name].append(("types", frozenset({("func", node)})))
        inner = _Scope(scope, "function")
        args = _all_args(node.args)
        decorators = {_dotted(d) for d in node.decorator_list}
        if cls is not None and args and "staticmethod" not in decorators:
            kind = "cls" if "classmethod" in decorators else "inst"
            inner.bindings[args[0].arg].append(("types", frozenset({(kind, cls)})))
            owner = (cls, args[0].arg)
            args = args[1:]
        for arg in args:
            inner.bindings[arg.arg].append(
                ("ann", arg.annotation) if arg.annotation is not None else _UNKNOWN
            )
        for child in node.body:
            self._statement(child, inner, owner)

    def _class(self, node, scope):
        for part in (*node.decorator_list, *node.bases, *node.keywords):
            self._statement(part, scope, None)
        scope.bindings[node.name].append(("types", frozenset({("cls", node.name)})))
        self.bases[node.name] = [_dotted(b).rpartition(".")[2] for b in node.bases if _dotted(b)]
        members = self.members[node.name]
        body = _Scope(scope, "class", node.name)
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = {_dotted(d) for d in child.decorator_list}
                if "property" in decorators:
                    binding = ("ann", child.returns) if child.returns else _UNKNOWN
                elif decorators <= {"staticmethod", "classmethod"}:
                    binding = ("types", frozenset({("func", child)}))
                else:
                    binding = _UNKNOWN
                members[child.name].append(binding)
                self._function(child, body, None, cls=node.name)
            else:
                self._statement(child, body, None)
        for name, bindings in body.bindings.items():
            members[name].extend(bindings)

    # -- resolving --------------------------------------------------------
    def _lookup(self, name, scope):
        inner = scope
        while scope is not None:
            if name in scope.bindings and (scope is inner or scope.kind != "class"):
                return self._union(scope.bindings[name])
            scope = scope.parent
        return None

    def _union(self, bindings):
        out = set()
        for binding in bindings:
            types = self._binding(binding)
            if types is None:
                return None
            out |= types
        return frozenset(out)

    def _binding(self, binding):
        kind = binding[0]
        if kind == "types":
            return binding[1]
        if kind == "expr":
            return self.types(binding[1], binding[2])
        if kind == "ann":
            return self._annotation(binding[1])
        if kind == "import":
            _, module, name = binding
            if name in self.bases:
                return frozenset({("cls", name)})
            if _is_module(f"{module}.{name}" if module else name):
                return frozenset({("module",)})
            if name in self.functions:
                return frozenset(("func", f) for f in self.functions[name])
        return None

    def _annotation(self, node):
        if isinstance(node, ast.Constant):
            if node.value is None:
                return frozenset()
            if isinstance(node.value, str):
                try:
                    return self._annotation(ast.parse(node.value, mode="eval").body)
                except SyntaxError:
                    return None
            return None
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = _dotted(node).rpartition(".")[2]
            if name in self.bases:
                return frozenset({("inst", name)})
            if name in _BUILTINS:
                return frozenset({("builtin", name)})
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            parts = [self._annotation(node.left), self._annotation(node.right)]
            return None if None in parts else parts[0] | parts[1]
        if isinstance(node, ast.Subscript) and _dotted(node.value):
            head = _dotted(node.value).rpartition(".")[2]
            if head == "Optional":
                return self._annotation(node.slice)
            if head == "Union" and isinstance(node.slice, ast.Tuple):
                parts = [self._annotation(elt) for elt in node.slice.elts]
                return None if None in parts else frozenset().union(*parts)
            head = _CONTAINERS.get(head, head)
            if head in _BUILTINS:
                return frozenset({("builtin", head)})
        return None

    def types(self, node, scope):
        key = (id(node), id(scope))
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = None  # a cycle resolves to nothing known
        self._memo[key] = result = self._types(node, scope)
        return result

    def _types(self, node, scope):
        if isinstance(node, ast.Name):
            return self._lookup(node.id, scope)
        if isinstance(node, ast.Attribute):
            base = self.types(node.value, scope)
            if base is None:
                return None
            out = set()
            for token in base:
                if token[0] in ("inst", "cls"):
                    member = self._member(token[1], node.attr)
                elif token[0] == "module" and node.attr in self.bases:
                    member = frozenset({("cls", node.attr)})
                else:
                    member = None
                if member is None:
                    return None
                out |= member
            return frozenset(out)
        if isinstance(node, ast.Call):
            func = self.types(node.func, scope)
            if func is None:
                return None
            out = set()
            for token in func:
                if token[0] == "cls":
                    out.add(("inst", token[1]))
                elif token[0] == "func" and token[1].returns is not None:
                    returned = self._annotation(token[1].returns)
                    if returned is None:
                        return None
                    out |= returned
                else:
                    return None
            return frozenset(out)
        return None

    def _member(self, cls, attr):
        bindings = [
            binding
            for other in self.family(cls)
            for binding in self.members[other].get(attr, ())
        ]
        return self._union(bindings) if bindings else None

    def family(self, cls):
        """The classes an instance typed ``cls`` may also be an instance
        of: every base of every subclass of ``cls`` (itself included)."""
        if cls not in self._family:
            below = {cls}
            while True:
                more = {c for c, bases in self.bases.items() if below & set(bases)}
                if more <= below:
                    break
                below |= more
            family = set()
            todo = list(below)
            while todo:
                c = todo.pop()
                if c not in family:
                    family.add(c)
                    todo.extend(b for b in self.bases.get(c, ()) if b in self.bases)
            self._family[cls] = family
        return self._family[cls]

    def reaches(self, cls, attr):
        """Whether some ``receiver.attr`` site could call ``cls.attr``."""
        for receiver, scope in self.sites.get(attr, ()):
            types = self.types(receiver, scope)
            if types is None or any(
                token[0] in ("inst", "cls") and cls in self.family(token[1])
                for token in types
            ):
                return True
        return False


def _attribute_name_args(call):
    """The string literal ``getattr``/``hasattr`` is given as a name."""
    if (
        _dotted(call.func) in ("getattr", "hasattr")
        and len(call.args) >= 2
        and isinstance(call.args[1], ast.Constant)
        and isinstance(call.args[1].value, str)
    ):
        yield call.args[1].value


def _all_args(args):
    return [
        *args.posonlyargs, *args.args,
        *filter(None, [args.vararg]), *args.kwonlyargs,
        *filter(None, [args.kwarg]),
    ]


def _on_self(node, owner):
    return (
        owner is not None
        and isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == owner[1]
    )


def _uncalled():
    """``(file:line qualified, qualified)`` of every definition in src/
    that nothing outside the tests reaches (``KEPT`` not consulted)."""
    scan = _Scan()
    out = []
    for path, line, qualified, name, owner, registered in _definitions():
        if registered or name in scan.strings:
            continue
        if owner is None:
            if name in scan.names or name in scan.sites:
                continue
        elif name in scan.class_reads[owner] or scan.reaches(owner, name):
            continue
        out.append((f"{path.relative_to(ROOT)}:{line} {qualified}", qualified))
    return out


def test_every_src_definition_has_a_caller():
    unused = [where for where, qualified in _uncalled() if qualified not in KEPT]
    assert not unused, (
        "no caller outside the tests — delete it, or move it to "
        "tests/oracles.py:\n  " + "\n  ".join(unused)
    )


def test_every_kept_name_is_still_defined_and_still_uncalled():
    """An entry of ``KEPT`` goes once its definition gains a caller or
    is deleted, so the list cannot grow stale."""
    assert set(KEPT) <= {qualified for _, qualified in _uncalled()}


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
