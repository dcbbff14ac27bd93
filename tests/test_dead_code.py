"""Dead code in the package, found by reading its source (standard library only).

Seven rules, the first five checked over every module in ``src/symsub``:

* every name an import binds is read in the scope holding the import (a
  module-level import may also be listed in ``__all__``, as a re-export);
* every private module-level function is referred to somewhere in the
  package outside its own body;
* no check is an ``assert`` statement, since ``python -O`` strips them, nor
  a ``raise AssertionError``: an internal check raises ``RuntimeError``;
* every parameter of a function, a method or a nested function is read
  as a name in its body (a nested function's body counts), or kept in
  ``KEPT_PARAMETERS`` with its reason; dunder methods, and the first
  parameter of other methods unless they are static, are exempt;
* every public method of the two domain classes is called as ``.name(``
  in some module other than ``domains.py``, on a receiver that is not
  rooted at a name the calling module imports (``np.sqrt(`` or
  ``functools.reduce(`` is no call of a domain method), so the domains
  carry only the arithmetic the package calls.  Receivers are told apart
  by name only: a domain held in an imported name would be missed, and a
  non-domain object with a method of the same name counts as a caller;
* every name the package exports (``symsub._EXPORTS``) is reached: referred
  to as a name, an attribute or a ``from ... import`` alias in
  ``src/symsub`` outside its own definition (the export tables are strings,
  so they do not count); or, in ``perfbench/*.py``, as a name, an attribute
  or a string constant equal to the name or ending in ``.name`` (a docstring
  that mentions it is no reference); or referred to in
  ``tests/test_acceptance.py``; or kept in ``KEPT`` with its reason.  A
  name read in the top-level statement that binds it (a local variable or a
  parameter) and an attribute rooted at a name imported from outside the
  package (``np.kron``) refer to something else.  A name reached only from
  the body of another unreached export counts as reached until that export
  is gone;
* every knob is set: each optional parameter of an exported function or
  class ``__init__``, and each defaulted field (``ClassVar`` aside) of an
  exported dataclass or ``NamedTuple``, is passed, by keyword or by
  position, by some call of its function or class (called by name or as an
  attribute) in ``src/symsub`` outside its own definition, in
  ``perfbench/*.py`` or in ``tests/test_acceptance.py``; or kept in
  ``KEPT_KNOBS`` with its reason.  A call that passes ``*args`` or
  ``**kwargs`` sets no knob by them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symsub"


def parsed(paths):
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(paths)}


SOURCES = parsed(PACKAGE.glob("*.py"))
BENCH_SOURCES = parsed((ROOT / "perfbench").glob("*.py"))
ACCEPTANCE = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())

# Exports no caller reaches, each kept for the reason given.
KEPT = {
    "hypergraph_to_json": "writes the hypergraph JSON format the CLI reads; the "
                          "tests build their CLI inputs with it",
    "symrank_upper": "the polarization bound: symmetric rank <= 2^(k-1) * rank "
                     "for a symmetric tensor, the Comon side of the paper",
}


# Knobs no caller sets, each kept for the reason given.
KEPT_KNOBS = {
    "restriction_exists.budget": "every exact search shares the one candidate budget "
                                 "gate; the CLI sets it on the other four searches",
    "symrestriction_exists.budget": "every exact search shares the one candidate budget "
                                    "gate; the CLI sets it on the other four searches",
}


# Parameters no body reads, each kept for the reason given.
KEPT_PARAMETERS = {
    "ballantine_reduce.seed": "ignored since the reduction is one deterministic pass; "
                              "perfbench/workloads.py still passes it",
    "sym_diagonalize.seed": "ignored since the reduction is one deterministic pass; "
                            "perfbench/workloads.py still passes it",
}


def exported(tree):
    """The strings of a module-level ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in ast.walk(node.value)
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return set()


def scopes(tree):
    """(scope node, its own imports) for the module and each function in it."""
    todo = [tree]
    while todo:
        scope = todo.pop()
        imports, stack = [], list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.append(node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imports.append(node)
            else:
                stack.extend(ast.iter_child_nodes(node))
        yield scope, imports


def unused_imports(tree):
    """'line N: name' for each imported name its scope never reads."""
    found = []
    for scope, imports in scopes(tree):
        used = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        if scope is tree:
            used |= exported(tree)
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.append(f"line {node.lineno}: {bound}")
    return found


def references(node):
    """How often each identifier is referred to below ``node``, as a name or
    an attribute (``module._helper``)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def foreign_names(tree):
    """The names that imports from outside the package bind below ``tree``
    (``np`` of ``import numpy as np``); relative imports and those of
    ``symsub`` are the package's own."""
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            found |= {alias.asname or alias.name.split(".")[0] for alias in n.names
                      if alias.name.split(".")[0] != "symsub"}
        elif isinstance(n, ast.ImportFrom) and not n.level and n.module.split(".")[0] != "symsub":
            found |= {alias.asname or alias.name for alias in n.names}
    return found


def referred_names(tree):
    """Identifiers read as a name or an attribute, or bound by a ``from ...
    import``, below ``tree``.  A module-level def or class does not count as
    referring to itself, a name read in the top-level statement that binds
    it (a local variable or a parameter) is no reference, and neither is an
    attribute rooted at a name imported from outside the package
    (``np.kron``)."""
    foreign = foreign_names(tree)
    found = set()
    for stmt in tree.body:
        names, reads, bound = set(), set(), set()
        for n in ast.walk(stmt):
            if isinstance(n, ast.ImportFrom):
                names |= {alias.name for alias in n.names}
            elif isinstance(n, ast.arg):
                bound.add(n.arg)
            elif isinstance(n, ast.Name):
                (bound if isinstance(n.ctx, ast.Store) else reads).add(n.id)
            elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store) and (
                    root_name(n) not in foreign):
                names.add(n.attr)
        names |= reads - bound
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        found |= names
    return found


def string_references(tree):
    """Every string constant below ``tree`` that is not a docstring, and its
    last dotted part (``"quantum.jacobi_eigh"`` names ``jacobi_eigh``)."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    return {part for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and id(n) not in docstrings
            for part in (n.value, n.value.rsplit(".", 1)[-1])}


def package_exports(init):
    """The names of the package's ``_EXPORTS`` table (module -> names string)."""
    for node in init.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
            return {name for value in node.value.values for name in value.value.split()}
    return set()


def unreached_exports(package, bench, acceptance, kept):
    """Each exported name that neither the package, the benchmark nor an
    acceptance test reaches, and that ``kept`` does not keep, sorted."""
    reached = set().union(*map(referred_names, package.values()), referred_names(acceptance),
                          *map(referred_names, bench.values()),
                          *map(string_references, bench.values()))
    return sorted(package_exports(package["__init__.py"]) - reached - set(kept))


def is_classvar(annotation):
    """Whether an annotation is ``ClassVar`` or ``ClassVar[...]`` (or
    ``typing.ClassVar...``)."""
    node = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return (isinstance(node, ast.Name) and node.id == "ClassVar") or (
        isinstance(node, ast.Attribute) and node.attr == "ClassVar")


def is_record(cls):
    """Whether a class takes its fields as constructor arguments: a
    dataclass or a ``NamedTuple``."""
    tags = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list] + cls.bases
    return any(getattr(t, "id", getattr(t, "attr", None)) in ("dataclass", "NamedTuple")
               for t in tags)


def optional_parameters(args, skip_self=False):
    """(name, position) of each parameter with a default; keyword-only ones
    have position None."""
    positional = (args.posonlyargs + args.args)[1 if skip_self else 0:]
    first = len(positional) - len(args.defaults)
    return [(a.arg, i) for i, a in enumerate(positional) if i >= first] + [
        (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def knobs(package):
    """(definition, "Name.knob", knob, position) for each knob of an export."""
    names = package_exports(package["__init__.py"])
    for tree in package.values():
        for node in tree.body:
            params = []
            if isinstance(node, ast.FunctionDef) and node.name in names:
                params = optional_parameters(node.args)
            elif isinstance(node, ast.ClassDef) and node.name in names:
                init = [n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
                if init:
                    params = optional_parameters(init[0].args, skip_self=True)
                elif is_record(node):
                    fields = [n for n in node.body if isinstance(n, ast.AnnAssign)
                              and isinstance(n.target, ast.Name) and not is_classvar(n.annotation)]
                    params = [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]
            for param, position in params:
                yield node, f"{node.name}.{param}", param, position


def calls_of(tree, name, skip=None):
    """The calls ``name(...)`` and ``anything.name(...)`` below ``tree``,
    outside the node ``skip``."""
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return found


def passes(call, param, position):
    """Whether a call passes the parameter by keyword or by position."""
    return any(kw.arg == param for kw in call.keywords) or (
        position is not None and len(call.args) > position
        and not any(isinstance(a, ast.Starred) for a in call.args[:position + 1]))


def unset_knobs(package, bench, acceptance, kept):
    """Each knob that no call in the package (outside its definition), the
    benchmark or the acceptance tests passes, and that ``kept`` does not
    keep, sorted."""
    trees = [*package.values(), *bench.values(), acceptance]
    return sorted(knob for node, knob, param, position in knobs(package) if knob not in kept
                  and not any(passes(call, param, position)
                              for tree in trees for call in calls_of(tree, node.name, node)))


def uncalled_private_functions(trees):
    """'module: name' for each private module-level function that nothing
    outside its own body refers to."""
    total = sum((references(tree) for tree in trees.values()), Counter())
    return [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and total[node.name] == references(node)[node.name]]


def unread_parameters(tree):
    """'qualified.name.param' for each parameter of a function below
    ``tree`` that its body never reads; dunder methods, and the first
    parameter (self, cls) of a method that is not static, are exempt."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix)
                continue
            name, args = f"{prefix}{child.name}", child.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a]
            if isinstance(node, ast.ClassDef) and not any(
                    getattr(d, "id", None) == "staticmethod" for d in child.decorator_list):
                params = params[1:]
            read = {n.id for stmt in child.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            if not (child.name.startswith("__") and child.name.endswith("__")):
                found.extend(f"{name}.{a.arg}" for a in params if a.arg not in read)
            visit(child, f"{name}.")

    visit(tree, "")
    return found


def assert_statements(tree):
    """'line N' for each ``assert`` statement."""
    return [f"line {n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]


def assertion_error_raises(tree):
    """'line N' for each ``raise AssertionError`` (called or not)."""
    return [f"line {n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Raise) and any(
        isinstance(e, ast.Name) and e.id == "AssertionError" for e in ast.walk(n.exc or n))]


def imported_names(tree):
    """The names an import anywhere in the module binds."""
    return {alias.asname or alias.name.split(".")[0] for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom)) for alias in n.names}


def root_name(node):
    """``a`` for ``a.b.c``; None when the chain starts at a call, subscript, ..."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def uncalled_domain_methods(trees, domains="domains.py"):
    """'Class.name' for each public method of a class in ``domains`` that no
    other module calls as ``.name(`` on a receiver not rooted at one of its
    imported names."""
    called = set()
    for module, tree in trees.items():
        if module != domains:
            imported = imported_names(tree)
            called |= {n.func.attr for n in ast.walk(tree)
                       if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                       and root_name(n.func.value) not in imported}
    return [f"{cls.name}.{node.name}" for cls in trees[domains].body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and not node.decorator_list
            and node.name not in called]


def test_no_module_imports_a_name_it_never_uses():
    unused = {name: unused_imports(tree) for name, tree in SOURCES.items()}
    assert {name: lines for name, lines in unused.items() if lines} == {}


def test_every_private_function_is_called():
    assert uncalled_private_functions(SOURCES) == []


def test_no_check_is_an_assert_statement():
    found = {name: assert_statements(tree) for name, tree in SOURCES.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_no_internal_error_is_an_assertion_error():
    found = {name: assertion_error_raises(tree) for name, tree in SOURCES.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_every_parameter_is_read():
    found = {name: unread_parameters(tree) for name, tree in SOURCES.items()}
    assert {name: [p for p in params if p not in KEPT_PARAMETERS]
            for name, params in found.items()
            if set(params) - set(KEPT_PARAMETERS)} == {}


def test_kept_parameters_are_parameters_no_body_reads():
    """A kept parameter that its body comes to read, or that is deleted,
    leaves ``KEPT_PARAMETERS``."""
    assert sorted(p for tree in SOURCES.values() for p in unread_parameters(tree)) == sorted(
        KEPT_PARAMETERS)


def test_every_public_domain_method_is_called_elsewhere():
    assert uncalled_domain_methods(SOURCES) == []


def test_every_export_is_reached():
    assert unreached_exports(SOURCES, BENCH_SOURCES, ACCEPTANCE, KEPT) == []


def test_kept_exports_are_exported_and_not_reached_otherwise():
    """A kept name that a caller comes to reach leaves ``KEPT``."""
    assert unreached_exports(SOURCES, BENCH_SOURCES, ACCEPTANCE, {}) == sorted(KEPT)


def test_every_knob_is_set():
    assert unset_knobs(SOURCES, BENCH_SOURCES, ACCEPTANCE, KEPT_KNOBS) == []


def test_kept_knobs_are_knobs_no_caller_sets():
    """A kept knob that a caller comes to set leaves ``KEPT_KNOBS``."""
    assert unset_knobs(SOURCES, BENCH_SOURCES, ACCEPTANCE, {}) == sorted(KEPT_KNOBS)


def test_the_rules_catch_what_they_name():
    """An unused import, also one inside a function, a private function
    that only calls itself, a nested assert and an unread parameter, also
    ``*args`` or one of a nested function or a static method, are found; a
    function used elsewhere, an explicit raise, a parameter a nested
    function reads, ``self``, ``cls`` and a dunder's parameters are not."""
    tree = ast.parse("from typing import Optional, Tuple\n"
                     "def _dead() -> Tuple: return _dead()\n"
                     "def _used(): import json\n")
    other = ast.parse("from m import _used\n_used()\n")
    assert unused_imports(tree) == ["line 1: Optional", "line 3: json"]
    assert uncalled_private_functions({"a.py": tree, "b.py": other}) == ["a.py: _dead"]
    checks = ast.parse("def f(x):\n    if x:\n        assert x > 1\n    raise AssertionError\n")
    assert assert_statements(checks) == ["line 3"]
    assert assertion_error_raises(checks) == ["line 4"]
    assert assertion_error_raises(ast.parse("raise AssertionError('x')\nraise RuntimeError('y')\n")) == [
        "line 1"]
    params = ast.parse(
        "def f(read, unread, *args, key=1, **kw):\n    def inner(x): return read + key\n"
        "    return inner(kw)\n"
        "class K:\n    def m(self, a): pass\n    def __eq__(self, other): return True\n"
        "    @staticmethod\n    def s(a, b): return b\n"
        "    @classmethod\n    def c(cls, v): return v\n")
    assert unread_parameters(params) == ["f.unread", "f.args", "f.inner.x", "K.m.a", "K.s.a"]
    domains = ast.parse("class F:\n    @property\n    def name(self): pass\n"
                        "    def used(self): pass\n    def sqrt(self): pass\n"
                        "    def reduce(self): pass\n    def dead(self): pass\n"
                        "    def _private(self): pass\n")
    caller = ast.parse("import functools\nimport numpy as np\n"
                       "f.used(1)\nnp.linalg.sqrt(2)\nfunctools.reduce(g, [])\nf.dead\n")
    assert uncalled_domain_methods({"domains.py": domains, "b.py": caller}) == [
        "F.sqrt", "F.reduce", "F.dead"]
    assert uncalled_domain_methods({"domains.py": domains, "b.py": ast.parse(
        "def h(functools): functools.reduce(1)\nnp.sqrt(2)\n")}) == ["F.used", "F.dead"]


def test_the_export_rule_catches_what_it_names():
    """An export that only refers to itself, that a benchmark docstring
    mentions, that only a local variable or a parameter of the same name is
    read as, or that only an attribute of numpy is named after, is
    unreached; a call in the package, an attribute of the package, a dotted
    string in the benchmark, an acceptance import and a kept name reach
    theirs."""
    package = {
        "__init__.py": ast.parse('_EXPORTS = {"m": """used self_only traced\\n'
                                 '    mentioned accepted kept kron total local qualified"""}\n'),
        "m.py": ast.parse("import numpy as np\nimport symsub\n"
                          "def used(): pass\ndef self_only(): return self_only()\n"
                          "def caller(): used()\n"
                          "def kron(): pass\ndef total(): pass\ndef local(): pass\n"
                          "def qualified(): pass\n"
                          "def shadows(x, local):\n    total = np.kron(x, local)\n"
                          "    return total, symsub.qualified\n"),
    }
    bench = {"run.py": ast.parse('"""Times m.mentioned"""\ncalls("m.traced")\n')}
    acceptance = ast.parse("from symsub import accepted\n")
    assert unreached_exports(package, bench, acceptance, {"kept": "why"}) == [
        "kron", "local", "mentioned", "self_only", "total"]


def test_the_knob_rule_catches_what_it_names():
    """A knob passed by keyword or by position is set, one passed only by
    its own body, by ``*args`` or ``**kwargs`` or by nobody is not, a kept
    knob is let be, and a ``ClassVar`` or an undefaulted field is no knob."""
    package = {
        "__init__.py": ast.parse('_EXPORTS = {"m": "f Opts Plain Result"}\n'),
        "m.py": ast.parse(
            "def f(x, by_key=1, by_place=2, *, unset=3, kept=4, starred=5):\n"
            "    return f(x, unset=0)\n"
            "class Plain:\n    def __init__(self, a, b=None): pass\n"
            "@dataclass(frozen=True)\nclass Opts:\n    a: int\n"
            "    label: ClassVar[str] = 'x'\n    b: int = 0\n    c: int = 1\n"
            "class Result(NamedTuple):\n    v: int\n    w: int = 0\n"
            "def caller(args, kw):\n    f(1, by_key=0)\n    Opts(1, 2)\n"
            "    f(*args, **kw)\n    Plain(1, *args)\n"),
    }
    bench = {"run.py": ast.parse("m.f(1, 2, 3)\n")}
    acceptance = ast.parse("Result(v=1, w=2)\n")
    assert unset_knobs(package, bench, acceptance, {"f.kept": "why"}) == [
        "Opts.c", "Plain.b", "f.starred", "f.unset"]
