"""Dead code in the package, found by reading its source (standard library only).

Five rules, the first four checked over every module in ``src/symsub``:

* every name an import binds is read in the scope holding the import (a
  module-level import may also be listed in ``__all__``, as a re-export);
* every private module-level function is referred to somewhere in the
  package outside its own body;
* no check is an ``assert`` statement, since ``python -O`` strips them, nor
  a ``raise AssertionError``: an internal check raises ``RuntimeError``;
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
  name reached only from the body of another unreached export counts as
  reached until that export is gone.
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


def referred_names(tree):
    """Identifiers read as a name or an attribute, or bound by a ``from ...
    import``, below ``tree``; a module-level def or class does not count as
    referring to itself."""
    found = set()
    for stmt in tree.body:
        names = set()
        for n in ast.walk(stmt):
            if isinstance(n, ast.ImportFrom):
                names |= {alias.name for alias in n.names}
            elif isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                names.add(n.id)
            elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
                names.add(n.attr)
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


def uncalled_private_functions(trees):
    """'module: name' for each private module-level function that nothing
    outside its own body refers to."""
    total = sum((references(tree) for tree in trees.values()), Counter())
    return [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and total[node.name] == references(node)[node.name]]


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


def test_every_public_domain_method_is_called_elsewhere():
    assert uncalled_domain_methods(SOURCES) == []


def test_every_export_is_reached():
    assert unreached_exports(SOURCES, BENCH_SOURCES, ACCEPTANCE, KEPT) == []


def test_kept_exports_are_exported_and_not_reached_otherwise():
    """A kept name that a caller comes to reach leaves ``KEPT``."""
    assert unreached_exports(SOURCES, BENCH_SOURCES, ACCEPTANCE, {}) == sorted(KEPT)


def test_the_rules_catch_what_they_name():
    """An unused import, also one inside a function, a private function
    that only calls itself and a nested assert are found; a function used
    elsewhere and an explicit raise are not."""
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
    """An export that only refers to itself or that a benchmark docstring
    mentions is unreached; a call in the package, a dotted string in the
    benchmark, an acceptance import and a kept name reach theirs."""
    package = {
        "__init__.py": ast.parse('_EXPORTS = {"m": """used self_only traced\\n'
                                 '    mentioned accepted kept"""}\n'),
        "m.py": ast.parse("def used(): pass\ndef self_only(): return self_only()\n"
                          "def caller(): used()\n"),
    }
    bench = {"run.py": ast.parse('"""Times m.mentioned"""\ncalls("m.traced")\n')}
    acceptance = ast.parse("from symsub import accepted\n")
    assert unreached_exports(package, bench, acceptance, {"kept": "why"}) == [
        "mentioned", "self_only"]
