"""Source hygiene: every import under src/, tests/ and bench/ is used in
its module, and parameters that did nothing stay out of the API.

No linter ships with the toolchain, so this walks the AST.  The package
__init__ is exempt: its imports are the public re-exports.
"""

import ast
import inspect
import pathlib

import pytest

from idealsieve import constellation, correlation, ideals, lattice, sieve
from idealsieve.numberfield import minkowski_norm

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "idealsieve"
TESTS = SRC.parent.parent / "tests"
BENCH = SRC.parent.parent / "bench"


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    + sorted(TESTS.glob("*.py")) + sorted(BENCH.glob("*.py")),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _referenced_names(tree, skip=None):
    """Names read in a module (bare or as attributes), ignoring the
    subtree `skip`."""
    names = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _unreferenced_definitions():
    init = SRC / "__init__.py"
    exported = {alias.name for node in ast.walk(ast.parse(init.read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    trees = {p: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path == init:
            continue
        elsewhere = set().union(*(_referenced_names(t)
                                  for p, t in trees.items() if p != path))
        for node in trees[path].body:
            for name in _defined_names(node):
                if name not in exported | elsewhere \
                        and name not in _referenced_names(trees[path], node):
                    out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def _defined_names(node):
    """The names a module-level statement defines: a function, a class,
    or the plain-name targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def test_every_definition_is_used():
    # a module-level function, class or constant is exported from the
    # package or read somewhere in src/ or bench/; a path or table that
    # only tests still read (an oracle) belongs in tests/
    assert _unreferenced_definitions() == []


def test_no_builtin_id_calls():
    # object identity is no key for module state: a registry keyed on
    # id() keeps every object alive and goes stale when one is mutated
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert calls == []


def _params(fn):
    return set(inspect.signature(fn).parameters)


def test_named_limits_replace_unused_parameters():
    # budgets that every caller left at their default are named limits in
    # idealsieve.errors; M of the hypergraph report is the constant 2; K
    # goes where another argument carries it
    for fn in (constellation.search_constellation, constellation.alpha_scan,
               correlation.cross_correlation_sum,
               correlation.squarefree_ideals,
               correlation.singular_series_direct,
               correlation.auto_correlation_check,
               correlation.hypergraph_conditions_report,
               ideals.enumerate_prime_ideals, ideals.count_ideals,
               ideals.TruncatedClass.build, lattice.ball_elements,
               lattice.iter_ball_elements, sieve.region_nu_rows):
        assert "budget" not in _params(fn), fn.__name__
    assert "M" not in _params(correlation.hypergraph_conditions_report)
    for fn in (lattice.iter_ball_elements, minkowski_norm,
               ideals.is_prime_element, ideals.is_prime_vector):
        assert "K" not in _params(fn), fn.__name__
    # two budgets each are in use: the search's and alpha-scan's infinite
    # one; autocorr's and the enumeration budget
    for fn in (lattice.ball_rows, lattice.points_in_parallelotope,
               lattice.iter_points_in_parallelotope,
               lattice.parallelotope_rows):
        assert "budget" in _params(fn), fn.__name__
