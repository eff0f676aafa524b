"""Source hygiene: every import under src/, tests/ and bench/ is used in
its module, and parameters that did nothing stay out of the API.

No linter ships with the toolchain, so this walks the AST.  The package
__init__ is exempt: its imports are the public re-exports.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from idealsieve import constellation, correlation, ideals, lattice, sieve
from idealsieve.numberfield import FIELDS, minkowski_norm

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


def _field_tables(path):
    """The module-level dict literals of a module with a key that is a
    vetted field's name or polynomial."""
    keys = set(FIELDS) | {rec[0] for rec in FIELDS.values()}
    out = []
    for node in ast.parse(path.read_text()).body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) \
            else None
        if isinstance(value, ast.Dict) and any(
                k is not None and _literal(k) in keys for k in value.keys):
            out += [f"{path.name}: {name}" for name in _defined_names(node)]
    return out


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def test_one_table_per_field():
    # each vetted field's facts live in its one numberfield.FIELDS record;
    # no other module-level table is keyed by the fields
    assert [t for path in sorted(SRC.glob("*.py"))
            for t in _field_tables(path)] == ["numberfield.py: FIELDS"]


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
    assert "A" not in _params(sieve.SieveConfig)
    for fn in (lattice.iter_ball_elements, minkowski_norm,
               ideals.is_prime_element):
        assert "K" not in _params(fn), fn.__name__
    # two budgets each are in use: the search's and alpha-scan's infinite
    # one; autocorr's and the enumeration budget
    for fn in (lattice.ball_rows, lattice.points_in_parallelotope,
               lattice.iter_points_in_parallelotope,
               lattice.parallelotope_rows):
        assert "budget" in _params(fn), fn.__name__


# bench/micro.py calls ball_elements(Qi, unit, r), so its positional K stays
# until the benchmark is revised (ROADMAP item 6)
_UNREAD_ALLOWED = {"lattice.py: ball_elements(K)"}


def _unread_parameters(path):
    """Parameters of the functions and methods in a module that their body
    (nested functions included) never reads; self and cls excepted."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                  + [a.vararg, a.kwarg] if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{path.name}: {fn.name}({p})" for p in params
                if p not in read and p not in ("self", "cls")]
    return out


def test_every_parameter_is_read():
    # a parameter that does nothing is removed, not carried
    unread = [u for path in sorted(SRC.glob("*.py"))
              for u in _unread_parameters(path)]
    assert sorted(set(unread) - _UNREAD_ALLOWED) == []
    assert _UNREAD_ALLOWED <= set(unread)


def test_private_attributes_read_are_the_package_own():
    # every private attribute read under src/ is one the package defines:
    # none reaches into a library's internals, such as argparse's
    # _option_string_actions
    nodes = [node for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))]
    own = {node.name for node in nodes
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))} | {
        node.attr for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute)
            and node.attr.startswith("_") and not node.attr.startswith("__")}
    assert read <= own


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else node.id


def test_module_caches_are_bounded():
    # a module-level functools cache lives as long as the process, so each
    # has a finite maxsize; functools.cache is lru_cache(maxsize=None)
    caches = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"idealsieve.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and any(
                    _decorator_name(d) in ("lru_cache", "cache")
                    for d in node.decorator_list):
                caches[f"{path.stem}.{node.name}"] = getattr(
                    module, node.name).cache_parameters()["maxsize"]
    assert caches["lattice._ball_form"] == 2 ** 12
    assert [name for name, size in caches.items() if size is None] == []
