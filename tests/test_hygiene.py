"""Source hygiene: every import under src/, tests/ and bench/ is used in
its module.

No linter ships with the toolchain, so this walks the AST.  The package
__init__ is exempt: its imports are the public re-exports.
"""

import ast
import pathlib

import pytest

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
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name not in exported | elsewhere \
                    and node.name not in _referenced_names(trees[path], node):
                out.append(f"{path.name}:{node.lineno}: {node.name}")
    return out


def test_every_definition_is_used():
    # a module-level function or class is exported from the package or
    # read somewhere in src/ or bench/; a path that only tests still call
    # (an oracle) belongs in tests/
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
