"""Production code never imports the test tree, nor a name it never uses.

Oracles live in ``tests/`` so that ``src/`` carries one implementation of
each idea; an ``import tests...`` under ``src/`` would quietly make an
oracle part of the product.  An imported name nothing reads is dead code
that hides which module really depends on which.  Every module is parsed,
not imported, so a guarded or lazy import is caught too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_src_never_imports_tests():
    files = sorted(SRC.rglob("*.py"))
    assert files
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {module}"
        for path in files
        for line, module in imported_modules(
            ast.parse(path.read_text(), filename=str(path)))
        if module == "tests" or module.startswith("tests.")
    ]
    assert offenders == []


def test_the_check_sees_both_import_forms():
    tree = ast.parse("import tests.oracles\nfrom tests import oracles\n"
                     "from . import tests\nimport testsuite\n")
    assert [module for _, module in imported_modules(tree)] == [
        "tests.oracles", "tests", "testsuite"]


#: Deliberate re-exports: names a module imports only so callers can read
#: them off it.  ``None`` marks a whole module as a re-export surface.
REEXPORTS = {
    "repro/api.py": None,
    "repro/core/partition.py": {"clear_eval_tables", "eval_tables_stats"},
    # benchmarks/e2e/sweep_grid.py imports the strategy table from here.
    "repro/sim/sweep.py": {"STRATEGIES"},
}


def imported_names(tree):
    """``(line, name)`` of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def read_names(tree):
    """Every name the module reads: loads, ``__all__`` entries and the
    names inside string annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(elt.value for elt in node.value.elts)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.update(
                    n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                    if isinstance(n, ast.Name))
    return names


def unused_imports(tree, allowed=frozenset()):
    used = read_names(tree)
    return [(line, name) for line, name in imported_names(tree)
            if name not in used and name not in allowed]


def test_src_imports_only_names_it_uses():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        allowed = REEXPORTS.get(rel, frozenset())
        if allowed is None:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{rel}:{line}: {name}"
                      for line, name in unused_imports(tree, allowed)]
    assert offenders == []


def test_the_unused_check_sees_every_binding_and_use():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom typing import List, Dict\n"
        "from a import b, c as d, e, f\n"
        "__all__ = ['e']\n"
        "def g(x: 'List[int]') -> None:\n    return os.sep, d\n")
    assert unused_imports(tree) == [
        (3, "np"), (4, "Dict"), (5, "b"), (5, "f")]
    assert unused_imports(tree, {"np", "b"}) == [(4, "Dict"), (5, "f")]
