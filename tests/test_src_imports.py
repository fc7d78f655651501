"""Production code never imports the test tree, nor a name it never uses.

Oracles live in ``tests/`` so that ``src/`` carries one implementation of
each idea; an ``import tests...`` under ``src/`` would quietly make an
oracle part of the product.  An imported name nothing reads is dead code
that hides which module really depends on which.  Every module is parsed,
not imported, so a guarded or lazy import is caught too.
"""

import ast
from importlib.util import resolve_name
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
#: them off it.  Package surfaces import nothing: see :func:`export_table`.
REEXPORTS = {
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


def exported_names(value):
    """The names an ``__all__ = value`` assignment lists: a literal list or
    tuple, or a ``lazy_exports(globals(), {module: "name ..."})`` table."""
    if isinstance(value, (ast.List, ast.Tuple)):
        return [elt.value for elt in value.elts]
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "lazy_exports":
        table = ast.literal_eval(value.args[1])
        return [name for names in table.values() for name in names.split()]
    raise AssertionError(f"unreadable __all__ at line {value.lineno}")


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
            names.update(exported_names(node.value))
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


# -- Export tables ----------------------------------------------------------

SURFACES = sorted([*SRC.glob("repro/**/__init__.py"), SRC / "repro" / "api.py"])


def export_table(tree):
    """``(value node, {module: names})`` of the module's top-level
    ``__all__ = lazy_exports(globals(), {...})``, or ``None``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                and isinstance(node.value, ast.Call)):
            return node.value, ast.literal_eval(node.value.args[1])
    return None


def module_file(dotted):
    path = SRC.joinpath(*dotted.split("."))
    return next((p for p in (path.with_suffix(".py"), path / "__init__.py")
                 if p.is_file()), None)


def top_level_names(path):
    """Every name a module binds in its top-level statements."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(n.id for t in node.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(name for _, name in imported_names(node))
    return names


def stale_entries(table, package):
    """``"name: module"`` for each table entry whose module is missing or
    does not bind the name; a key ending in ``"."`` lists submodules."""
    stale = []
    for module, names in table.items():
        for name in names.split():
            if module.endswith("."):
                dotted = resolve_name(module + name, package)
                ok = module_file(dotted) is not None
            else:
                dotted = resolve_name(module, package)
                path = module_file(dotted)
                ok = path is not None and name in top_level_names(path)
            if not ok:
                stale.append(f"{name}: {dotted}")
    return stale


def surface_package(path):
    """The package a surface's relative module names resolve against."""
    return ".".join(path.relative_to(SRC).parent.parts)


def test_every_package_surface_is_one_export_table():
    assert len(SURFACES) == 14
    for path in SURFACES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found = export_table(tree)
        assert found is not None, path
        value, table = found
        names = exported_names(value)
        assert len(names) == len(set(names)), f"{path}: a name listed twice"
        imports = [node for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert all(node.module in ("repro", "importlib") for node in imports), (
            f"{path} imports eagerly")


def test_every_table_entry_names_a_module_that_binds_it():
    stale = []
    for path in SURFACES:
        _, table = export_table(ast.parse(path.read_text()))
        stale += [f"{path.relative_to(SRC)}: {entry}"
                  for entry in stale_entries(table, surface_package(path))]
    assert stale == []


def test_the_table_check_sees_a_stale_entry():
    assert stale_entries({".partition": "Stage Gone", ".": "schedule nope",
                          "..sim.memory": "stage_memory_cost"},
                         "repro.core") == ["Gone: repro.core.partition",
                                           "nope: repro.core.nope"]
