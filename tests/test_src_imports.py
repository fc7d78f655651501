"""Production code never imports the test tree.

Oracles live in ``tests/`` so that ``src/`` carries one implementation of
each idea; an ``import tests...`` under ``src/`` would quietly make an
oracle part of the product.  Every module is parsed, not imported, so a
guarded or lazy import is caught too.
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
