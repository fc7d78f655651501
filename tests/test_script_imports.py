"""Scripts outside the test suite still name only what the package has.

``examples/*.py``, the paper benches (``benchmarks/bench_*.py``) and their
``benchmarks/common.py`` helpers are run by hand, not by CI, so a deleted
public name would strand them silently.  Every script is parsed, not run:
each ``from repro... import name`` must resolve, and so must each
``module.attr`` read off a module imported that way (``api.PipelineTrainer``
after ``from repro import api``).
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/bench_*.py"),
                  ROOT / "benchmarks" / "common.py"])


def _resolve(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except (ModuleNotFoundError, AttributeError):
        pass
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def unresolved(tree) -> list:
    """``"line: module.name"`` for each repro name ``tree`` cannot reach."""
    missing, modules = [], {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "repro"):
            for alias in node.names:
                found = _resolve(node.module, alias.name)
                if found is None:
                    missing.append(f"{node.lineno}: {node.module}.{alias.name}")
                elif isinstance(found, ModuleType):
                    modules[alias.asname or alias.name] = found
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{node.lineno}: {modules[node.value.id].__name__}"
                           f".{node.attr}")
    return missing


def test_every_script_is_checked():
    names = {path.name for path in SCRIPTS}
    assert "common.py" in names and "image_classification.py" in names
    assert len(SCRIPTS) > 30


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports_resolve(path):
    assert unresolved(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_check_sees_a_stranded_name():
    tree = ast.parse("from repro.runtime import PipelineTrainer, GoneTrainer\n"
                     "from repro import api\n"
                     "api.PipelineTrainer, api.GoneTrainer\n"
                     "from repro.nope import thing\n")
    assert unresolved(tree) == ["1: repro.runtime.GoneTrainer",
                                "4: repro.nope.thing",
                                "3: repro.api.GoneTrainer"]
