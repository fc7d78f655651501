"""``tools/reach.py``'s analysis half: which function lines of a source
tree the recorded calls leave unreached.  The surfaces are not run."""

import importlib.util
import os
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = textwrap.dedent('''\
    import functools


    def called():
        return 1


    @functools.lru_cache
    def never(x):
        def inner():
            return x
        return inner
    ''')


def test_function_lines_start_at_the_first_decorator_and_skip_nested():
    assert reach.function_lines(FIXTURE) == {
        4: [4, 5], 8: [8, 9, 12], 10: [10, 11]}


def test_unreached_counts_the_functions_no_call_entered(tmp_path):
    module = tmp_path / "pkg" / "mod.py"
    module.parent.mkdir()
    module.write_text(FIXTURE)
    (tmp_path / "pkg" / "empty.py").write_text("X = 1\n")
    where = os.path.realpath(module)
    assert reach.unreached(tmp_path, {(where, 4)}) == {
        "pkg/empty.py": (0, 0), "pkg/mod.py": (5, 7)}
    assert reach.unreached(tmp_path, {(where, 4), (where, 8)}) == {
        "pkg/empty.py": (0, 0), "pkg/mod.py": (2, 7)}


def test_reached_reads_every_dump(tmp_path):
    (tmp_path / "1").write_text("/a/b.py:3\n/a/b.py:7\n")
    (tmp_path / "2").write_text("/a/b.py:3\n")
    assert reach.reached(str(tmp_path)) == {
        (os.path.realpath("/a/b.py"), 3), (os.path.realpath("/a/b.py"), 7)}
