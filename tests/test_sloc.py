"""``tools/sloc.py`` counts code lines only: comments, docstrings and
blank lines never count, strings and continuation lines always do."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
_spec = importlib.util.spec_from_file_location("sloc", TOOL)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)


def count(source: str) -> int:
    return sloc.count_code_lines(textwrap.dedent(source))


def test_comments_docstrings_and_blanks_do_not_count():
    assert count('''
        """Module docstring,
        on two lines."""
        # a comment

        import os  # trailing comment


        class A:
            """Class docstring."""

            def f(self):
                """Method
                docstring."""
                # comment
                return os.sep
    ''') == 4


def test_strings_and_continuations_count():
    assert count('''
        def f():
            text = """not a
            docstring"""
            return (text,
                    1)
        x = "first statement after code is not a docstring"
    ''') == 6


def test_code_sharing_a_line_with_a_docstring_counts():
    assert count('def f(): """doc"""\n') == 1


def test_deleting_a_comment_never_lowers_the_count():
    code = "x = 1\ny = 2\n"
    assert count(code) == count("# why\n" + code.replace("\n", "  # note\n"))


def test_cli_prints_per_file_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("a = 1\n# c\n")
    (tmp_path / "b.py").write_text('"""doc"""\nb = 2\nc = 3\n')
    assert sloc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "2", "3"]
    assert lines[-1].split()[1] == "total"
