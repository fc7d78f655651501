#!/usr/bin/env python
"""Count the code lines of python files: lines holding at least one token
that is not a comment, a docstring or whitespace.

A docstring is the leading string statement of a module, class or
function body.  A line that holds both code and a comment or a docstring
(``def f(): \"\"\"doc\"\"\"``) counts; a line inside a multi-line
expression or a non-docstring string counts.  Deleting comments or
docstrings therefore never lowers the count.

    python tools/sloc.py src/repro/core/partition.py
    python tools/sloc.py src tests     # every *.py below, plus a total

Prints ``<lines> <path>`` per file and, for more than one file, a
``<lines> total`` line.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set, Tuple

#: Token types that never make a line count.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_starts(tree: ast.AST) -> Set[Tuple[int, int]]:
    """``(line, col)`` of every docstring token in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            starts.add((body[0].lineno, body[0].col_offset))
    return starts


def count_code_lines(source: str) -> int:
    """Code lines of one python source text (see the module docstring)."""
    docstrings = docstring_starts(ast.parse(source))
    lines: Set[int] = set()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for tok in tokens:
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths: Iterable[str]) -> List[Path]:
    """``paths`` with every directory expanded to its ``*.py`` files."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Count non-blank, non-comment, non-docstring lines.")
    parser.add_argument("paths", nargs="+", help="python files or directories")
    args = parser.parse_args(argv)
    files = python_files(args.paths)
    total = 0
    for path in files:
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7d} {path}")
    if len(files) > 1:
        print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
