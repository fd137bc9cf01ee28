"""Count the code lines of Python sources.

A code line holds at least one code token: comments, blank lines and the
docstrings of modules, classes and functions do not count.  A token that
spans several lines, such as a multi-line string, counts every line it
covers.

    python tools/count_src_lines.py src/chaoskit

prints one line per file and the total on the last line.  A reader that
closes the output early, as ``| head -3`` does, ends it quietly.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
_WITH_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each module, class and function docstring begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _WITH_DOCSTRING) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count_code_lines(source: str) -> int:
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path, help="files or directories")
    args = parser.parse_args(argv)
    files = sorted(
        f for p in args.paths for f in (p.rglob("*.py") if p.is_dir() else [p])
    )
    total = 0
    for f in files:
        n = count_code_lines(f.read_text())
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
