#!/usr/bin/env python3
"""Print the size of the seqlang sources: lines and code lines, per module and in total.

    python3 tools/code_size.py [SRC_DIR]

SRC_DIR defaults to ``src/seqlang`` beside this script's directory.
``lines`` is what ``wc -l`` counts.  ``code`` counts the lines that hold
a token other than a comment and are not part of a module, class or
function docstring, so blank lines, comments and docstrings are left out.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` are code, as the module docstring says."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = set()
    for token in tokens:
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "seqlang"
    total_lines = total_code = 0
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for path in sorted(src.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, code = source.count("\n"), code_lines(source)
        total_lines += lines
        total_code += code
        print(f"{path.name:<20} {lines:>6} {code:>6}")
    print(f"{'total':<20} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
