"""Count the physical lines of `src/shlattice` that hold code.

A line holds code when a token other than a comment or a line break
touches it; docstrings (the first statement of a module, class or
function, when it is a string) do not count.  Tokens come from
`tokenize`, docstrings from `ast`.  Prints one line per module and the
total:

    python tools/src_lines.py [package-dir]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shlattice"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Physical lines of one module that hold code."""
    with tokenize.open(path) as fh:
        tokens = list(tokenize.generate_tokens(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_text(), str(path))))


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    counts = {p.stem: code_lines(p) for p in sorted(package.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
