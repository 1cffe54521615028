"""Count the lines of the package's modules, the two figures the project
tracks: all lines, and code lines, those that are not blank, comments or
docstrings.

A code line is a line that holds a token other than a comment, a line end
or an indent, and that no docstring covers. A docstring is the string
statement that opens a module, class or function body. A line that a
string spans, other than a docstring, is code.

    python tools/source_lines.py [package directory]

The directory defaults to src/lcodr beside this script's parent. Only the
standard library is used.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(all lines, code lines) of one module's source text."""
    spanned = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            spanned.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(spanned - _docstring_lines(ast.parse(text)))


def main(argv) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "lcodr"
    totals = [0, 0]
    print(f"{'module':<20}{'lines':>8}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<20}{lines:>8}{code:>8}")
    print(f"{'total':<20}{totals[0]:>8}{totals[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
