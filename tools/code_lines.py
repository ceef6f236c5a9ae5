"""Count the code lines of ``src/repro``, per subpackage and in total.

A code line is a source line that holds at least one token other than
a comment, a docstring or layout (newlines, indentation).  A docstring
is the string-literal statement that opens a module, class or function
body.  The count is the ROADMAP ledger's size of the program.

Run from the repository root::

    python tools/code_lines.py            # per subpackage, then the total
    python tools/code_lines.py src/repro  # the same, for another root
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path
from typing import Set

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> Set[int]:
    """The line numbers every docstring of ``tree`` spans."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _BODIES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one Python source text."""
    docs = _docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start[0] in docs:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_tree(root: Path) -> Counter:
    """Code lines per subpackage of ``root`` (top-level modules count
    under ``.``)."""
    counts: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        package = rel.parts[0] if len(rel.parts) > 1 else "."
        counts[package] += code_lines(path.read_text(encoding="utf-8"))
    return counts


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/repro")
    counts = count_tree(root)
    width = max(map(len, counts), default=5)
    for package, n in sorted(counts.items()):
        print(f"{package:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
