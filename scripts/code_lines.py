"""Count the lines of each module of this checkout's ``src/conechoice``.

    python scripts/code_lines.py

For each module, and then in total, it prints the physical lines, the code
lines (the lines that are not blank, not only a comment and not part of a
docstring of the module, a class or a function) and the public names (the
top-level functions and classes whose names do not start with ``_``).
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "conechoice"

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int, int]:
    """``(physical lines, code lines, public names)`` of one module."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    docstrings = docstring_lines(tree)
    lines = text.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    )
    public = sum(
        1
        for node in tree.body
        if isinstance(node, _DOCUMENTED[1:])  # classes and functions
        and not node.name.startswith("_")
    )
    return len(lines), code, public


def main() -> None:
    rows = [(path.name, *count(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", *(sum(r[column] for r in rows) for column in (1, 2, 3))))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'physical':>8}  {'code':>6}  {'public':>6}")
    for name, physical, code, public in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>6}  {public:>6}")


if __name__ == "__main__":
    main()
