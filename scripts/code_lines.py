"""Count the lines of each module of this checkout's ``src/conechoice``.

    python scripts/code_lines.py

For each module, and then in total, it prints the physical lines and the
code lines: the lines that are not blank, not only a comment and not part of
a docstring (of the module, a class or a function).
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


def count(path: Path) -> tuple[int, int]:
    """``(physical lines, code lines)`` of one module."""
    text = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    )
    return len(lines), code


def main() -> None:
    rows = [(path.name, *count(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'physical':>8}  {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>6}")


if __name__ == "__main__":
    main()
