"""List the statements of ``src/conechoice`` that the tier-1 suite never runs.

    python scripts/unreached_lines.py [pytest arguments]

It runs the tier-1 tests in this process under a ``sys.settrace`` line
tracer that follows only the frames of ``src/conechoice``, then prints, for
each module, the first lines of the executable statements that never ran,
and a total.  It exits with pytest's status.  Code that runs only in a
subprocess a test starts (``python -m conechoice``, for one) is not traced,
so it is listed too.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict

from code_lines import PACKAGE, docstring_lines

ROOT = PACKAGE.parents[1]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def statement_lines(source: str) -> list[range]:
    """The lines of each executable statement of ``source``, in order.

    A simple statement spans its own lines; a compound one its decorators and
    header, up to its first body statement.  Docstrings, and annotations
    without a value inside a function, compile to no code and are left out.
    """
    tree = ast.parse(source)
    docstrings = docstring_lines(tree)
    bare = {
        id(inner)
        for node in ast.walk(tree) if isinstance(node, _FUNCTIONS)
        for inner in ast.walk(node) if isinstance(inner, ast.AnnAssign) and inner.value is None
    }
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in bare:
            continue
        if isinstance(node, ast.Expr) and node.lineno in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        # A statement with a body runs only its header lines as its own.
        last = max(node.lineno, node.body[0].lineno - 1) if hasattr(node, "body") \
            else node.end_lineno
        spans.append(range(first, last + 1))
    return sorted(spans, key=lambda span: span.start)


def unreached(source: str, ran: set[int]) -> list[int]:
    """The first line of each statement of ``source`` none of whose lines ran."""
    return [span.start for span in statement_lines(source) if ran.isdisjoint(span)]


def _trace_package() -> dict[str, set[int]]:
    """Start tracing the package's frames; returns the lines that run, per file."""
    ran: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    return ran


def main(argv: list[str]) -> int:
    import pytest

    ran = _trace_package()
    status = pytest.main(["-q", "--continue-on-collection-errors", "--rootdir", str(ROOT),
                          *(argv or [str(ROOT / "tests")])])
    sys.settrace(None)
    total = statements = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = unreached(source, ran[str(path)])
        statements += len(statement_lines(source))
        total += len(lines)
        if lines:
            print(f"{path.name}: {', '.join(map(str, lines))}")
    print(f"total: {total} of {statements} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
