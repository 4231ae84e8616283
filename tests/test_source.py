import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "conechoice"


def test_no_bare_assert_in_the_engine():
    # python -O strips asserts, so a check the engine relies on must be an
    # explicit raise or lp.verified.
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
