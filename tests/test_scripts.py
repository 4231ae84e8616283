import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_coin_example_script_runs():
    # The README's tour of the API must keep running against the current API.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_coin_example.py")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "== assessments ==" in proc.stdout


def test_code_lines_totals_are_the_sums_of_the_module_rows():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "physical", "code"]
    assert {row[0] for row in rows} >= {"__init__.py", "cone.py", "lp.py"}
    assert total[0] == "total"
    for column in (1, 2):
        assert int(total[column]) == sum(int(row[column]) for row in rows)
    assert all(0 < int(row[2]) <= int(row[1]) for row in rows)


def test_unreached_lines_finds_each_statement_once(monkeypatch):
    # Only the statement finder runs here: the script's own tier-1 run would
    # run tier-1 inside tier-1.
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    unreached_lines = importlib.import_module("unreached_lines")
    source = textwrap.dedent(
        '''\
        """A module docstring."""
        import os


        @staticmethod
        def f(x: int) -> int:
            """A function docstring."""
            y: int
            if x > 0:
                return (x +
                        1)
            return 0


        class C:
            """A class docstring."""
            a: int
        '''
    )
    spans = unreached_lines.statement_lines(source)
    assert [(span.start, span.stop - 1) for span in spans] == [
        (2, 2), (5, 6), (9, 9), (10, 11), (12, 12), (15, 15), (17, 17),
    ]
    # A statement has run when any of its lines has.
    assert unreached_lines.unreached(source, {2, 6, 9, 11, 15, 17}) == [12]
    assert unreached_lines.unreached(source, set()) == [2, 5, 9, 10, 12, 15, 17]
