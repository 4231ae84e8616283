import os
import subprocess
import sys
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
