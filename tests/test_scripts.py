import importlib
import json
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


def test_ab_interleaved_runs_a_tree_against_itself():
    # One second of grid seed 1 (two chunks), with this checkout on both
    # sides: both workers build the same workload, and every verdict passes
    # its check.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_interleaved.py"), str(ROOT), str(ROOT),
         "--workload", "grid", "--seed", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["parent"]) == set(summary["change"]) == {
        "queries_per_s", "query_gmean_ms", "query_tail_ms"
    }


def test_ab_interleaved_refuses_a_tree_without_coin_json(tmp_path):
    # A tree that lacks a file run.py reads is refused before any worker
    # starts, with the file named, rather than failing in the workers.
    tree = tmp_path / "tree"
    for name in ("src/conechoice/__init__.py", "tests/oracles.py", "perfbench/run.py"):
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text("")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_interleaved.py"), str(ROOT), str(tree),
         "--workload", "models", "--seed", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"{tree} has no models/coin.json" in proc.stderr
    assert proc.stdout == ""
