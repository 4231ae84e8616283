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
