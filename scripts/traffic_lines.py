"""List the statements of ``src/conechoice`` that real traffic never runs.

    python scripts/traffic_lines.py

It runs this traffic in this process, under the line tracer of
``unreached_lines.py``:

* every request of the benchmark's ``grid`` workload, seeds 1-3, and of its
  ``models`` workload, seeds 1-2, each verdict checked by the request's own
  ``check`` (``perfbench/workloads.py``);
* ``conechoice report`` and ``check`` on ``models/coin.json`` and
  ``conechoice report`` on ``tests/golden/lambda_o.json`` and
  ``tests/golden/past_cap.json``, as JSON and as text, each output compared
  with its golden file and each exit status with the one CI expects;
* ``scripts/run_coin_example.py``.

Then it prints, for each module, the first lines of the executable
statements that never ran, and a total, as ``unreached_lines.py`` does for
the tier-1 suite.  What is listed is code no traffic needs: input checks,
internal-error raises, and what only the tests reach.  It exits 1 when a
verdict, an output or an exit status is wrong, and 0 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
import tempfile

from code_lines import PACKAGE
from unreached_lines import ROOT, _trace_package, statement_lines, unreached

GOLDEN = ROOT / "tests" / "golden"
COIN = ROOT / "models" / "coin.json"

# (command, model, golden file stem, exit status), each run as JSON and as text.
CLI_RUNS = (
    ("report", COIN, "coin_report", 0),
    ("check", COIN, "coin_check", 0),
    ("report", GOLDEN / "lambda_o.json", "lambda_o_report", 2),
    ("report", GOLDEN / "past_cap.json", "past_cap_report", 0),
)
GRID_SEEDS = (1, 2, 3)
MODELS_SEEDS = (1, 2)


def _batches(workdir: str):
    """Each seed's requests, built when its turn comes: ``(name, requests)``."""
    import workloads

    for seed in GRID_SEEDS:
        yield f"grid seed {seed}", workloads.grid(seed)
    for seed in MODELS_SEEDS:
        files = os.path.join(workdir, str(seed))
        os.makedirs(files)
        yield f"models seed {seed}", workloads.models(seed, files, str(COIN))


def _run_workloads(failures: list[str]) -> int:
    """Run and check every request of the workloads' seeds; returns how many ran."""
    ran = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, requests in _batches(workdir):
            for request in requests:
                ran += 1
                where = f"{name}, query {request.qid} ({request.label})"
                try:
                    ok = request.check(request.call())[0]
                except Exception as exc:  # reported with the rest, as the benchmark does
                    failures.append(f"{where}: raised {exc!r}")
                    continue
                if not ok:
                    failures.append(f"{where}: verdict or evidence failed the check")
    return ran


def _run_cli(failures: list[str]) -> None:
    from conechoice import cli

    for command, model, stem, status in CLI_RUNS:
        for flags, suffix in ((["--json"], "json"), ([], "txt")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([command, str(model), *flags])
            golden = f"{stem}.{suffix}"
            same = out.getvalue() == (GOLDEN / golden).read_text(encoding="utf-8")
            if code != status or not same:
                verdict = "matches" if same else "differs from"
                failures.append(f"conechoice {' '.join([command, model.name, *flags])}: exit {code} "
                                f"(expected {status}), output {verdict} {golden}")


def main() -> int:
    sys.path[:0] = [str(PACKAGE.parent), str(ROOT / "tests"), str(ROOT / "perfbench")]
    # The engine is imported only once the tracer runs, so its module-level
    # statements count as run.
    ran = _trace_package()
    failures: list[str] = []
    try:
        requests = _run_workloads(failures)
        _run_cli(failures)
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(ROOT / "scripts" / "run_coin_example.py"), run_name="__main__")
    finally:
        sys.settrace(None)
    total = statements = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = unreached(source, ran[str(path)])
        statements += len(statement_lines(source))
        total += len(lines)
        if lines:
            print(f"{path.name}: {', '.join(map(str, lines))}")
    print(f"total: {total} of {statements} statements never ran, "
          f"over {requests} workload requests, {2 * len(CLI_RUNS)} CLI runs and the coin example")
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
