"""Self-checks of the benchmark harness; not part of the measured runs.

    python3 perfbench/selfcheck.py

For every workload this makes two traced runs with ``SEED`` and one with
``OTHER_SEED``, each a fresh ``run.py --trace 1`` process.  It fails when

* a traced run exits nonzero or reports a failed query (this covers the
  shim self-test: a wrapped binding that no longer exists, or that its
  workload never called);
* a count metric differs between the two runs of one seed: ``*.calls``,
  ``choice.selections_visited``, ``cli.lp_solves_per_query.*``,
  ``coin.*.lp_solves``, ``lp.evidence_bits_max`` and ``undecided_share``;
* the coin.json public ``lp.solve`` counts differ from ``COIN_SANITY`` in
  ``tracing.py``.  A change that moves them must explain the drift and
  update ``COIN_SANITY`` with it.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import COIN_SANITY  # noqa: E402

SEED = 1
OTHER_SEED = 2


def is_count(name: str) -> bool:
    return (
        name.endswith(".calls")
        or name.startswith(("cli.lp_solves_per_query.", "coin."))
        or name in ("choice.selections_visited", "lp.evidence_bits_max", "undecided_share")
    )


def traced_run(workload: str, seed: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.stderr.strip():
        print(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return proc.returncode, result


def main() -> int:
    problems = []
    seeds = (SEED, SEED, OTHER_SEED)
    for workload in ("grid", "models"):
        runs = [traced_run(workload, s) for s in seeds]
        for (code, result), seed in zip(runs, seeds):
            if code != 0 or not result.get("correct"):
                problems.append(f"{workload} seed {seed}: exit {code}, result {result.get('failed')} failed")
        if not all(r for _, r in runs[:2]):
            continue
        first, second = (r["metrics"] for _, r in runs[:2])
        counts = sorted(n for n in first if is_count(n))
        for name in counts:
            if first[name]["value"] != second.get(name, {}).get("value"):
                problems.append(
                    f"{workload} seed {SEED}: {name} is {first[name]['value']} "
                    f"then {second.get(name, {}).get('value')}"
                )
        print(f"{workload}: {len(counts)} count metrics compared across two runs of seed {SEED}")
        if workload == "models":
            for name, want in COIN_SANITY.items():
                got = first[f"coin.{name}.lp_solves"]["value"]
                print(f"  coin.json {name}: {got} lp.solve calls (recorded: {want})")
                if got != want:
                    problems.append(f"coin.json {name}: {got} lp.solve calls, {want} recorded")
    for problem in problems:
        print(f"SELFCHECK FAILED {problem}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
