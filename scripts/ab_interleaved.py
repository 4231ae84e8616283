"""Interleaved in-process A/B of two source trees on one benchmark workload.

    python3 scripts/ab_interleaved.py PARENT_TREE CHANGE_TREE \
        --workload {grid,models} --seed N [--seconds 45]

Each tree is a source checkout: ``src``, ``tests``, ``perfbench`` and
``models/coin.json``, which the ``models`` workload reads.  A tree missing
a file that ``perfbench/run.py`` needs is refused before any worker starts
(exit 2, naming the file).  One
long-lived worker process per tree imports that tree's engine and its
``perfbench/run.py``, builds the workload once, and runs the first three
requests to warm up.  The measured requests are the ones ``run.py --seconds``
measures; they run in chunks of 50 (grid) or 10 (models), one worker at a
time, and the worker that goes first alternates from chunk to chunk.  The
host's speed drifts by up to a fifth over tens of seconds
(``perfbench/BASELINE.md``); chunks a fraction of a second long put both
sides under the same drift, so no reference loop is needed.  Every verdict is
checked as ``run.py`` checks it, and each worker summarises its own latencies
with its tree's ``run.percentile``.

It prints each side's queries/s, geometric-mean latency and tail latency
(the percentile ``run.py`` reports) with the change-to-parent ratios, and
exits 1 when any check failed.  ``--seconds 1`` is a quick smoke run.  A development aid: the benchmark of record
is ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

CHUNK = {"grid": 50, "models": 10}
# What perfbench/run.py reads from a tree: the engine, the oracles its
# checks use, and coin.json.
REQUIRED = ("src/conechoice/__init__.py", "tests/oracles.py", "perfbench/run.py",
            "models/coin.json")


def worker(tree: str, workload: str, seed: int, seconds: int) -> int:
    """Serve chunks ``[start, stop]`` read from stdin, one JSON line each,
    and print the summary of every chunk served when stdin closes."""
    sys.path[:0] = [os.path.join(tree, d) for d in ("src", "tests", "perfbench")]
    import run  # the tree's perfbench/run.py

    import conechoice

    if not os.path.abspath(conechoice.__file__).startswith(os.path.join(tree, "src")):
        sys.exit(f"ab_interleaved: imported conechoice from {conechoice.__file__}, not {tree}")
    workdir = tempfile.mkdtemp(prefix="ab-interleaved-")
    try:
        requests = run.build(workload, seed, workdir)[: seconds * run.RATE[workload]]
        for request in requests[: run.WARMUP_REQUESTS]:
            run.Tally().run(request)
        gc.collect()
        gc.freeze()
        tail = run.TAIL_PERCENTILE[workload]
        print(json.dumps({"requests": len(requests), "tail": tail}), flush=True)
        latencies: list[float] = []
        for line in sys.stdin:
            start, stop = json.loads(line)
            tally = run.Tally()
            latencies += [tally.run(request) for request in requests[start:stop]]
            print(json.dumps({"failures": tally.failures, "failed": tally.failed}), flush=True)
        print(json.dumps({
            "queries_per_s": len(latencies) / sum(latencies),
            "query_gmean_ms": statistics.geometric_mean(latencies) * 1000,
            "query_tail_ms": run.percentile(latencies, tail) * 1000,
        }), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _start(tree: str, args: argparse.Namespace) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker", tree,
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=tree, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def _read(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"ab_interleaved: a worker exited with {proc.wait()}")
    return json.loads(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE")
    parser.add_argument("--workload", choices=tuple(CHUNK), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return worker(os.path.abspath(args.worker), args.workload, args.seed, args.seconds)
    if len(args.trees) != 2:
        parser.error("give PARENT_TREE and CHANGE_TREE")
    for tree in args.trees:
        for name in REQUIRED:
            if not os.path.isfile(os.path.join(tree, name)):
                parser.error(f"{tree} has no {name}")
    sides = ("parent", "change")
    procs = [_start(os.path.abspath(tree), args) for tree in args.trees]
    try:
        ready = [_read(proc) for proc in procs]
        count, tail = ready[0]["requests"], ready[0]["tail"]
        if ready[1] != ready[0]:
            raise RuntimeError(f"ab_interleaved: the trees build different workloads: {ready}")
        size = CHUNK[args.workload]
        chunks = math.ceil(count / size)
        failed = 0
        for k in range(chunks):
            start, stop = k * size, min((k + 1) * size, count)
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                procs[side].stdin.write(json.dumps([start, stop]) + "\n")
                procs[side].stdin.flush()
                reply = _read(procs[side])
                failed += reply["failed"]
                for line in reply["failures"]:
                    print(f"FAILED {sides[side]}: {line}", file=sys.stderr)
        for proc in procs:
            proc.stdin.close()  # the worker then prints its summary
        summaries = [_read(proc) for proc in procs]
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()
            proc.stdout.close()
    print(f"workload {args.workload}: seed {args.seed}, {count} queries per side "
          f"in {chunks} alternating chunks of {size}; tail is p{tail}")
    print(f"  {'metric':16s} {'parent':>12s} {'change':>12s} {'ratio':>8s}")
    for name in summaries[0]:
        parent, change = summaries[0][name], summaries[1][name]
        print(f"  {name:16s} {parent:12.6f} {change:12.6f} {change / parent:8.3f}")
    print(json.dumps({"correct": failed == 0, "failed": failed,
                      "parent": summaries[0], "change": summaries[1]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
