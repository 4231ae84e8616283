"""conechoice benchmark: one closed-loop client in one single-threaded process.

    python3 perfbench/run.py --workload {grid,models} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the engine is imported from ``src``
and the oracles from ``tests/oracles.py``.  The client sends its next query
only when the previous verdict has come back and been checked.  Every
verdict is checked by ``verdicts.py`` without the engine in the loop; a
mismatch counts as failed and makes the command exit 1.

``--trace 0`` measures the end-to-end metrics over a fixed number of
queries, ``--seconds`` times the workload's rate, which lasts about
``--seconds`` at the seed commit.  Its latencies and throughput are scaled
to a reference host speed, measured during the run with a fixed reference
loop (see ``REFERENCE_S``); set-up time is as timed.  ``--trace 1`` runs
the workload's fixed traced round three times, untraced, traced and
untraced again, and reports the per-layer metrics and the tracing overhead.
The round is fixed work rather than a time window, so its counts repeat
exactly for a seed.  The last line of standard output is one JSON object.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
COIN = os.path.join(ROOT, "models", "coin.json")
WORKLOADS = ("grid", "models")

# Latency percentile per workload.  A run measures a fixed number of queries,
# so a fixed percentile always has the same number of samples beyond it: 30
# on grid and 31 on models at --seconds 45.  A percentile resting on ten
# samples spread more than the bound from seed to seed.
TAIL_PERCENTILE = {"grid": 99, "models": 90}
# Queries per second of --seconds: sets how many queries a run measures, so
# that a run at the seed commit lasts about --seconds.
RATE = {"grid": 67, "models": 7}
SETUP_PROBES = 7
WARMUP_REQUESTS = 3
# The host is shared: it runs the same code up to a fifth slower or faster
# for tens of seconds at a time.  A fixed reference loop of exact Fraction
# arithmetic, timed between queries whenever CALIBRATE_EVERY_S of query time
# has passed, measures how fast the host runs during the run; latencies are
# reported at the speed at which that loop takes REFERENCE_S.  Measured over
# minutes, query time swung +-17% and its ratio to the loop's time +-3.5%.
CALIBRATE_EVERY_S = 0.1
REFERENCE_S = 0.0045
REFERENCE_MATRIX = [[Fraction(1, i + j + 1) + (i == j) for j in range(7)] for i in range(7)]
REFERENCE_REPEATS = 6


def reference_loop() -> float:
    """Seconds taken by a fixed exact elimination, the engine's kind of work."""
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        rows = [row[:] for row in REFERENCE_MATRIX]
        for k in range(len(rows)):
            for i in range(k + 1, len(rows)):
                factor = rows[i][k] / rows[k][k]
                for j in range(k, len(rows)):
                    rows[i][j] -= factor * rows[k][j]
    return time.perf_counter() - start


def _import_engine() -> None:
    for path, what in ((os.path.join(ROOT, "src", "conechoice", "__init__.py"), "engine source"),
                       (os.path.join(ROOT, "tests", "oracles.py"), "oracles"),
                       (COIN, "models/coin.json")):
        if not os.path.isfile(path):
            sys.exit(f"perfbench: {what} not found at {path}; run from a source checkout")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import conechoice

    if not os.path.abspath(conechoice.__file__).startswith(os.path.join(ROOT, "src")):
        sys.exit(f"perfbench: imported conechoice from {conechoice.__file__}, not this checkout")


def build(workload: str, seed: int, workdir: str):
    import workloads

    if workload == "models":
        os.makedirs(workdir, exist_ok=True)
        return workloads.models(seed, workdir, COIN)
    return workloads.grid(seed)


def setup_probe(workload: str, seed: int) -> None:
    """Import, generate and load in this fresh process; print the seconds taken."""
    _import_engine()
    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    try:
        requests = build(workload, seed, workdir)
        if workload == "models":
            from conechoice.model_io import load_model

            for name in sorted(os.listdir(workdir)):
                load_model(os.path.join(workdir, name))
            load_model(COIN)
        elapsed = time.perf_counter() - _START
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed, "requests": len(requests)}))


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes; the first one only warms caches."""
    times = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if i:
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = self.failed = self.verdicts = self.unknown = 0
        self.failures: list[str] = []

    def run(self, request) -> float:
        """Run and check one query; returns its latency in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = request.call()
        except Exception as exc:  # the benchmark must keep going and report it
            self.latencies.append(time.perf_counter() - start)
            self._fail(request, f"raised {exc!r}")
            return self.latencies[-1]
        self.latencies.append(time.perf_counter() - start)
        ok, verdicts, unknown = request.check(result)
        self.verdicts += verdicts
        self.unknown += unknown
        if not ok:
            self._fail(request, "verdict or evidence failed the check")
        return self.latencies[-1]

    def _fail(self, request, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"query {request.qid} ({request.label}): {why}")


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload: str, seed: int, seconds: int, requests) -> tuple[Tally, dict]:
    """Run the first ``seconds * RATE`` queries of the workload once each.

    The query count comes from ``--seconds`` and the workload, never from the
    clock, so two runs of one seed measure exactly the same work; at the seed
    commit the run lasts about ``--seconds``.
    """
    setup_s = measure_setup(workload, seed)
    content = requests[: seconds * RATE[workload]]
    tally = Tally()
    for request in content[:WARMUP_REQUESTS]:
        tally.run(request)
    reference_loop()
    gc.collect()
    gc.freeze()  # keep the benchmark's own objects out of the engine's collections
    raw, references, since = [], [], 0.0
    start = time.perf_counter()
    for request in content:
        raw.append(tally.run(request))
        since += raw[-1]
        if since >= CALIBRATE_EVERY_S:
            references.append(reference_loop())
            since = 0.0
    references.append(reference_loop())
    elapsed = time.perf_counter() - start
    slowdown = statistics.mean(references) / REFERENCE_S
    lat = [x / slowdown for x in raw]
    p = TAIL_PERCENTILE[workload]
    beyond = sum(1 for x in lat if x > percentile(lat, p))
    print(f"workload {workload}: seed {seed}, {len(lat)} queries "
          f"(of {len(requests)} generated) in {elapsed:.1f} s, "
          f"closed loop with one client")
    print(f"host speed: the reference loop took {slowdown:.3f} x {REFERENCE_S * 1000:g} ms "
          f"(mean of {len(references)}); timings below are divided by {slowdown:.3f}")
    print(f"query_tail_ms is p{p} over {len(lat)} queries, {beyond} beyond it")
    values = {
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "query_gmean_ms": (statistics.geometric_mean(lat) * 1000, "ms"),
        "query_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "query_tail_ms": (percentile(lat, p) * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "failed_share": (tally.failed / tally.attempted, "share"),
        "undecided_share": (tally.unknown / max(tally.verdicts, 1), "share"),
        "decided_share": (1 - tally.unknown / max(tally.verdicts, 1), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in values.items():
        print(f"  {name:16s} {value:14.6f} {unit}")
    print(f"  as timed: queries_per_s {len(raw) / sum(raw):.6f}, "
          f"query_gmean_ms {statistics.geometric_mean(raw) * 1000:.6f}, "
          f"query_p50_ms {statistics.median(raw) * 1000:.6f}, "
          f"query_tail_ms {percentile(raw, p) * 1000:.6f}")
    reported = ("queries_per_s", "query_gmean_ms", "query_tail_ms", "setup_s",
                "decided_share", "peak_rss_mb")
    return tally, {k: {"value": values[k][0], "unit": values[k][1]} for k in reported}


def traced(workload: str, requests) -> tuple[Tally, dict]:
    import tracing

    round_ = [r for r in requests if r.traced]
    labels = {r.qid: r.label for r in round_}
    for request in round_[:WARMUP_REQUESTS]:
        Tally().run(request)
    # Untraced passes before and after the traced one, so a drift in machine
    # speed during the run cancels out of the overhead.
    plain = Tally()
    for request in round_:
        plain.run(request)
    tracer = tracing.Tracer()
    tracer.install()
    tally = Tally()
    try:
        for request in round_:
            tracer.qid = request.qid
            tally.run(request)
    finally:
        tracer.uninstall()
    for request in round_:
        plain.run(request)
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.failures += plain.failures
    untraced_s, traced_s = sum(plain.latencies) / 2, sum(tally.latencies)
    metrics = tracer.metrics(traced_s, labels)
    overhead = traced_s / untraced_s - 1
    # The size of the difference: its sign is machine noise at this overhead.
    metrics["trace.overhead_share"] = abs(overhead)
    metrics["undecided_share"] = tally.unknown / max(tally.verdicts, 1)
    print(f"workload {workload}: traced round of {len(round_)} queries, "
          f"{untraced_s:.3f} s untraced, {traced_s:.3f} s traced, overhead {overhead:+.1%}")
    for home, func in tracer.absent:
        tally.failed += 1
        tally.failures.append(f"shim self-test: {home}.{func} no longer exists")
    for module, attr in tracer.uncalled(workload):
        tally.failed += 1
        tally.failures.append(
            f"shim self-test: {module}.{attr} was never called on {workload}, or no longer binds "
            "a wrapped function")
    if workload == "models":
        # Advisory here, so a change that moves these counts still gets
        # measured; selfcheck.py fails on the drift.
        for name, want in tracing.COIN_SANITY.items():
            got = metrics[f"coin.{name}.lp_solves"]
            if got != want:
                print(f"  note: coin.json {name} made {got} lp.solve calls, "
                      f"{want} recorded; the change must explain the drift")
    for name, value in metrics.items():
        print(f"  {name:42s} {value}")
    return tally, {
        name: {"value": value, "unit": tracing.unit_of(name)} for name, value in metrics.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    _import_engine()
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        requests = build(args.workload, args.seed, workdir)
        if args.trace:
            tally, metrics = traced(args.workload, requests)
        else:
            tally, metrics = end_to_end(args.workload, args.seed, args.seconds, requests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
