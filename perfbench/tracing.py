"""Traced-run shim: spans around the engine's public functions.

Each wrapped function is replaced, for the length of a traced run, in every
loaded ``conechoice`` module that holds a reference to it, found by identity,
so a module added later that binds a wrapped name is patched too.  That covers
callers that look the name up on its home module (``lp.solve``,
``cones.member`` in the CLI) and callers that imported it under their own
name (``archimedean.member``, ``choice.cone_member``,
``choice.natural_extension``).  Every binding gets its own call counter, so
the self-test can name a binding that a workload never reached, or that no
longer exists.

A span is ``[name, start, end, parent, query id, args, result]``; spans stay
in memory and are summarised when the run ends.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# (home module, function): the public functions that get spans.
WRAPPED = (
    ("lp", "solve"),
    ("cone", "member"), ("cone", "natural_extension"), ("cone", "is_mixing"),
    ("cone", "is_coherent"),
    ("archimedean", "separate"), ("archimedean", "archimedean_closure_member"),
    ("archimedean", "lambda_o"), ("archimedean", "archimedean_consistency_witness"),
    ("archimedean", "separation_evidence"),
    ("choice", "member"), ("choice", "consistent"), ("choice", "reject"),
    ("choice", "choose"), ("choice", "selections"),
    ("choice", "archimedean_consistency_witness"),
    ("choice", "archimedean_member_evidence"), ("choice", "is_binary"),
    ("functional", "is_positive"), ("functional", "nml"),
    ("model_io", "load_model"),
    ("cli", "run_query"),
)

# Bindings (module, attribute) each workload's traced round must reach.
EXPECTED_BINDINGS = {
    "grid": (
        ("lp", "solve"), ("cone", "member"), ("archimedean", "member"),
        ("archimedean", "separate"), ("archimedean", "archimedean_closure_member"),
        ("archimedean", "lambda_o"), ("archimedean", "archimedean_consistency_witness"),
    ),
    "models": (
        ("lp", "solve"), ("cli", "load_model"), ("cli", "run_query"),
        ("cone", "member"), ("cone", "natural_extension"), ("cone", "is_mixing"),
        ("cone", "is_coherent"), ("cone", "is_positive"),
        ("archimedean", "archimedean_consistency_witness"),
        ("archimedean", "separation_evidence"), ("archimedean", "separate"),
        ("archimedean", "archimedean_closure_member"),
        ("choice", "member"), ("choice", "cone_member"), ("choice", "natural_extension"),
        ("choice", "consistent"), ("choice", "is_binary"), ("choice", "selections"),
        ("choice", "archimedean_consistency_witness"),
        ("choice", "archimedean_member_evidence"), ("choice", "reject"),
        ("functional", "nml"),
    ),
}

CLI_KINDS = (
    "member", "arch_member", "arch_consistent", "mixing", "is_binary",
    "consistent", "natural_extension", "choose",
)

# Public lp.solve calls per coin.json record, measured at the seed commit.
COIN_SANITY = {
    "D_H.arch_consistent": 2,
    "K_hot.is_binary": 21,
    "hot_membership": 14,
    "D_sector.mixing": 10,
}

NAME, START, END, PARENT, QID, ARGS, RESULT = range(7)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.qid = -1
        self.binding_calls: Counter = Counter()
        self.selections_visited = 0
        self._patched: list[tuple] = []
        self.absent: list[tuple] = []

    # ---------------------------------------------------------------- patching

    def install(self) -> None:
        homes = {home: importlib.import_module(f"conechoice.{home}") for home, _ in WRAPPED}
        modules = [
            module for name, module in list(sys.modules.items())
            if (name == "conechoice" or name.startswith("conechoice.")) and module is not None
        ]
        for home, func in WRAPPED:
            original = getattr(homes[home], func, None)
            if original is None:
                self.absent.append((home, func))
                continue
            span_name = f"{home}.{func}"
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        binding = (_short(module.__name__), attr)
                        self.binding_calls[binding] += 0
                        setattr(module, attr, self._wrap(span_name, binding, original))
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, span_name: str, binding: tuple, fn):
        spans, stack, calls = self.spans, self.stack, self.binding_calls
        counting = span_name == "choice.selections"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[binding] += 1
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.qid, args, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[RESULT] = result
            if counting:
                return self._count(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, iterator):
        for item in iterator:
            self.selections_visited += 1
            yield item

    # ---------------------------------------------------------------- summary

    def uncalled(self, workload: str) -> list[tuple]:
        """Expected bindings never called, including those no longer found."""
        return [b for b in EXPECTED_BINDINGS[workload] if self.binding_calls[b] == 0]

    def metrics(self, traced_s: float, labels: dict) -> dict:
        """Per-layer metrics from the spans; ``labels`` maps query id to label."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        for i, span in enumerate(spans):
            dur = span[END] - span[START]
            calls[span[NAME]] += 1
            self_s[span[NAME]] += dur - child[i]
            total_s[span[NAME]] += dur

        def ancestor(i, predicate):
            j = spans[i][PARENT]
            while j >= 0:
                if predicate(spans[j]):
                    return j
                j = spans[j][PARENT]
            return -1

        by_result: Counter = Counter()
        time_by_result: defaultdict = defaultdict(float)
        rows = cols = bits = 0
        solves_in_choice = 0
        solves_per_query: Counter = Counter()
        for i, span in enumerate(spans):
            if span[NAME] != "lp.solve":
                continue
            problem, result = span[ARGS][0], span[RESULT]
            kind = type(result).__name__.lower()
            by_result[kind] += 1
            time_by_result[kind] += span[END] - span[START]
            rows += len(problem.constraints) + sum(
                (lo is not None) + (hi is not None) for lo, hi in (problem.bounds or ())
            )
            cols += problem.n_vars
            bits = max(bits, _evidence_bits(result))
            if ancestor(i, lambda s: s[NAME].startswith("choice.")) >= 0:
                solves_in_choice += 1
            q = ancestor(i, lambda s: s[NAME] == "cli.run_query")
            if q >= 0:
                solves_per_query[q] += 1
        n_solves = calls["lp.solve"]
        extensions = [s[RESULT] for s in spans if s[NAME] == "cone.natural_extension"]
        queries_by_kind: defaultdict = defaultdict(list)
        coin: dict = {}
        for i, span in enumerate(spans):
            if span[NAME] != "cli.run_query":
                continue
            query = span[ARGS][1]
            queries_by_kind[query.get("kind")].append(solves_per_query[i])
            if labels.get(span[QID], "").startswith("models.coin") and query.get("name") in COIN_SANITY:
                coin[query["name"]] = solves_per_query[i]

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "lp.solve.calls": n_solves,
            "lp.solve.self_s": self_s["lp.solve"],
            "lp.solve.infeasible.calls": by_result["infeasible"],
            "lp.solve.infeasible.s": time_by_result["infeasible"],
            "lp.solve.feasible.s": time_by_result["feasible"],
            "lp.solve.optimal.s": time_by_result["optimal"],
            "lp.solve.time_share": ratio(total_s["lp.solve"], traced_s),
            "lp.solve.rows_mean": ratio(rows, n_solves),
            "lp.solve.vars_mean": ratio(cols, n_solves),
            "lp.evidence_bits_max": bits,
            "choice.selections_visited": self.selections_visited,
            "choice.member.calls": calls["choice.member"],
            "choice.member.self_s": self_s["choice.member"],
            "choice.reject.self_s": self_s["choice.reject"],
            "choice.lp_solves_per_selection": ratio(solves_in_choice, self.selections_visited),
            "choice.consistent_extension_ratio": ratio(
                sum(1 for r in extensions if r[1].consistent), len(extensions)
            ),
            "cone.member.calls": calls["cone.member"],
            "cone.member.self_s": self_s["cone.member"],
            "cone.natural_extension.calls": calls["cone.natural_extension"],
            "cone.natural_extension.self_s": self_s["cone.natural_extension"],
            "cone.is_mixing.self_s": self_s["cone.is_mixing"],
            "cone.is_coherent.self_s": self_s["cone.is_coherent"],
            "archimedean.separate.calls": calls["archimedean.separate"],
            "archimedean.separate.self_s": self_s["archimedean.separate"],
            "archimedean.consistency_witness.calls": calls["archimedean.archimedean_consistency_witness"]
            + calls["choice.archimedean_consistency_witness"],
            "archimedean.lambda_o.self_s": self_s["archimedean.lambda_o"],
            "cli.run_query.self_s": self_s["cli.run_query"],
            "functional.is_positive.calls": calls["functional.is_positive"],
            "functional.nml.self_s": self_s["functional.nml"],
            "model_io.load_model.s": total_s["model_io.load_model"],
        }
        for kind in CLI_KINDS:
            counts = queries_by_kind.get(kind, [])
            m[f"cli.lp_solves_per_query.{kind}"] = ratio(sum(counts), len(counts))
        for name in COIN_SANITY:
            m[f"coin.{name}.lp_solves"] = coin.get(name, 0)
        return m


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "share"
    return "count"


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return 0


def _evidence_bits(result) -> int:
    """Largest numerator or denominator in a returned witness, value, ray or certificate."""
    values = []
    for field in ("witness", "ray"):
        vector = getattr(result, field, None)
        if vector is not None:
            values.extend(vector.entries)
    values.extend(getattr(result, "certificate", ()))
    if getattr(result, "value", None) is not None:
        values.append(result.value)
    return max((_bits(x) for x in values), default=0)
