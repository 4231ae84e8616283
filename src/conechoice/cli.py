"""Command-line front end: load a model file, run queries, emit reports.

Exit codes: 0 all queries answered; 2 at least one query hit a precondition
violation (e.g. an Archimedean query on an inconsistent model); 64 usage
errors; 65 parse/schema errors in the model file.  A reader that closes
stdout early (``conechoice report coin.json | head -3``) ends the output
without a traceback, and the exit code is still the one the answers give.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import archimedean as arch
from . import choice, functional, lp
from . import cone as cones
from .functional import LinearF, SuperlinF
from .lottery import embed_pref, to_vector
from .model_io import Model, ModelError, load_model, read_vector
from .numeric import Vector, format_rational

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route argparse failures to exit code 64
        raise UsageError(message)


def _json(value: Any) -> Any:
    """The JSON form of an answer: rationals as strings like "p/q", vectors and
    option sets as lists of them, a functional as its type and coefficients."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Vector):
        return [format_rational(x) for x in value.entries]
    if isinstance(value, choice.OptionSet):
        return [_json(u) for u in value]
    if isinstance(value, LinearF):
        return {"type": "linear", "coeffs": _json(value.coeffs)}
    if isinstance(value, SuperlinF):
        return {"type": "superlinear", "pieces": [_json(p.coeffs) for p in value.pieces]}
    return value


def _record(answer: Any, evidence: Any = None) -> dict:
    """The record of an answer and its evidence, the one place that gives each
    kind of evidence its JSON form.  A witness is a linear functional's
    coefficients, a min-envelope's typed pieces or a mixing pair ``u``, ``v``;
    a certificate is an ``lp.Infeasible``'s multipliers or an inconsistency
    combination's vectors and coefficients.  Undecided mixing is "unknown"."""
    if isinstance(answer, cones.MixingResult):
        record: dict[str, Any] = {"answer": "unknown" if answer.status is None else answer.status}
        if answer.witness is not None:
            u, v = answer.witness
            record["witness"] = {"u": _json(u), "v": _json(v)}
        return record
    if isinstance(answer, cones.ConsistencyReport):
        if answer.combination is not None:
            return {"answer": False, "certificate": [
                {"vector": _json(v), "coeff": _json(c)} for v, c in answer.combination
            ]}
        answer = answer.consistent
    record = {"answer": _json(answer)}
    if isinstance(evidence, LinearF):
        record["witness"] = _json(evidence.coeffs)
    elif isinstance(evidence, SuperlinF):
        record["witness"] = _json(evidence)
    elif isinstance(evidence, lp.Infeasible):
        record["certificate"] = [_json(c) for c in evidence.certificate]
    return record


def _cone_query(model: Model, query: dict, target: cones.DesirCone) -> dict:
    kind = query["kind"]
    if kind == "coherent":
        return _record(cones.is_coherent(target))
    if kind == "mixing":
        return _record(cones.is_mixing(target))
    if kind == "essentially_archimedean":
        return _record(arch.is_essentially_archimedean(target))
    if kind == "arch_consistent":
        evidence = arch.separation_evidence(target)
        return _record(isinstance(evidence, LinearF), evidence)
    if kind == "member":
        return _record(cones.member(target, _cone_option(model, query)))
    if kind == "arch_member":
        option = _cone_option(model, query)
        if arch.archimedean_closure_member(target, option):
            return _record(True)
        # Two calls: traced models runs expect archimedean_closure_member and separate bindings.
        witness = arch.separate(target, option)
        lp.verified(witness is not None, "separation witness")
        return _record(False, witness.functional)
    if kind == "lambda_o":
        return _record(arch.lambda_o(target, _cone_option(model, query)))
    raise UsageError(f"kind {kind!r} does not apply to a cone")


def _refuse_other_option_field(query: dict, key: str) -> None:
    """Name the right field when a query gives only the other target kind's:
    ``option`` is for cones and ``option_set`` for k-models."""
    fields = {"option": ("cone", "--option"), "option_set": ("k-model", "--option-set")}
    (other,) = fields.keys() - {key}
    if key not in query and other in query:
        (kind, flag), (other_kind, other_flag) = fields[key], fields[other]
        raise UsageError(
            f"a {kind} target takes an {key!r} ({flag}); {other!r} ({other_flag}) is for {other_kind}s"
        )


def _cone_option(model: Model, query: dict) -> Vector:
    _refuse_other_option_field(query, "option")
    raw = query.get("option")
    if raw is None:
        raise UsageError("query needs an 'option' field")
    return _query_vector(raw, "option", model.space.dim)


def _k_option_set(model: Model, query: dict) -> choice.OptionSet:
    _refuse_other_option_field(query, "option_set")
    return choice.OptionSet(tuple(_query_vectors(query, "option_set", model.space.dim)))


# The k-model kinds that need an assessment model, by what their message calls them.
_ASSESSMENT_ONLY = {"consistent": "consistency", "arch_consistent": "Archimedean consistency",
                    "arch_member": "Archimedean membership", "is_binary": "binarity"}


def _k_query(model: Model, query: dict, target: choice.KModel) -> dict:
    kind = query["kind"]
    if kind in _ASSESSMENT_ONLY and not isinstance(target, choice.AssessmentK):
        raise UsageError(f"{_ASSESSMENT_ONLY[kind]} queries need an assessment model")
    if kind == "member":
        return _record(choice.member(target, _k_option_set(model, query)))
    if kind == "consistent":
        return _record(choice.consistent(target))
    if kind == "arch_consistent":
        witness = choice.archimedean_consistency_witness(target)
        return _record(witness is not None, witness)
    if kind == "arch_member":
        envelope = choice.archimedean_member_evidence(target, _k_option_set(model, query))
        return _record(envelope is None, envelope)
    if kind == "is_binary":
        return _record(choice.is_binary(target))
    raise UsageError(f"kind {kind!r} does not apply to a k-model")


def _query_vector(raw: Any, what: str, dim: int) -> Vector:
    """A query's vector, read as a model file's (``model_io.read_vector``)."""
    try:
        return read_vector(raw, dim)
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


def _query_vectors(query: dict, key: str, dim: int) -> list[Vector]:
    raw = query.get(key)
    if not isinstance(raw, list):
        raise UsageError(f"query needs a {key!r} list of vectors")
    return [_query_vector(entry, f"{key} entry", dim) for entry in raw]


def _choose_record(model: Model, rule: str, target_name: str, menu: choice.OptionSet) -> dict:
    if rule == "maximality":
        if target_name not in model.cones:
            raise UsageError(f"maximality needs a cone target, {target_name!r} is not one")
        return _record(choice.maximal(model.cones[target_name], menu))
    if target_name not in model.k_models:
        raise UsageError(f"rule {rule!r} needs a k-model target, {target_name!r} is not one")
    target = model.k_models[target_name]
    if rule == "eadm":
        if not isinstance(target, choice.CredalK):
            raise UsageError("eadm needs a credal k-model")
        return _record(choice.choose(target, menu))
    if rule == "reject":
        return _record(choice.reject(target, menu))
    raise UsageError(f"unknown rule {rule!r}")


def run_query(model: Model, query: dict) -> dict:
    kind = query.get("kind")
    record: dict[str, Any] = {
        "name": query.get("name", ""),
        "kind": kind,
        "target": query.get("target", ""),
    }
    try:
        record.update(_dispatch_query(model, query))
    except ValueError as exc:
        record["error"] = str(exc)
    return record


def _dispatch_query(model: Model, query: dict) -> dict:
    kind = query["kind"]
    target_name = query.get("target", "")
    for field, value in (("kind", kind), ("target", target_name)):
        if not isinstance(value, str):
            raise UsageError(f"query field {field!r} must be a string, got {value!r}")
    if kind == "natural_extension":
        assessment = _query_vectors(query, "assessment", model.space.dim)
        extension, report = cones.natural_extension(assessment, model.space)
        witness = arch.archimedean_consistency_witness(extension) if report.consistent else None
        return _record(report, witness)
    if kind == "choose":
        rule = query.get("rule")
        if rule is None:
            raise UsageError("choose queries need a \"rule\" field")
        menu = choice.OptionSet(tuple(_query_vectors(query, "menu", model.space.dim)))
        if not menu:
            raise UsageError("choose queries need a nonempty \"menu\"")
        return _choose_record(model, rule, target_name, menu)
    if kind == "nml":
        if target_name not in model.functionals:
            raise UsageError(f"unknown functional {target_name!r}")
        return _record(functional.nml(model.functionals[target_name], model.space.u_o))
    if kind == "embed":
        if target_name not in model.lotteries:
            raise UsageError(f"unknown lottery block {target_name!r}")
        block = model.lotteries[target_name]
        diff = embed_pref(block.h, block.g, block.alpha)
        return _record(to_vector(diff, block.reference_reward))
    if target_name in model.cones:
        return _cone_query(model, query, model.cones[target_name])
    if target_name in model.k_models:
        return _k_query(model, query, model.k_models[target_name])
    raise UsageError(f"unknown target {target_name!r}")


def check_queries(model: Model) -> list[dict]:
    """The synthesized query list behind the `check` subcommand."""
    queries: list[dict] = []
    for name in model.cones:
        for kind in ("coherent", "mixing", "essentially_archimedean", "arch_consistent"):
            queries.append({"name": f"{name}.{kind}", "kind": kind, "target": name})
    for name, k_model in model.k_models.items():
        if isinstance(k_model, choice.AssessmentK):
            for kind in ("consistent", "arch_consistent", "is_binary"):
                queries.append({"name": f"{name}.{kind}", "kind": kind, "target": name})
    for name in model.functionals:
        queries.append({"name": f"{name}.nml", "kind": "nml", "target": name})
    for name in model.lotteries:
        queries.append({"name": f"{name}.embed", "kind": "embed", "target": name})
    return queries


def _render(records: list[dict], as_json: bool, out) -> None:
    if as_json:
        json.dump({"queries": records}, out, indent=2)
        out.write("\n")
        return
    for record in records:
        line = f"{record['name'] or record['kind']}: {record['kind']}({record['target']})"
        if "error" in record:
            line += f" -> error: {record['error']}"
        else:
            line += f" -> {json.dumps(record['answer'])}"
            for key in ("witness", "certificate"):
                if key in record:
                    line += f" {key}={json.dumps(record[key])}"
        out.write(line + "\n")


# Built once per process: setting up argparse costs more than a small query, and
# parsing leaves the parser unchanged.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="conechoice", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("model", help="path to a JSON model file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    common(sub.add_parser("check", help="coherence/consistency of every named object"))
    for command, about in (
        ("member", "cone or k-model membership"),
        ("arch", "Archimedean consistency / closure membership"),
    ):
        p_option = sub.add_parser(command, help=about)
        common(p_option)
        p_option.add_argument("--target", required=True)
        options = p_option.add_mutually_exclusive_group()
        options.add_argument("--option", help="vector, e.g. \"1,-1\"")
        options.add_argument("--option-set", help="semicolon-separated vectors")
    p_nml = sub.add_parser("nml", help="normalize a functional")
    common(p_nml)
    p_nml.add_argument("--functional", required=True)
    p_choose = sub.add_parser("choose", help="decision queries")
    common(p_choose)
    p_choose.add_argument("--rule", required=True, choices=["eadm", "maximality", "reject"])
    p_choose.add_argument("--target", required=True)
    p_choose.add_argument("--menu", required=True, help="semicolon-separated vectors")
    common(sub.add_parser("report", help="run the model file's query list"))
    return parser


def _flag_vectors(text: str) -> list[list[str]]:
    """Semicolon-separated vectors from a flag, as a model file's query lists them."""
    return [part.split(",") for part in text.split(";") if part.strip()]


def _flag_query(args) -> dict:
    """The model-file query a subcommand's flags stand for; entries are parsed
    with the model file's queries, by ``_query_vector(s)``."""
    if args.command in ("member", "arch"):
        kind = "member" if args.command == "member" else "arch_member"
        query: dict[str, Any] = {"name": args.command, "kind": kind, "target": args.target}
        if args.option is not None:
            query["option"] = args.option.split(",")
        elif args.option_set is not None:
            query["option_set"] = _flag_vectors(args.option_set)
        elif args.command == "arch":
            query["kind"] = "arch_consistent"
        else:
            raise UsageError("member needs --option or --option-set")
        return query
    if args.command == "nml":
        return {"name": "nml", "kind": "nml", "target": args.functional}
    # choose
    return {
        "name": "choose",
        "kind": "choose",
        "rule": args.rule,
        "target": args.target,
        "menu": _flag_vectors(args.menu),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        model = load_model(args.model)
        if args.command == "check":
            queries = check_queries(model)
        elif args.command == "report":
            queries = model.queries
        else:
            queries = [_flag_query(args)]
        records = [run_query(model, q) for q in queries]
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        _render(records, getattr(args, "json", False), sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull, so the
        # interpreter's final flush of what is left stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_PRECONDITION if any("error" in record for record in records) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
