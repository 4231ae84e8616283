"""Command-line front end: load a model file, run queries, emit reports.

Exit codes: 0 all queries answered; 2 at least one query hit a precondition
violation (e.g. an Archimedean query on an inconsistent model); 64 usage
errors; 65 parse/schema errors in the model file.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import archimedean as arch
from . import choice
from . import cone as cones
from .functional import Functional, LinearF, SuperlinF
from .lottery import embed_pref, to_vector
from .lp import verified
from .model_io import Model, ModelError, load_model
from .numeric import Vector, format_rational, parse_rational

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route argparse failures to exit code 64
        raise UsageError(message)


def _fmt_vector(v: Vector) -> list[str]:
    return [format_rational(x) for x in v.entries]


def _fmt_functional(f: Functional) -> dict:
    if isinstance(f, LinearF):
        return {"type": "linear", "coeffs": _fmt_vector(f.coeffs)}
    return {"type": "superlinear", "pieces": [_fmt_vector(p.coeffs) for p in f.pieces]}


def _parse_vector_flag(text: str) -> Vector:
    try:
        return Vector(tuple(parse_rational(part) for part in text.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad vector {text!r}: {exc}") from exc


def _parse_set_flag(text: str) -> list[Vector]:
    return [_parse_vector_flag(part) for part in text.split(";") if part.strip()]


def _mixing_record(cone: cones.DesirCone) -> dict:
    result = cones.is_mixing(cone)
    if result.status is None:
        return {"answer": "unknown"}
    record: dict[str, Any] = {"answer": result.status}
    if result.witness is not None:
        u, v = result.witness
        record["witness"] = {"u": _fmt_vector(u), "v": _fmt_vector(v)}
    return record


def _arch_consistency_record(target: cones.DesirCone) -> dict:
    evidence = arch.separation_evidence(target)
    if isinstance(evidence, LinearF):
        return {"answer": True, "witness": _fmt_vector(evidence.coeffs)}
    return {"answer": False, "certificate": [format_rational(c) for c in evidence.certificate]}


def _cone_query(model: Model, query: dict, target: cones.DesirCone) -> dict:
    kind = query["kind"]
    if kind == "coherent":
        return {"answer": cones.is_coherent(target)}
    if kind == "mixing":
        return _mixing_record(target)
    if kind == "essentially_archimedean":
        return {"answer": arch.is_essentially_archimedean(target)}
    if kind == "arch_consistent":
        return _arch_consistency_record(target)
    if kind == "member":
        option = _query_vector(query, "option")
        return {"answer": cones.member(target, option)}
    if kind == "arch_member":
        option = _query_vector(query, "option")
        answer = arch.archimedean_closure_member(target, option)
        record: dict[str, Any] = {"answer": answer}
        if not answer:
            witness = arch.separate(target, option)
            verified(witness is not None, "separation witness")
            record["witness"] = _fmt_vector(witness.functional.coeffs)
        return record
    if kind == "lambda_o":
        option = _query_vector(query, "option")
        return {"answer": format_rational(arch.lambda_o(target, option))}
    raise UsageError(f"kind {kind!r} does not apply to a cone")


def _k_query(model: Model, query: dict, target: choice.KModel) -> dict:
    kind = query["kind"]
    if kind == "member":
        b = choice.OptionSet(tuple(_query_vectors(query, "option_set")))
        return {"answer": choice.member(target, b)}
    if kind == "consistent":
        if not isinstance(target, choice.AssessmentK):
            raise UsageError("consistency queries need an assessment model")
        return {"answer": choice.consistent(target)}
    if kind == "arch_consistent":
        if not isinstance(target, choice.AssessmentK):
            raise UsageError("Archimedean consistency queries need an assessment model")
        witness = choice.archimedean_consistency_witness(target)
        if witness is None:
            return {"answer": False}
        return {"answer": True, "witness": _fmt_vector(witness.coeffs)}
    if kind == "arch_member":
        if not isinstance(target, choice.AssessmentK):
            raise UsageError("Archimedean membership queries need an assessment model")
        b = choice.OptionSet(tuple(_query_vectors(query, "option_set")))
        envelope = choice.archimedean_member_evidence(target, b)
        if envelope is None:
            return {"answer": True}
        return {"answer": False, "witness": _fmt_functional(envelope)}
    if kind == "is_binary":
        if not isinstance(target, choice.AssessmentK):
            raise UsageError("binarity queries need an assessment model")
        return {"answer": choice.is_binary(target)}
    raise UsageError(f"kind {kind!r} does not apply to a k-model")


def _parse_query_vector(raw: Any, what: str) -> Vector:
    # A string is iterable too: "10" must not be read as the vector (1, 0).
    if not isinstance(raw, list):
        raise UsageError(f"bad {what}: expected a list of rationals, got {raw!r}")
    try:
        return Vector(tuple(parse_rational(x) for x in raw))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


def _query_vector(query: dict, key: str) -> Vector:
    raw = query.get(key)
    if raw is None:
        raise UsageError(f"query needs an {key!r} field")
    return _parse_query_vector(raw, key)


def _query_vectors(query: dict, key: str) -> list[Vector]:
    raw = query.get(key)
    if not isinstance(raw, list):
        raise UsageError(f"query needs a {key!r} list of vectors")
    return [_parse_query_vector(entry, f"{key} entry") for entry in raw]


def _choose_record(model: Model, rule: str, target_name: str, menu: choice.OptionSet) -> dict:
    if rule == "maximality":
        if target_name not in model.cones:
            raise UsageError(f"maximality needs a cone target, {target_name!r} is not one")
        chosen = choice.maximal(model.cones[target_name], menu)
        return {"answer": [_fmt_vector(u) for u in chosen]}
    if target_name not in model.k_models:
        raise UsageError(f"rule {rule!r} needs a k-model target, {target_name!r} is not one")
    target = model.k_models[target_name]
    if rule == "eadm":
        if not isinstance(target, choice.CredalK):
            raise UsageError("eadm needs a credal k-model")
        chosen = choice.e_admissible(target.functionals, menu)
        verified(
            chosen.options == choice.choose(target, menu).options,
            "E-admissibility/choice agreement",
        )
        return {"answer": [_fmt_vector(u) for u in chosen]}
    if rule == "reject":
        rejected = choice.reject(target, menu)
        return {"answer": [_fmt_vector(u) for u in rejected]}
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
        assessment = _query_vectors(query, "assessment")
        _, report = cones.natural_extension(assessment, model.space)
        record: dict[str, Any] = {"answer": report.consistent}
        if report.combination is not None:
            record["certificate"] = [
                {"vector": _fmt_vector(v), "coeff": format_rational(c)}
                for v, c in report.combination
            ]
        if report.functional is not None:
            record["witness"] = _fmt_vector(report.functional.coeffs)
        return record
    if kind == "choose":
        rule = query.get("rule")
        if rule is None:
            raise UsageError("choose queries need a \"rule\" field")
        menu = choice.OptionSet(tuple(_query_vectors(query, "menu")))
        return _choose_record(model, rule, target_name, menu)
    if kind == "nml":
        if target_name not in model.functionals:
            raise UsageError(f"unknown functional {target_name!r}")
        from .functional import nml

        normalized = nml(model.functionals[target_name], model.space.u_o)
        return {"answer": _fmt_functional(normalized)}
    if kind == "embed":
        if target_name not in model.lotteries:
            raise UsageError(f"unknown lottery block {target_name!r}")
        block = model.lotteries[target_name]
        diff = embed_pref(block.h, block.g, block.alpha)
        return {"answer": _fmt_vector(to_vector(diff, block.reference_reward))}
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
            if "witness" in record:
                line += f" witness={json.dumps(record['witness'])}"
            if "certificate" in record:
                line += f" certificate={json.dumps(record['certificate'])}"
        out.write(line + "\n")


def _exit_code(records: list[dict]) -> int:
    if any("error" in record for record in records):
        return EXIT_PRECONDITION
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="conechoice", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("model", help="path to a JSON model file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    common(sub.add_parser("check", help="coherence/consistency of every named object"))
    p_member = sub.add_parser("member", help="cone or k-model membership")
    common(p_member)
    p_member.add_argument("--target", required=True)
    p_member.add_argument("--option", help="vector, e.g. \"1,-1\"")
    p_member.add_argument("--option-set", help="semicolon-separated vectors")
    p_arch = sub.add_parser("arch", help="Archimedean consistency / closure membership")
    common(p_arch)
    p_arch.add_argument("--target", required=True)
    p_arch.add_argument("--option")
    p_arch.add_argument("--option-set")
    p_nml = sub.add_parser("nml", help="normalize a functional")
    common(p_nml)
    p_nml.add_argument("--functional", required=True)
    p_choose = sub.add_parser("choose", help="decision queries")
    common(p_choose)
    p_choose.add_argument("--rule", required=True, choices=["eadm", "maximality", "reject"])
    p_choose.add_argument("--target", required=True)
    p_choose.add_argument("--menu", required=True, help="semicolon-separated vectors")
    p_report = sub.add_parser("report", help="run the model file's query list")
    common(p_report)
    p_report.add_argument("--text", action="store_true", help="text output (default)")
    return parser


def _flag_query(args) -> dict:
    if args.command == "member":
        query: dict[str, Any] = {"name": "member", "kind": "member", "target": args.target}
        if args.option:
            query["option"] = [format_rational(x) for x in _parse_vector_flag(args.option)]
        elif args.option_set:
            query["option_set"] = [
                [format_rational(x) for x in v] for v in _parse_set_flag(args.option_set)
            ]
        else:
            raise UsageError("member needs --option or --option-set")
        return query
    if args.command == "arch":
        query = {"name": "arch", "target": args.target}
        if args.option:
            query["kind"] = "arch_member"
            query["option"] = [format_rational(x) for x in _parse_vector_flag(args.option)]
        elif args.option_set:
            query["kind"] = "arch_member"
            query["option_set"] = [
                [format_rational(x) for x in v] for v in _parse_set_flag(args.option_set)
            ]
        else:
            query["kind"] = "arch_consistent"
        return query
    if args.command == "nml":
        return {"name": "nml", "kind": "nml", "target": args.functional}
    assert args.command == "choose"
    return {
        "name": "choose",
        "kind": "choose",
        "rule": args.rule,
        "target": args.target,
        "menu": [[format_rational(x) for x in v] for v in _parse_set_flag(args.menu)],
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
    _render(records, getattr(args, "json", False), sys.stdout)
    return _exit_code(records)


if __name__ == "__main__":
    sys.exit(main())
