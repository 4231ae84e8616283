"""Loading and validating JSON model files.

One interchange format: JSON with every scalar a rational string "p/q" (or
"p"); floats are rejected.  Validation happens at load time and failures name
the offending object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .choice import AssessmentK, BinaryK, CredalK, KModel, OptionSet
from .cone import DesirCone, LexCone, OpenDualCone, PosiCone
from .functional import Functional, LinearF, SuperlinF
from .lottery import HorseLottery
from .numeric import Background, OptionSpace, Vector, ones, parse_rational

# The largest space.dim a model file may declare: far above any dimension
# the exact LP can serve, and refused before anything of its size is built.
MAX_DIM = 10_000


class ModelError(Exception):
    """A schema or parse problem in a model file."""


@dataclass(frozen=True)
class LotteryBlock:
    name: str
    h: HorseLottery
    g: HorseLottery
    alpha: Fraction
    reference_reward: str


@dataclass
class Model:
    space: OptionSpace
    cones: dict[str, DesirCone] = field(default_factory=dict)
    functionals: dict[str, Functional] = field(default_factory=dict)
    k_models: dict[str, KModel] = field(default_factory=dict)
    lotteries: dict[str, LotteryBlock] = field(default_factory=dict)
    queries: list[dict] = field(default_factory=list)


def _read_rational(raw: Any) -> Fraction:
    if not isinstance(raw, str):
        raise ValueError(f"rationals must be strings like \"p/q\", got {raw!r}")
    return parse_rational(raw)


def read_vector(raw: Any, dim: int) -> Vector:
    """A list of ``dim`` rational strings, as model files and CLI queries write
    a vector; a ``ValueError`` says what is wrong with anything else."""
    # A string is iterable too: "10" must not be read as the vector (1, 0).
    if not isinstance(raw, list):
        raise ValueError(f"expected a list of rational strings, got {raw!r}")
    if len(raw) != dim:
        raise ValueError(f"expected {dim} entries (dimension {dim}), got {len(raw)}")
    return Vector(tuple(_read_rational(x) for x in raw))


def _rational(raw: Any, where: str) -> Fraction:
    try:
        return _read_rational(raw)
    except ValueError as exc:
        raise ModelError(f"{where}: {exc}") from exc


def _vector(raw: Any, where: str, dim: int) -> Vector:
    try:
        return read_vector(raw, dim)
    except ValueError as exc:
        raise ModelError(f"{where}: {exc}") from exc


def _vector_list(raw: Any, where: str, dim: int) -> list[Vector]:
    if not isinstance(raw, list):
        raise ModelError(f"{where}: expected a list of vectors")
    return [_vector(item, f"{where}[{i}]", dim) for i, item in enumerate(raw)]


def _space(raw: Any) -> OptionSpace:
    if not isinstance(raw, dict):
        raise ModelError("space: expected an object")
    try:
        dim = raw["dim"]
        background = raw["background"]
    except KeyError as exc:
        raise ModelError(f"space: missing field {exc}") from exc
    # bool is a subclass of int: "dim": true is not a dimension.
    if not isinstance(dim, int) or isinstance(dim, bool) or not 0 < dim <= MAX_DIM:
        raise ModelError(f"space.dim: expected a positive integer at most {MAX_DIM}")
    try:
        bg = Background(background)
    except ValueError as exc:
        raise ModelError(
            f"space.background: expected \"pointwise\" or \"strict\", got {background!r}"
        ) from exc
    u_o = _vector(raw["u_o"], "space.u_o", dim) if "u_o" in raw else ones(dim)
    try:
        return OptionSpace(dim=dim, background=bg, u_o=u_o)
    except ValueError as exc:
        raise ModelError(f"space: {exc}") from exc


def _cone(name: str, raw: Any, space: OptionSpace) -> DesirCone:
    where = f"cones.{name}"
    if not isinstance(raw, dict) or "type" not in raw:
        raise ModelError(f"{where}: expected an object with a \"type\" field")
    kind = raw["type"]
    try:
        if kind == "posi":
            generators = _vector_list(raw.get("generators", []), f"{where}.generators", space.dim)
            return PosiCone(tuple(generators), space)
        if kind == "open_dual":
            pieces = _vector_list(raw.get("pieces", []), f"{where}.pieces", space.dim)
            return OpenDualCone(tuple(LinearF(p) for p in pieces), space)
        if kind == "lex":
            levels = _vector_list(raw.get("levels", []), f"{where}.levels", space.dim)
            return LexCone(tuple(LinearF(l) for l in levels), space)
    except ValueError as exc:
        raise ModelError(f"{where}: {exc}") from exc
    raise ModelError(f"{where}: unknown cone type {kind!r}")


def _functional(name: str, raw: Any, space: OptionSpace) -> Functional:
    where = f"functionals.{name}"
    if not isinstance(raw, dict) or "type" not in raw:
        raise ModelError(f"{where}: expected an object with a \"type\" field")
    kind = raw["type"]
    try:
        if kind == "linear":
            return LinearF(_vector(raw.get("coeffs"), f"{where}.coeffs", space.dim))
        if kind == "superlinear":
            pieces = _vector_list(raw.get("pieces", []), f"{where}.pieces", space.dim)
            return SuperlinF(tuple(LinearF(p) for p in pieces))
    except ValueError as exc:
        raise ModelError(f"{where}: {exc}") from exc
    raise ModelError(f"{where}: unknown functional type {kind!r}")


def _k_model(name: str, raw: Any, space: OptionSpace, cones: dict[str, DesirCone]) -> KModel:
    where = f"k_models.{name}"
    if not isinstance(raw, dict) or "type" not in raw:
        raise ModelError(f"{where}: expected an object with a \"type\" field")
    kind = raw["type"]
    try:
        if kind == "assessment":
            sets_raw = raw.get("assessment", [])
            if not isinstance(sets_raw, list):
                raise ModelError(f"{where}.assessment: expected a list of option sets")
            sets = []
            for i, entry in enumerate(sets_raw):
                vectors = _vector_list(entry, f"{where}.assessment[{i}]", space.dim)
                if not vectors:
                    raise ModelError(f"{where}.assessment[{i}]: option sets must be nonempty")
                sets.append(OptionSet(tuple(vectors)))
            return AssessmentK(tuple(sets), space)
        if kind == "credal":
            pieces = _vector_list(raw.get("functionals", []), f"{where}.functionals", space.dim)
            return CredalK(tuple(LinearF(p) for p in pieces), space)
        if kind == "binary":
            cone_name = raw.get("cone")
            if not isinstance(cone_name, str) or cone_name not in cones:
                raise ModelError(f"{where}.cone: unknown cone {cone_name!r}")
            return BinaryK(cones[cone_name])
    except ValueError as exc:
        raise ModelError(f"{where}: {exc}") from exc
    raise ModelError(f"{where}: unknown k-model type {kind!r}")


def _lottery_table(raw: Any, where: str, n_states: int, n_rewards: int):
    if not isinstance(raw, list) or len(raw) != n_states:
        raise ModelError(f"{where}: expected one row per state")
    return tuple(_vector(row, f"{where}[{i}]", n_rewards).entries for i, row in enumerate(raw))


def _lottery_block(name: str, raw: Any) -> LotteryBlock:
    where = f"lotteries.{name}"
    if not isinstance(raw, dict):
        raise ModelError(f"{where}: expected an object")
    states = raw.get("states")
    rewards = raw.get("rewards")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ModelError(f"{where}.states: expected a list of labels")
    if not isinstance(rewards, list) or not all(isinstance(r, str) for r in rewards):
        raise ModelError(f"{where}.rewards: expected a list of labels")
    # The embedding has one coordinate per state and non-reference reward.
    if not states:
        raise ModelError(f"{where}.states: need at least one state")
    if len(rewards) < 2:
        raise ModelError(f"{where}.rewards: need at least two rewards")
    try:
        h = HorseLottery(
            tuple(states), tuple(rewards),
            _lottery_table(raw.get("h"), f"{where}.h", len(states), len(rewards)),
        )
        g = HorseLottery(
            tuple(states), tuple(rewards),
            _lottery_table(raw.get("g"), f"{where}.g", len(states), len(rewards)),
        )
    except ValueError as exc:
        raise ModelError(f"{where}: {exc}") from exc
    alpha = _rational(raw.get("alpha", "1"), f"{where}.alpha")
    if alpha <= 0:
        raise ModelError(f"{where}.alpha: must be positive")
    reference = raw.get("reference_reward", rewards[-1])
    if reference not in rewards:
        raise ModelError(f"{where}.reference_reward: unknown reward {reference!r}")
    return LotteryBlock(name=name, h=h, g=g, alpha=alpha, reference_reward=reference)


def _named_section(raw: Any, section: str) -> dict[str, Any]:
    value = raw.get(section, {})
    if not isinstance(value, dict):
        raise ModelError(f"{section}: expected an object of named entries")
    return value


def load_model(path: str) -> Model:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle, parse_float=_reject_float)
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:
        # Text that is not UTF-8, an integer past the int-string digit limit,
        # or arrays and objects nested past the recursion limit.
        raise ModelError(f"{path}: unreadable JSON: {exc}") from exc
    if not isinstance(raw, dict) or "space" not in raw:
        raise ModelError("model file must be an object with a \"space\" field")
    model = Model(space=_space(raw["space"]))
    for name, entry in _named_section(raw, "cones").items():
        model.cones[name] = _cone(name, entry, model.space)
    for name, entry in _named_section(raw, "functionals").items():
        model.functionals[name] = _functional(name, entry, model.space)
    for name, entry in _named_section(raw, "k_models").items():
        model.k_models[name] = _k_model(name, entry, model.space, model.cones)
    for name, entry in _named_section(raw, "lotteries").items():
        model.lotteries[name] = _lottery_block(name, entry)
    _check_unique_names(model)
    queries = raw.get("queries", [])
    if not isinstance(queries, list):
        raise ModelError("queries: expected a list")
    for i, query in enumerate(queries):
        if not isinstance(query, dict) or "kind" not in query:
            raise ModelError(f"queries[{i}]: expected an object with a \"kind\" field")
    model.queries = queries
    return model


def _check_unique_names(model: Model) -> None:
    names: list[str] = []
    for section in (model.cones, model.functionals, model.k_models, model.lotteries):
        names.extend(section.keys())
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        raise ModelError(f"names must be unique across sections: {sorted(duplicates)}")


def _reject_float(value: str):
    raise ModelError(
        f"float literal {value!r} not allowed: write rationals as strings like \"1/2\""
    )
