"""Seeded workload generators.

Each generator takes only ``random.Random(seed)`` and ``Fraction`` to build
its inputs, hands the engine nothing but those inputs, and returns a list of
``Request`` objects.  A request is one closed-loop query: ``call`` runs the
engine, ``check`` compares what came back with the engine-free verdicts of
``verdicts.py`` and returns ``(ok, verdicts, unknown)``.

Why each workload exists (cited by name in BASELINE.md):

* ``grid`` -- thousands of tiny 2-D LPs, most of them infeasible, through
  ``cone`` and ``archimedean``: per-solve overhead and Farkas certificate
  cost dominate, while ``choice`` and ``cli`` do nothing.
* ``models`` -- the full user path (``model_io`` and ``cli``) on model files
  in dimensions 3 to 6 plus ``models/coin.json``: larger LPs with more bit
  growth, evidence solves repeated per query, and every ``mixing`` verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from conechoice import archimedean as arch_mod
from conechoice import choice as choice_mod
from conechoice import cli as cli_mod
from conechoice import cone as cone_mod
from conechoice.functional import LinearF
from conechoice.numeric import Background, OptionSpace

import oracles  # tests/oracles.py, put on sys.path by run.py
import verdicts as vd
from verdicts import Cone, Space


@dataclass
class Request:
    qid: int
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, int, int]]
    traced: bool = False  # part of the fixed round a traced run measures


class Predicted:
    """Marker returned in place of a ValueError, which the verdicts predict."""


def _catch(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return Predicted


def _memo(compute):
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]

    return get


def stratified(items: list, stratum, rng: random.Random) -> list:
    """Order items so that every prefix holds each stratum in proportion.

    Item k of a stratum of size n (after a shuffle) sits at (k + u) / n, with
    one random offset u per stratum; sorting on that position spreads every
    stratum evenly over the list, so a time window that ends part-way through
    still sees the whole mix.
    """
    groups: dict = {}
    for item in items:
        groups.setdefault(stratum(item), []).append(item)
    keyed = []
    for group in groups.values():
        rng.shuffle(group)
        offset = rng.random()
        keyed += [((k + offset) / len(group), item) for k, item in enumerate(group)]
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


def _engine_space(space: Space) -> OptionSpace:
    bg = Background.STRICT if space.strict else Background.POINTWISE
    return OptionSpace(space.dim, bg, vd.to_engine(space.u_o))


def _engine_cone(cone: Cone):
    space = _engine_space(cone.space)
    vectors = tuple(vd.to_engine(v) for v in cone.vectors)
    if cone.kind == "posi":
        return cone_mod.PosiCone(vectors, space)
    if cone.kind == "open_dual":
        return cone_mod.OpenDualCone(tuple(LinearF(p) for p in vectors), space)
    return cone_mod.LexCone(tuple(LinearF(p) for p in vectors), space)


def _rational(rng: random.Random, span: int, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * den, span * den), den)


def _int_vec(rng: random.Random, d: int, lo: int, hi: int, nonzero: bool = True):
    while True:
        v = tuple(Fraction(rng.randint(lo, hi)) for _ in range(d))
        if not (nonzero and vd.is_zero(v)):
            return v


# ------------------------------------------------------------------------ grid

GRID_STEP = Fraction(1, 4)
GRID_RADIUS = 2
# Many random cones with few points each: the cost of a grid run depends on
# how many points fall inside each cone, so averaging over many cones keeps
# one seed's run as heavy as another's.
RANDOM_POSI_PER_BACKGROUND = 264
RANDOM_OPEN_DUAL_PER_BACKGROUND = 120
GRID_RANDOM_POINTS = 8
GRID_SUBSAMPLE = 4  # one point in four of every cone also gets closure and lambda_o
GRID_TRACED_ROUND = 300


def _grid_cones(rng: random.Random) -> list[tuple[Cone, bool]]:
    """(cone, fixed) pairs: per background the sector, the interval and the
    lex cone of coin.json, then random two-vector posi and open-dual cones."""
    half = Fraction(1, 2)
    cones = []
    for strict in (False, True):
        space = Space(2, strict, (Fraction(1), Fraction(1)))
        cones.append((Cone("posi", ((Fraction(3, 4), Fraction(-1, 4)), (Fraction(-1, 4), Fraction(3, 4))), space), True))
        cones.append((Cone("open_dual", ((Fraction(1, 4), Fraction(3, 4)), (Fraction(3, 4), Fraction(1, 4))), space), True))
        cones.append((Cone("lex", ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), space), True))
        for _ in range(RANDOM_POSI_PER_BACKGROUND):
            gens = []
            while len(gens) < 2:
                g = (_rational(rng, 2, 3), _rational(rng, 2, 3))
                if not vd.is_zero(g):
                    gens.append(g)
            cones.append((Cone("posi", tuple(gens), space), False))
        for _ in range(RANDOM_OPEN_DUAL_PER_BACKGROUND):
            pieces = []
            while len(pieces) < 2:
                p = (_rational(rng, 2, 3), _rational(rng, 2, 3))
                if vd.dot(p, space.u_o) > half:  # lambda_o divides by p(u_o)
                    pieces.append(p)
            cones.append((Cone("open_dual", tuple(pieces), space), False))
    return cones


def _grid_request(qid: int, cone: Cone, engine_cone, v, extra: bool) -> Request:
    ev = vd.to_engine(v)

    def call():
        inside = cone_mod.member(engine_cone, ev)
        witness = None if inside else arch_mod.separate(engine_cone, ev)
        closure = lam = None
        if extra:
            closure = _catch(arch_mod.archimedean_closure_member, engine_cone, ev)
            lam = _catch(arch_mod.lambda_o, engine_cone, ev)
        return inside, witness, closure, lam

    @_memo
    def expected():
        inside = vd.member_2d(cone, v)
        sep = None if inside else vd.separable(cone, v)
        closure = lam = None
        if extra:
            closure = Predicted if not vd.separable(cone, None) else (
                inside or not vd.separable(cone, v)
            )
            lam = vd.lambda_o_2d(cone, v)
            lam = Predicted if lam is None else lam
        return inside, sep, closure, lam

    def check(result):
        inside, witness, closure, lam = result
        e_inside, e_sep, e_closure, e_lam = expected()
        ok = inside == e_inside
        verdicts = 1
        if ok and not inside:
            verdicts += 1
            if witness is None:
                ok = not e_sep
            else:
                f = tuple(witness.functional.coeffs.entries)
                ok = (
                    e_sep
                    and witness.separated_option == ev
                    and vd.dot(f, v) <= 0
                    and vd.strictly_positive_on(cone, f)
                )
        if extra:
            verdicts += 2
            ok = ok and closure == e_closure and lam == e_lam
        return ok, verdicts, 0

    label = f"grid.{cone.kind}.{'strict' if cone.space.strict else 'pointwise'}"
    return Request(qid, label, call, check)


def grid(seed: int) -> list[Request]:
    """The fixed cones meet every grid point and each random cone a seeded
    sample of GRID_RANDOM_POINTS.  The requests are stratified by cone class
    (kind, background, fixed or random) and by whether they get the extra
    queries, so any prefix of the list has the same mix of query costs."""
    rng = random.Random(seed)
    points = [tuple(p.entries) for p in oracles.grid_2d(GRID_RADIUS, GRID_STEP)]
    items = []
    for cone, fixed in _grid_cones(rng):
        engine_cone = _engine_cone(cone)
        sample = points if fixed else rng.sample(points, GRID_RANDOM_POINTS)
        # Exactly one point in GRID_SUBSAMPLE of every cone gets the extra queries.
        extras = set(rng.sample(range(len(sample)), len(sample) // GRID_SUBSAMPLE))
        items += [(cone, fixed, engine_cone, v, k in extras) for k, v in enumerate(sample)]

    def stratum(item):
        cone, fixed, _, _, extra = item
        return cone.kind, cone.space.strict, fixed, extra

    requests = [
        _grid_request(qid, cone, engine_cone, v, extra)
        for qid, (cone, _, engine_cone, v, extra) in enumerate(stratified(items, stratum, rng))
    ]
    for request in requests[:GRID_TRACED_ROUND]:
        request.traced = True
    return requests


# ---------------------------------------------------------------------- models

MODEL_DIMS = (3, 4, 5, 6)
MODELS_PER_SPACE = 2  # models per (dimension, background)
# (query maker, target): the report queries of every model.
MODEL_QUERIES = (
    ("member", "P"), ("member", "O"), ("member", "L"),
    ("arch_member", "P"), ("arch_member", "O"), ("arch_member", "Q"),
    ("member_set", "K_a"), ("arch_member_set", "K_a"), ("natural_extension", None),
    ("eadm", "K_c"), ("maximality", "O"), ("reject", "K_a"), ("reject", "K_b"),
)
MODELS_TRACED = ("d3p0", "d6s0")  # with coin.json: both backgrounds, smallest and largest dim


def _s(v) -> list[str]:
    return [str(x) for x in v]


def _lift_positive(g, lam):
    """Shift g along the all-ones vector until the hidden functional is positive on it."""
    value, step = vd.dot(lam, g), sum(lam)
    if value > 0:
        return g
    k = -value // step + 1
    return tuple(x + k for x in g)


def _model_json(rng: random.Random, d: int, strict: bool) -> dict:
    """One model file with every object class, each of fixed size (sizes drive
    the cost of a query, and fixed sizes keep one seed's run as heavy as
    another's).  Objects are built so that each
    precondition is known in advance: ``P`` is positive under a hidden
    background-positive functional (coherent, Archimedean-consistent), ``Q``
    holds g and -g (incoherent, Archimedean-inconsistent), ``O`` has
    background-positive pieces, ``L`` has two levels (never Archimedean)."""
    lam = _int_vec(rng, d, 1, 3)
    p_gens = [_lift_positive(_int_vec(rng, d, -3, 3), lam) for _ in range(2)]
    g = _int_vec(rng, d, -3, 3)
    q_gens = [g, tuple(-x for x in g), _int_vec(rng, d, -3, 3)]
    first = _int_vec(rng, d, 1, 3)
    while True:
        second = _int_vec(rng, d, -3, 3)
        if any(first[0] * second[i] != first[i] * second[0] for i in range(d)):
            break
    # K_a: one set of one option and one of two, so two selections.
    single, pair = _int_vec(rng, d, -2, 2), [_int_vec(rng, d, -2, 2)]
    while len(pair) < 2:
        option = _int_vec(rng, d, -2, 2)
        if option != pair[0]:
            pair.append(option)
    states, rewards = ["s1", "s2"], ["r1", "r2", "r3"]

    def lottery_row():
        weights = [rng.randint(0, 3) for _ in rewards]
        weights[rng.randrange(len(rewards))] += 1
        return [str(Fraction(w, sum(weights))) for w in weights]

    return {
        "space": {"dim": d, "background": "strict" if strict else "pointwise",
                  "u_o": _s(_int_vec(rng, d, 1, 2))},
        "cones": {
            "P": {"type": "posi", "generators": [_s(v) for v in p_gens]},
            "Q": {"type": "posi", "generators": [_s(v) for v in q_gens]},
            "O": {"type": "open_dual", "pieces": [_s(_int_vec(rng, d, 1, 3)) for _ in range(2)]},
            "L": {"type": "lex", "levels": [_s(first), _s(second)]},
        },
        "functionals": {
            "F": {"type": "superlinear", "pieces": [_s(_int_vec(rng, d, 1, 3)) for _ in range(2)]},
        },
        "k_models": {
            "K_a": {"type": "assessment",
                    "assessment": [[_s(single)], [_s(v) for v in pair]]},
            "K_c": {"type": "credal", "functionals": [_s(_int_vec(rng, d, 1, 3)) for _ in range(2)]},
            "K_b": {"type": "binary", "cone": "O"},
        },
        "lotteries": {
            "bet": {"states": states, "rewards": rewards,
                    "h": [lottery_row() for _ in states], "g": [lottery_row() for _ in states],
                    "alpha": rng.choice(["1/2", "1", "2"]), "reference_reward": "r3"},
        },
    }


def _model_queries(rng: random.Random, raw: dict) -> list[dict]:
    d = raw["space"]["dim"]

    def option():
        return _s(_int_vec(rng, d, -3, 3, nonzero=False))

    def options(k):
        return [_s(v) for v in dict.fromkeys(_int_vec(rng, d, -2, 2) for _ in range(k))]

    makers = {
        "member": lambda t: {"kind": "member", "target": t, "option": option()},
        "arch_member": lambda t: {"kind": "arch_member", "target": t, "option": option()},
        "member_set": lambda t: {"kind": "member", "target": t, "option_set": options(2)},
        "arch_member_set": lambda t: {"kind": "arch_member", "target": t, "option_set": options(2)},
        "natural_extension": lambda t: {"kind": "natural_extension", "assessment": options(3)},
        "eadm": lambda t: {"kind": "choose", "rule": "eadm", "target": t, "menu": options(3)},
        "maximality": lambda t: {"kind": "choose", "rule": "maximality", "target": t, "menu": options(3)},
        "reject": lambda t: {"kind": "choose", "rule": "reject", "target": t, "menu": options(3 if t == "K_b" else 2)},
    }
    queries = [makers[maker](target) for maker, target in MODEL_QUERIES]
    for i, q in enumerate(queries):
        q["name"] = f"q{i}.{q['kind']}"
    return queries


def _subset(raw: dict, section: str, names) -> dict:
    return {"space": raw["space"], section: {n: raw[section][n] for n in names}}


def _cli_request(qid: int, label: str, command: str, path: str, view, queries) -> Request:
    """One ``conechoice report|check PATH --json`` run, in process."""

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_mod.main([command, path, "--json"])
        return code, json.loads(out.getvalue())["queries"]

    errors = _memo(lambda: any(vd.predicted_error(view, q) for q in queries()))

    def check(result):
        code, records = result
        wanted = queries()
        if len(records) != len(wanted) or code != (2 if errors() else 0):
            return False, len(records), 0
        ok, unknown = True, 0
        for q, record in zip(wanted, records):
            good, undecided = vd.check_record(view, q, record)
            ok = ok and good and record["kind"] == q["kind"]
            unknown += undecided
        return ok, len(records), unknown

    return Request(qid, label, call, check)


def _check_queries(raw: dict):
    """The query list ``conechoice check`` synthesizes, rebuilt from the schema."""
    queries = []
    for name in raw.get("cones", {}):
        for kind in ("coherent", "mixing", "essentially_archimedean", "arch_consistent"):
            queries.append({"kind": kind, "target": name})
    for name, k in raw.get("k_models", {}).items():
        if k["type"] == "assessment":
            for kind in ("consistent", "arch_consistent", "is_binary"):
                queries.append({"kind": kind, "target": name})
    queries += [{"kind": "nml", "target": n} for n in raw.get("functionals", {})]
    queries += [{"kind": "embed", "target": n} for n in raw.get("lotteries", {})]
    return queries


def model_files(seed: int, workdir: str) -> list[tuple[str, str, str, dict]]:
    """Write the seed's model files; returns (label, command, path, raw model).

    A report file holds the model and one query, so every report request is
    one query; a check file holds one object of the model (the functional and
    the lottery block share one)."""
    rng = random.Random(seed)
    files = []
    spaces = [(d, strict, copy) for d in MODEL_DIMS for strict in (False, True)
              for copy in range(MODELS_PER_SPACE)]
    for d, strict, copy in spaces:
        raw = _model_json(rng, d, strict)
        tag = f"d{d}{'s' if strict else 'p'}{copy}"
        for i, q in enumerate(_model_queries(rng, raw)):
            files.append((f"models.report.{q['kind']}", "report", f"{tag}_q{i}.json", dict(raw, queries=[q])))
        pieces = [("cones", [n]) for n in raw["cones"]] + [("k_models", ["K_a"])]
        for j, (section, names) in enumerate(pieces):
            files.append(("models.check", "check", f"{tag}_c{j}.json", _subset(raw, section, names)))
        files.append(("models.check", "check", f"{tag}_cf.json",
                      dict(_subset(raw, "functionals", ["F"]), lotteries=raw["lotteries"])))
    written = []
    for label, command, name, raw in files:
        path = os.path.join(workdir, name)
        with open(path, "w") as handle:
            json.dump(raw, handle)
        written.append((label, command, path, raw))
    return written


def models(seed: int, workdir: str, coin_path: str) -> list[Request]:
    """Generated files in dims 3-6 under both backgrounds, plus coin.json.

    Coin ``report`` and ``check`` come first, then the generated requests
    stratified by kind, dimension and background."""
    with open(coin_path) as handle:
        coin = json.load(handle)
    entries = [("models.coin.report", "report", coin_path, coin),
               ("models.coin.check", "check", coin_path, coin)]
    generated = model_files(seed, workdir)
    # Strata: query kind, dimension and background.
    entries += stratified(
        generated, lambda e: (e[0], os.path.basename(e[2])[:3]), random.Random(seed)
    )
    requests = []
    for label, command, path, raw in entries:
        view = vd.ModelView.from_json(raw)
        if command == "check":
            queries = (lambda raw=raw: _check_queries(raw))
        else:
            queries = (lambda raw=raw: raw["queries"])
        request = _cli_request(len(requests), label, command, path, view, queries)
        request.traced = path == coin_path or os.path.basename(path)[:4] in MODELS_TRACED
        requests.append(request)
    return requests
