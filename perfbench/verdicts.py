"""Engine-free verdict checks.

Expected answers come from the independent oracles in ``tests/oracles.py``
(pairwise Caratheodory and candidate sweeps in the plane, ``solve_square``)
and from vertex enumeration over exact rationals built on ``solve_square``.
Nothing here calls the engine's LP solver or cone code.  Witnesses,
certificates and combinations the engine emits are re-verified by
substitution.

Vectors are plain tuples of ``Fraction``; a cone is a ``Cone`` record that
mirrors the model-file schema, so the same checks serve engine objects built
by the workloads and records parsed from ``conechoice report --json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

import oracles  # tests/oracles.py, put on sys.path by run.py
from conechoice.lp import EQ, GE, LE
from conechoice.numeric import Vector

Vec = tuple  # tuple[Fraction, ...]
ZERO = Fraction(0)
ONE = Fraction(1)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def scale(a: Vec, c: Fraction) -> Vec:
    return tuple(c * x for x in a)


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def unit(d: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(d))


def ones(d: int) -> Vec:
    return (ONE,) * d


def parse_vec(raw: Sequence[str]) -> Vec:
    return tuple(Fraction(x) for x in raw)


def to_engine(v: Vec) -> Vector:
    return Vector(tuple(v))


@dataclass(frozen=True)
class Space:
    dim: int
    strict: bool  # strict background (every entry > 0) versus pointwise
    u_o: Vec


@dataclass(frozen=True)
class Cone:
    kind: str  # "posi" | "open_dual" | "lex"
    vectors: tuple  # generators, pieces or levels
    space: Space


# ---------------------------------------------------------------- LP by enumeration


def vertex_search(rows, n: int, objective: Optional[Vec] = None):
    """Best vertex of the pointed polyhedron {x : rows}, by enumeration.

    Every nonempty pointed polyhedron has a vertex where n independent rows
    are tight, and a bounded linear objective attains its maximum at one.
    Without an objective the first feasible vertex is returned as
    ``(None, x)``; with one, ``(value, x)`` at the maximum.  ``None`` means
    infeasible.  Callers guarantee pointedness and boundedness.
    """
    best = None
    for subset in combinations(range(len(rows)), n):
        x = oracles.solve_square([rows[i][0] for i in subset], [rows[i][2] for i in subset])
        if x is None or not oracles._satisfies(rows, x):
            continue
        if objective is None:
            return (None, tuple(x))
        value = dot(objective, x)
        if best is None or value > best[0]:
            best = (value, tuple(x))
    return best


def _columns(gens: Sequence[Vec], i: int) -> Vec:
    return tuple(g[i] for g in gens)


def posi_combination(gens: Sequence[Vec], v: Vec) -> bool:
    """Is v = sum lambda_k g_k with lambda >= 0, some lambda_k > 0?"""
    m = len(gens)
    if m == 0:
        return False
    rows = [(_columns(gens, i), EQ, v[i]) for i in range(len(v))]
    rows += [(unit(m, k), GE, ZERO) for k in range(m)]
    if is_zero(v):
        rows.append((ones(m), EQ, ONE))
    return vertex_search(rows, m) is not None


def posi_member(gens: Sequence[Vec], v: Vec, space: Space) -> bool:
    """Semantic membership in a posi cone, with the background folded in.

    Pointwise: v in posi(gens + units); for v != 0 that is lambda >= 0 with
    v - G lambda >= 0.  Strict: v in posi(gens), or v - G lambda strictly
    positive for some lambda >= 0 (max-margin t > 0, capped at 1).
    """
    m, d = len(gens), len(v)
    if not space.strict:
        if m == 0:
            return not is_zero(v) and all(x >= 0 for x in v)
        rows = [(_columns(gens, i), LE, v[i]) for i in range(d)]
        rows += [(unit(m, k), GE, ZERO) for k in range(m)]
        if is_zero(v):
            rows.append((ones(m), EQ, ONE))
        return vertex_search(rows, m) is not None
    if m == 0:
        return all(x > 0 for x in v)
    if posi_combination(gens, v):
        return True
    rows = [(_columns(gens, i) + (ONE,), LE, v[i]) for i in range(d)]
    rows += [(unit(m + 1, k), GE, ZERO) for k in range(m)]
    rows.append((unit(m + 1, m), LE, ONE))
    best = vertex_search(rows, m + 1, objective=unit(m + 1, m))
    return best is not None and best[0] > 0


def lex_sign(values) -> int:
    for value in values:
        if value != 0:
            return 1 if value > 0 else -1
    return 0


def member(cone: Cone, v: Vec) -> bool:
    if cone.kind == "open_dual":
        return all(dot(p, v) > 0 for p in cone.vectors)
    if cone.kind == "lex":
        return lex_sign([dot(level, v) for level in cone.vectors]) > 0
    return posi_member(cone.vectors, v, cone.space)


def bg_positive(f: Vec, space: Space) -> bool:
    """Strictly positive on every background-positive option."""
    if space.strict:
        return all(c >= 0 for c in f) and not is_zero(f)
    return all(c > 0 for c in f)


def coherent(cone: Cone) -> bool:
    space = cone.space
    if cone.kind == "posi":
        return not posi_member(cone.vectors, tuple([ZERO] * space.dim), space)
    if cone.kind == "open_dual":
        return all(bg_positive(p, space) for p in cone.vectors)
    first = cone.vectors[0]
    if space.strict:
        # Independent levels: first != 0, so every u > 0 is lex-positive iff first >= 0.
        return all(c >= 0 for c in first)
    return all(
        lex_sign([dot(level, unit(space.dim, i)) for level in cone.vectors]) > 0
        for i in range(space.dim)
    )


# ------------------------------------------------------------ separation in any dim


def background_rows(space: Space) -> tuple[list, list]:
    """(strict rows, nonneg rows) making a functional background-positive."""
    units = [unit(space.dim, i) for i in range(space.dim)]
    if space.strict:
        return [ones(space.dim)], units
    return units, []


def lex_closure_rays(cone: Cone) -> tuple[list, list]:
    """Nullspace rays of the first level, split into members and the rest.

    The basis follows reduced row echelon form of the single first level:
    one vector per free column, in increasing column order.
    """
    first = cone.vectors[0]
    d = len(first)
    pivot = next(i for i in range(d) if first[i] != 0)
    inside, outside = [], []
    for free in range(d):
        if free == pivot:
            continue
        k = tuple(
            ONE if j == free else (-first[free] / first[pivot] if j == pivot else ZERO)
            for j in range(d)
        )
        for ray in (k, scale(k, Fraction(-1))):
            (inside if member(cone, ray) else outside).append(ray)
    return inside, outside


def separation_rows(cone: Cone) -> tuple[list, list, str]:
    """Rows (strict, nonneg) any functional strictly positive on the cone and
    background-positive must satisfy, and the space they live in.

    Posi and lex rows live in the option space; open-dual rows live in the
    space of nonnegative weights on the pieces (a functional is strictly
    positive on a nonempty open dual cone iff it is a nonzero nonnegative
    combination of the pieces).  For a lex cone the rows are sound because a
    strictly positive functional must be positive on the first level's
    direction and on member rays, and nonnegative on the closure.
    """
    strict_bg, nonneg_bg = background_rows(cone.space)
    if cone.kind == "posi":
        return list(cone.vectors) + strict_bg, list(nonneg_bg), "option"
    if cone.kind == "lex":
        inside, outside = lex_closure_rays(cone)
        strict = [cone.vectors[0]] + strict_bg + inside
        return strict, list(nonneg_bg) + outside, "option"
    pieces = cone.vectors
    n = len(pieces)

    def weights(u):
        return tuple(dot(p, u) for p in pieces)

    strict = [ones(n)] + [weights(s) for s in strict_bg]
    nonneg = [unit(n, j) for j in range(n)] + [weights(w) for w in nonneg_bg]
    return strict, nonneg, "weights"


def _strict_system(strict, nonpos, nonneg) -> bool:
    """Is {x.s > 0, x.t <= 0, x.w >= 0} feasible?  In the plane by the
    candidate sweep of ``oracles.separation_direction_2d``, otherwise by
    vertex enumeration with the strict rows scaled to x.s >= 1."""
    n = len((strict or nonneg)[0])
    if n == 2:
        return oracles.separation_direction_2d(
            [to_engine(s) for s in strict],
            [to_engine(t) for t in nonpos],
            [to_engine(w) for w in nonneg],
        ) is not None
    rows = [(s, GE, ONE) for s in strict]
    rows += [(t, LE, ZERO) for t in nonpos]
    rows += [(w, GE, ZERO) for w in nonneg]
    return vertex_search(rows, n) is not None


def separable(cone: Cone, v: Optional[Vec]) -> bool:
    """Is there a background-positive functional strictly positive on the cone
    (and nonpositive at v, when v is given)?  Lex cones: only one level can be."""
    if cone.kind == "lex":
        if len(cone.vectors) > 1:
            return False
        first = cone.vectors[0]
        return bg_positive(first, cone.space) and (v is None or dot(first, v) <= 0)
    strict, nonneg, where = separation_rows(cone)
    nonpos = []
    if v is not None:
        nonpos = [v] if where == "option" else [tuple(dot(p, v) for p in cone.vectors)]
    return _strict_system(strict, nonpos, nonneg)


def strictly_positive_on(cone: Cone, f: Vec) -> bool:
    """Re-check by substitution that f is strictly positive on the cone."""
    if not bg_positive(f, cone.space):
        return False
    if cone.kind == "posi":
        return all(dot(f, g) > 0 for g in cone.vectors)
    if cone.kind == "open_dual":
        return not is_zero(f) and posi_combination(cone.vectors, f)
    first = cone.vectors[0]
    c = next((f[i] / first[i] for i in range(len(f)) if first[i] != 0), None)
    return len(cone.vectors) == 1 and c is not None and c > 0 and f == scale(first, c)


def verify_certificate(strict, nonneg, certificate) -> bool:
    """A Farkas certificate for {x.s >= 1, x.w >= 0}: nonnegative multipliers,
    in row order (strict rows first), combining the rows into zero with
    positive total weight on the strict rows."""
    if len(certificate) != len(strict) + len(nonneg) or any(c < 0 for c in certificate):
        return False
    rows = list(strict) + list(nonneg)
    total = tuple(sum((c * r[j] for c, r in zip(certificate, rows)), ZERO) for j in range(len(rows[0])))
    return is_zero(total) and sum(certificate[: len(strict)], ZERO) > 0


def verify_mixing_witness(cone: Cone, u: Vec, v: Vec) -> bool:
    return not member(cone, u) and not member(cone, v) and member(cone, add(u, v))


def mixing_true_is_sound(cone: Cone) -> bool:
    """The mixing verdicts that have a closed-form proof: lex cones, one
    half-space, and dimension one."""
    if cone.kind == "lex":
        return True
    if cone.kind == "open_dual":
        first = cone.vectors[0]
        return all(_positively_proportional(first, p) for p in cone.vectors)
    return cone.space.dim == 1


def _positively_proportional(a: Vec, b: Vec) -> bool:
    i = next((j for j in range(len(a)) if a[j] != 0), None)
    if i is None or b[i] == 0:
        return False
    c = b[i] / a[i]
    return c > 0 and b == scale(a, c)


def essentially_archimedean(cone: Cone) -> bool:
    """Coherent and open: open-dual cones, one-level lex cones, and a posi cone
    only when it is the open orthant of a strict background."""
    if cone.kind == "open_dual":
        return coherent(cone)
    if cone.kind == "lex":
        return len(cone.vectors) == 1 and coherent(cone)
    return (
        cone.space.strict
        and all(all(x > 0 for x in g) for g in cone.vectors)
        and coherent(cone)
    )


# ---------------------------------------------------------- assessments (any dim)


def selections(sets: Sequence[Sequence[Vec]]):
    return product(*[[v for v in s if not is_zero(v)] for s in sets])


def extension_consistent(selection: Sequence[Vec], space: Space) -> bool:
    return not posi_member(list(selection), tuple([ZERO] * space.dim), space)


def k_member(sets, options: Sequence[Vec], space: Space) -> bool:
    options = [u for u in options if not is_zero(u)]
    if not options:
        return False
    for selection in selections(sets):
        if extension_consistent(selection, space) and not any(
            posi_member(list(selection), u, space) for u in options
        ):
            return False
    return True


def _selection_cone(selection, space: Space) -> Cone:
    return Cone("posi", tuple(selection), space)


def k_arch_consistent(sets, space: Space) -> bool:
    return any(separable(_selection_cone(s, space), None) for s in selections(sets))


def k_arch_excluded(sets, options: Sequence[Vec], space: Space) -> bool:
    """Is B outside the Archimedean closure: some selection with a per-option
    separating functional for every option of B?"""
    options = [u for u in options if not is_zero(u)]
    if not options:
        return k_arch_consistent(sets, space)
    return any(
        all(separable(_selection_cone(s, space), u) for u in options)
        for s in selections(sets)
    )


def meets_every_set(sets, f_eval) -> bool:
    """Does the functional pick a positive option from every assessment set?"""
    return all(any(f_eval(u) > 0 for u in s if not is_zero(u)) for s in sets)


def displaced(menu: Sequence[Vec], u: Vec) -> list:
    return [sub(v, u) for v in menu if v != u]


# ------------------------------------------------------------------ 2-D oracles


def member_2d(cone: Cone, v: Vec) -> bool:
    """Membership in the plane from the pairwise-Caratheodory oracle."""
    if cone.kind != "posi":
        return member(cone, v)
    units = oracles.units_2d()
    gens = [to_engine(g) for g in cone.vectors]

    def combination(hull) -> bool:
        if not is_zero(v):
            return oracles.cone2_member(hull, to_engine(v))
        # Gordan: 0 is a nontrivial combination iff nothing is strictly positive
        # on all of the hull (pairwise Caratheodory does not cover 0).
        return bool(hull) and oracles.separation_direction_2d(hull) is None

    if not cone.space.strict:
        return combination(gens + units)
    # posi(gens) + open orthant is the interior of posi(gens + units).
    return combination(gens) or oracles.separation_direction_2d(
        [], nonpos=[to_engine(v)], nonneg=gens + units
    ) is None


def lambda_o_2d(cone: Cone, u: Vec) -> Optional[Fraction]:
    """sup{a : u - a u_o in D}; None where the engine must refuse (posi cone
    whose closed hull contains -u_o)."""
    u_o = cone.space.u_o
    if cone.kind == "open_dual":
        return min(dot(p, u) / dot(p, u_o) for p in cone.vectors)
    if cone.kind == "lex":
        first = cone.vectors[0]
        return dot(first, u) / dot(first, u_o)
    hull = [to_engine(g) for g in cone.vectors] + oracles.units_2d()
    if oracles.cone2_member(hull, to_engine(scale(u_o, Fraction(-1)))):
        return None
    # The sup is attained where u - a u_o hits the origin or a generator ray.
    candidates = []
    for g in [tuple(h.entries) for h in hull]:
        # u - a u_o = t g, solved for a by Cramer's rule.
        det = u_o[0] * g[1] - u_o[1] * g[0]
        if det != 0:
            candidates.append((u[0] * g[1] - u[1] * g[0]) / det)
    if u[0] * u_o[1] == u[1] * u_o[0]:
        candidates.append(u[0] / u_o[0])
    feasible = [
        a for a in candidates
        if is_zero(sub(u, scale(u_o, a))) or oracles.cone2_member(hull, to_engine(sub(u, scale(u_o, a))))
    ]
    return max(feasible)


# ------------------------------------------------------------- model-file records


@dataclass
class ModelView:
    """The parts of a model file the record checks need, parsed independently."""

    space: Space
    cones: dict
    functionals: dict  # name -> (type, pieces)
    k_models: dict  # name -> (type, payload)
    lotteries: dict

    @classmethod
    def from_json(cls, raw: dict) -> "ModelView":
        s = raw["space"]
        dim = s["dim"]
        space = Space(dim, s["background"] == "strict", parse_vec(s.get("u_o", ["1"] * dim)))
        cones = {}
        for name, c in raw.get("cones", {}).items():
            key = {"posi": "generators", "open_dual": "pieces", "lex": "levels"}[c["type"]]
            cones[name] = Cone(c["type"], tuple(parse_vec(v) for v in c.get(key, [])), space)
        functionals = {}
        for name, f in raw.get("functionals", {}).items():
            if f["type"] == "linear":
                functionals[name] = ("linear", [parse_vec(f["coeffs"])])
            else:
                functionals[name] = ("superlinear", [parse_vec(p) for p in f["pieces"]])
        k_models = {}
        for name, k in raw.get("k_models", {}).items():
            if k["type"] == "assessment":
                payload = [[parse_vec(v) for v in s] for s in k["assessment"]]
            elif k["type"] == "credal":
                payload = [parse_vec(f) for f in k["functionals"]]
            else:
                payload = k["cone"]
            k_models[name] = (k["type"], payload)
        return cls(space, cones, functionals, k_models, dict(raw.get("lotteries", {})))

    def k_member(self, name: str, options) -> bool:
        kind, payload = self.k_models[name]
        options = [u for u in options if not is_zero(u)]
        if kind == "assessment":
            return k_member(payload, options, self.space)
        if kind == "credal":
            return bool(options) and all(any(dot(f, u) > 0 for u in options) for f in payload)
        return any(member(self.cones[payload], u) for u in options)


def _vec_set(raw) -> set:
    return {parse_vec(v) for v in raw}


def predicted_error(view: ModelView, query: dict) -> bool:
    """Precondition failures the verdicts say the engine must report."""
    if query["kind"] != "arch_member":
        return False
    target = query["target"]
    if target in view.cones:
        return not separable(view.cones[target], None)
    return not k_arch_consistent(view.k_models[target][1], view.space)


def check_record(view: ModelView, query: dict, record: dict) -> tuple[bool, bool]:
    """(record is correct, record answered "unknown")."""
    if "error" in record or predicted_error(view, query):
        return ("error" in record) and predicted_error(view, query), False
    kind, target, answer = query["kind"], query.get("target", ""), record.get("answer")
    space = view.space
    if kind == "mixing":
        if answer == "unknown":
            return True, True
        cone = view.cones[target]
        if answer is True:
            return mixing_true_is_sound(cone), False
        w = record["witness"]
        return verify_mixing_witness(cone, parse_vec(w["u"]), parse_vec(w["v"])), False
    return _check_answer(view, query, kind, target, answer, record, space), False


def _check_answer(view, query, kind, target, answer, record, space) -> bool:
    cone = view.cones.get(target)
    if kind == "coherent":
        return answer == coherent(cone)
    if kind == "essentially_archimedean":
        return answer == essentially_archimedean(cone)
    if kind == "member" and cone is not None:
        return answer == member(cone, parse_vec(query["option"]))
    if kind == "member":
        return answer == view.k_member(target, [parse_vec(v) for v in query["option_set"]])
    if kind == "arch_consistent" and cone is not None:
        if answer is True:
            return strictly_positive_on(cone, parse_vec(record["witness"]))
        strict, nonneg, _ = separation_rows(cone)
        return verify_certificate(strict, nonneg, [Fraction(c) for c in record["certificate"]])
    sets = view.k_models.get(target, (None, None))[1]
    if kind == "arch_consistent":
        if answer is True:
            f = parse_vec(record["witness"])
            return bg_positive(f, space) and meets_every_set(sets, lambda u: dot(f, u))
        return not k_arch_consistent(sets, space)
    if kind == "arch_member" and cone is not None:
        v = parse_vec(query["option"])
        if answer is True:
            return member(cone, v) or not separable(cone, v)
        f = parse_vec(record["witness"])
        return strictly_positive_on(cone, f) and dot(f, v) <= 0
    if kind == "arch_member":
        options = [parse_vec(v) for v in query["option_set"]]
        if answer is True:
            return not k_arch_excluded(sets, options, space)
        pieces = [parse_vec(p) for p in record["witness"]["pieces"]]

        def value(u):
            return min(dot(p, u) for p in pieces)

        return (
            all(bg_positive(p, space) for p in pieces)
            and meets_every_set(sets, value)
            and all(value(u) <= 0 for u in options if not is_zero(u))
        )
    if kind == "consistent":
        return answer == any(extension_consistent(s, space) for s in selections(sets))
    if kind == "is_binary":
        return answer == all(
            any(k_member(sets, [u], space) for u in s if not is_zero(u)) for s in sets
        )
    if kind == "natural_extension":
        return _check_extension(query, answer, record, space)
    if kind == "choose":
        return _check_choice(view, query, answer)
    if kind == "nml":
        ftype, pieces = view.functionals[target]
        want = [scale(p, 1 / dot(p, space.u_o)) for p in pieces]
        if ftype == "linear":
            return answer == {"type": "linear", "coeffs": [str(x) for x in want[0]]}
        return [parse_vec(p) for p in answer["pieces"]] == want and answer["type"] == "superlinear"
    if kind == "embed":
        block = view.lotteries[target]
        alpha = Fraction(block.get("alpha", "1"))
        rewards = block["rewards"]
        ref = block.get("reference_reward", rewards[-1])
        want = [
            alpha * (Fraction(h) - Fraction(g))
            for row_h, row_g in zip(block["h"], block["g"])
            for reward, h, g in zip(rewards, row_h, row_g)
            if reward != ref
        ]
        return parse_vec(answer) == tuple(want)
    return False


def _check_extension(query, answer, record, space) -> bool:
    assessment = [parse_vec(v) for v in query["assessment"]]
    if answer != extension_consistent(assessment, space):
        return False
    if "certificate" in record:
        total = tuple([ZERO] * space.dim)
        weight = ZERO
        for entry in record["certificate"]:
            v, c = parse_vec(entry["vector"]), Fraction(entry["coeff"])
            allowed = v in assessment or (
                all(x > 0 for x in v) if space.strict else v in [unit(space.dim, i) for i in range(space.dim)]
            )
            if c < 0 or not allowed:
                return False
            total, weight = add(total, scale(v, c)), weight + c
        if not (is_zero(total) and weight > 0):
            return False
    if "witness" in record:
        f = parse_vec(record["witness"])
        return bg_positive(f, space) and all(dot(f, a) > 0 for a in assessment)
    return True


def _check_choice(view: ModelView, query: dict, answer) -> bool:
    menu = [parse_vec(v) for v in query["menu"]]
    got = _vec_set(answer)
    rule, target = query["rule"], query["target"]
    if rule == "eadm":
        fs = view.k_models[target][1]
        want = {u for u in menu if any(all(dot(f, u) >= dot(f, w) for w in menu) for f in fs)}
    elif rule == "maximality":
        cone = view.cones[target]
        want = {u for u in menu if not any(w != u and member(cone, sub(w, u)) for w in menu)}
    else:
        want = {u for u in menu if view.k_member(target, displaced(menu, u))}
    return got == want
