"""Binary Archimedean machinery: separation, consistency, closure, Lambda_o.

Separation always produces a *linear* witness (the superlinear and linear
separation properties are equivalent; superlinear witnesses are assembled only
in the choice module, where they are genuinely needed).

Representation notes per cone class:

* PosiCone: a functional is strictly positive on the cone iff it is strictly
  positive on the finitely many generators and background-positive, so
  separation is one strict homogeneous LP.
* OpenDualCone {u : piece_j(u) > 0}: a linear functional is strictly positive
  on this nonempty open cone iff it is nonnegative on the closure
  {u : piece_j(u) >= 0}, i.e. iff it is a nonnegative combination of the
  pieces (Farkas); the LP therefore runs over the combination weights.
* LexCone: the closure of a lexicographic cone is the half-space
  {u : level_1(u) >= 0}, finitely generated by the first level's coefficient
  vector plus plus/minus a nullspace basis of that level.  A functional
  strictly positive on the cone must be nonnegative on those generators
  (forcing it onto the ray of level_1) and strictly positive on the generators
  that are themselves members -- which is exactly where multi-level cones fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from . import lp
from .cone import (
    DesirCone,
    LexCone,
    OpenDualCone,
    PosiCone,
    background_generators,
    is_coherent,
    member,
    strict_background_rows,
)
from .functional import LinearF, SuperlinF, is_positive, nml
from .numeric import Background, Vector, nullspace_basis, ones, unit_vector, zero_vector


_WitnessMap = Callable[[Vector], LinearF]


@dataclass(frozen=True)
class SeparationWitness:
    functional: LinearF
    separated_option: Vector


def verify_separation_witness(
    cone: DesirCone, witness: SeparationWitness, members: Sequence[Vector] = ()
) -> bool:
    """Re-check a witness by substitution: background-positive, nonpositive at
    the separated option, strictly positive on any supplied members."""
    f = witness.functional
    return _separates(f, cone, witness.separated_option) and all(
        f.eval(u) > 0 for u in members
    )


def _separates(f: LinearF, cone: DesirCone, v: Optional[Vector]) -> bool:
    return is_positive(f, cone.space) and (v is None or f.eval(v) <= 0)


def _separation_rows(
    cone: DesirCone, v: Optional[Vector]
) -> tuple[list[Vector], list[Vector], list[Vector], "_WitnessMap"]:
    """Rows (strict, nonpos, nonneg) of the separation system plus the map
    taking an LP witness back to a linear functional on the option space."""
    space = cone.space
    strict_bg, nonneg_bg = strict_background_rows(space)
    if isinstance(cone, PosiCone):
        strict = list(cone.generators) + strict_bg
        nonneg = list(nonneg_bg)
        nonpos = [v] if v is not None else []
        return strict, nonpos, nonneg, _identity_map
    if isinstance(cone, OpenDualCone):
        pieces = cone.pieces

        def weight_row(u: Vector) -> Vector:
            return Vector(tuple(p.eval(u) for p in pieces))

        n = len(pieces)
        strict = [ones(n)] + [weight_row(s) for s in strict_bg]
        nonneg = [unit_vector(n, j) for j in range(n)] + [
            weight_row(w) for w in nonneg_bg
        ]
        nonpos = [weight_row(v)] if v is not None else []

        def to_functional(mu: Vector) -> LinearF:
            total = zero_vector(space.dim)
            for weight, piece in zip(mu.entries, pieces):
                total = total + piece.coeffs.scale(weight)
            return LinearF(total)

        return strict, nonpos, nonneg, to_functional
    assert isinstance(cone, LexCone)
    first = cone.levels[0].coeffs
    strict = [first] + strict_bg
    nonneg = list(nonneg_bg)
    for k in nullspace_basis([first]):
        for ray in (k, -k):
            if member(cone, ray):
                strict.append(ray)
            else:
                nonneg.append(ray)
    nonpos = [v] if v is not None else []
    return strict, nonpos, nonneg, _identity_map


def _identity_map(witness: Vector) -> LinearF:
    return LinearF(witness)


def separation_evidence(
    cone: DesirCone, v: Optional[Vector] = None
) -> Union[LinearF, lp.Infeasible]:
    """The one solve of the separation system behind every Archimedean answer.

    Returns a background-positive linear functional strictly positive on the
    cone (and nonpositive at v when v is given), re-verified before it is
    returned, or the ``lp.Infeasible`` whose Farkas certificate shows that no
    such functional exists.
    """
    strict, nonpos, nonneg, to_functional = _separation_rows(cone, v)
    result = lp.strict_homogeneous_solve(strict, nonpos, nonneg)
    if isinstance(result, lp.Infeasible):
        return result
    functional = to_functional(result.witness)
    lp.verified(_separates(functional, cone, v), "separation witness")
    return functional


def _excludes(f: LinearF, cone: DesirCone, v: Vector) -> bool:
    """Does f show by substitution, with no LP, that v is not a member?

    For a PosiCone, a background-positive f that is strictly positive on every
    generator is strictly positive on the whole cone, so ``f(v) <= 0`` puts v
    outside.  The other classes decide membership by evaluation.
    """
    if isinstance(cone, PosiCone):
        return _separates(f, cone, v) and all(f.eval(g) > 0 for g in cone.generators)
    return not member(cone, v)


def _separation_of(cone: DesirCone, v: Vector) -> Union[LinearF, lp.Infeasible]:
    """``separation_evidence(cone, v)``, with a functional it finds checked to exclude v."""
    if v.dim != cone.space.dim:
        raise ValueError("dimension mismatch")
    evidence = separation_evidence(cone, v)
    if isinstance(evidence, LinearF):
        lp.verified(_excludes(evidence, cone, v), "member exclusion")
    return evidence


def separate(cone: DesirCone, v: Vector) -> Optional[SeparationWitness]:
    """A background-positive linear functional strictly positive on the cone
    and nonpositive at v, or None when v is in the Archimedean closure.

    The separation LP is solved first.  A functional it finds also shows that
    v is no member, so it is returned at once.  Only when there is none is
    membership decided, to refuse a member with ``ValueError``.
    """
    evidence = _separation_of(cone, v)
    if isinstance(evidence, lp.Infeasible):
        if member(cone, v):
            raise ValueError("nothing to separate: option is a member of the cone")
        return None
    return SeparationWitness(functional=evidence, separated_option=v)


def archimedean_consistency_witness(cone: DesirCone) -> Optional[LinearF]:
    """A background-positive linear functional strictly positive on the cone, if any."""
    evidence = separation_evidence(cone)
    return None if isinstance(evidence, lp.Infeasible) else evidence


def archimedean_consistent(cone: DesirCone) -> bool:
    """Is some background-positive linear functional strictly positive on the cone?"""
    return archimedean_consistency_witness(cone) is not None


def archimedean_closure_member(cone: DesirCone, v: Vector) -> bool:
    """Is v in the intersection of all open half-spaces containing the cone?

    The separation LP is solved first, and a functional it finds means False.
    Only when there is none does the consistency LP run, to tell a closure
    member (True) from an Archimedean-inconsistent cone (``ValueError``).
    No membership LP is solved.
    """
    if isinstance(_separation_of(cone, v), LinearF):
        return False
    if not archimedean_consistent(cone):
        raise ValueError("Archimedean-inconsistent cone: the closure is all of V")
    return True


def is_essentially_archimedean(cone: DesirCone) -> bool:
    """Is the cone coherent and topologically open?"""
    if isinstance(cone, OpenDualCone):
        return is_coherent(cone)
    if isinstance(cone, LexCone):
        # One (independent) level is an open half-space; two or more levels
        # include boundary points of the first level's kernel.
        return len(cone.levels) == 1 and is_coherent(cone)
    # A posi-generated cone contains its generator rays, so it is open only in
    # the corner case where it collapses to the open orthant itself.
    if cone.space.background is Background.STRICT and all(
        all(entry > 0 for entry in g.entries) for g in cone.generators
    ):
        return is_coherent(cone)
    return False


def lambda_o(cone: DesirCone, u: Vector) -> Fraction:
    """sup{alpha : u - alpha * u_o in D} for the cone's reference option u_o."""
    space = cone.space
    u_o = space.u_o
    if isinstance(cone, OpenDualCone):
        return min(p.eval(u) / p.eval(u_o) for p in cone.pieces)
    if isinstance(cone, LexCone):
        first = cone.levels[0]
        return first.eval(u) / first.eval(u_o)
    # PosiCone: the sup over the cone equals the sup over its closed hull
    # posi(generators plus units) under both background orders, an exact LP.
    hull = list(cone.generators) + background_generators(space)
    m = len(hull)
    n = m + 1  # lambda_1..lambda_m, alpha
    rows = []
    for i in range(space.dim):
        coeffs = tuple(g[i] for g in hull) + (u_o[i],)
        rows.append(lp.Constraint(Vector(coeffs), lp.EQ, u[i]))
    for k in range(m):
        rows.append(lp.Constraint(unit_vector(n, k), lp.GE, Fraction(0)))
    objective = lp.Objective("max", unit_vector(n, m))
    result = lp.solve(lp.LpProblem(n, tuple(rows), objective))
    if not isinstance(result, lp.Optimal):
        raise ValueError("lambda_o undefined: cone is not pointed")
    return result.value


def lambda_o_functional(cone: DesirCone):
    """The closed-form Lambda_o with {eval > 0} equal to the interior of the cone."""
    u_o = cone.space.u_o
    if isinstance(cone, LexCone):
        return nml(LinearF(cone.levels[0].coeffs), u_o)
    if isinstance(cone, OpenDualCone):
        normalized = nml(SuperlinF(tuple(cone.pieces)), u_o)
        assert isinstance(normalized, SuperlinF)
        distinct: list[LinearF] = []
        for piece in normalized.pieces:
            if piece not in distinct:
                distinct.append(piece)
        if len(distinct) == 1:
            return distinct[0]
        return SuperlinF(tuple(distinct))
    raise ValueError("unsupported for PosiCone: use lambda_o pointwise")
