"""Sets of desirable options over an option space.

Three finite representations cover every cone the engine needs:

* :class:`PosiCone` -- finitely posi-generated cones (with the background cone
  folded in per the space's order);
* :class:`OpenDualCone` -- open cones cut out by finitely many strict linear
  inequalities;
* :class:`LexCone` -- lexicographic cones given by an ordered list of levels.

No single representation can express all three shapes (closed sectors, open
half-spaces, lexicographic cones), which is why all three exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import lp
from .functional import LinearF, is_positive
from .numeric import (
    Background,
    OptionSpace,
    Vector,
    ones,
    rank_of,
    unit_vector,
    zero_vector,
)


def interior_member(space: OptionSpace, u: Vector) -> bool:
    """Is u in the interior of the background cone (all entries strictly positive)?"""
    if u.dim != space.dim:
        raise ValueError("dimension mismatch")
    return all(entry > 0 for entry in u.entries)


def background_generators(space: OptionSpace) -> list[Vector]:
    """Generators of the closure of the background cone: the unit vectors."""
    return [unit_vector(space.dim, i) for i in range(space.dim)]


@dataclass(frozen=True)
class PosiCone:
    """A posi-generated set of desirable options.

    Under pointwise dominance the semantic set is posi(generators plus unit
    vectors).  Under strict dominance it is posi(generators), plus anything in
    posi(generators) raised by a strictly positive option, plus the open
    orthant itself.
    """

    generators: tuple[Vector, ...]
    space: OptionSpace

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.dim != self.space.dim:
                raise ValueError("generator has wrong dimension")


@dataclass(frozen=True)
class OpenDualCone:
    """The open cone {u : piece(u) > 0 for every piece}."""

    pieces: tuple[LinearF, ...]
    space: OptionSpace

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("need at least one piece")
        for p in self.pieces:
            if p.dim != self.space.dim:
                raise ValueError("piece has wrong dimension")


@dataclass(frozen=True)
class LexCone:
    """The cone {u : (level_1(u), ..., level_m(u)) lexicographically > 0}."""

    levels: tuple[LinearF, ...]
    space: OptionSpace

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("need at least one level")
        for level in self.levels:
            if level.dim != self.space.dim:
                raise ValueError("level has wrong dimension")
        if rank_of([level.coeffs for level in self.levels]) != len(self.levels):
            raise ValueError("lexicographic levels must be linearly independent")


DesirCone = Union[PosiCone, OpenDualCone, LexCone]


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of a natural-extension consistency check.

    For an inconsistent assessment, ``combination`` is a list of
    (vector, coefficient) pairs with nonnegative coefficients, not all zero,
    summing to the zero vector -- a Farkas-style certificate verifiable by
    substitution.  A consistent one carries nothing more: a functional
    strictly positive on the extension, where one exists, is
    ``archimedean.archimedean_consistency_witness`` of the extension.
    """

    consistent: bool
    combination: Optional[tuple[tuple[Vector, Fraction], ...]] = None


def verify_inconsistency_combination(
    combination: Sequence[tuple[Vector, Fraction]]
) -> bool:
    if not combination:
        return False
    dim = combination[0][0].dim
    total = zero_vector(dim)
    coeff_sum = Fraction(0)
    for vector, coeff in combination:
        if coeff < 0:
            return False
        coeff_sum += coeff
        total = total + vector.scale(coeff)
    return coeff_sum > 0 and total.is_zero()


def _posi_combination(
    generators: Sequence[Vector], v: Vector
) -> Optional[tuple[Fraction, ...]]:
    """Coefficients for v = sum lambda_k g_k, lambda >= 0, some lambda_k > 0; or None."""
    if not generators:
        return None
    dim = generators[0].dim
    if v.dim != dim:
        raise ValueError("dimension mismatch")
    m = len(generators)
    rows = [
        lp.Constraint(Vector(tuple(g[j] for g in generators)), lp.EQ, v[j])
        for j in range(dim)
    ]
    for k in range(m):
        rows.append(lp.Constraint(unit_vector(m, k), lp.GE, Fraction(0)))
    if v.is_zero():
        # Any representation of a nonzero v already has a positive coefficient;
        # for v = 0 the "some lambda_k > 0" clause needs the explicit row.
        rows.append(lp.Constraint(ones(m), lp.EQ, Fraction(1)))
    result = lp.solve(lp.LpProblem(m, tuple(rows)))
    if isinstance(result, lp.Feasible):
        return tuple(result.witness.entries)
    return None


def posi_member(generators: Sequence[Vector], v: Vector) -> bool:
    """Is v a positive linear combination of the generators?"""
    return _posi_combination(generators, v) is not None


def _strict_residual_combination(
    generators: Sequence[Vector], v: Vector
) -> Optional[tuple[tuple[Fraction, ...], Vector]]:
    """Find lambda >= 0 with v - sum lambda_k g_k strictly positive, or None.

    Homogenised with a scale x0 (Motzkin): one strict homogeneous solve over
    (lambda, x0) with x0 > 0, x0 v_i - sum_k lambda_k g_k[i] > 0 for every i,
    and lambda >= 0.  A solution divided by its x0 (>= 1 by its own row) is
    the lambda sought; no solution comes with a Farkas certificate.
    """
    m = len(generators)
    if m == 0:
        if all(entry > 0 for entry in v.entries):
            return ((), v)
        return None
    n = m + 1
    strict = [unit_vector(n, m)] + [
        Vector(tuple(-g[i] for g in generators) + (v[i],)) for i in range(v.dim)
    ]
    result = lp.strict_homogeneous_solve(strict, nonneg=[unit_vector(n, k) for k in range(m)])
    if isinstance(result, lp.Infeasible):
        return None
    x0 = result.witness[m]
    lambdas = tuple(lam / x0 for lam in result.witness.entries[:m])
    residual = v - _combine(generators, lambdas)
    return (lambdas, residual)


def _combine(generators: Sequence[Vector], lambdas: Sequence[Fraction]) -> Vector:
    total = zero_vector(generators[0].dim)
    for g, lam in zip(generators, lambdas):
        total = total + g.scale(lam)
    return total


def lex_sign(values: Sequence[Fraction]) -> int:
    for value in values:
        if value > 0:
            return 1
        if value < 0:
            return -1
    return 0


def member(cone: DesirCone, v: Vector) -> bool:
    """Exact semantic membership per representation."""
    if v.dim != cone.space.dim:
        raise ValueError("dimension mismatch")
    if isinstance(cone, OpenDualCone):
        return all(p.eval(v) > 0 for p in cone.pieces)
    if isinstance(cone, LexCone):
        return lex_sign([level.eval(v) for level in cone.levels]) > 0
    if cone.space.background is Background.POINTWISE:
        return posi_member(list(cone.generators) + background_generators(cone.space), v)
    if posi_member(cone.generators, v):
        return True
    return _strict_residual_combination(cone.generators, v) is not None


def natural_extension(
    assessment: Sequence[Vector], space: OptionSpace
) -> tuple[PosiCone, ConsistencyReport]:
    """The coherent closure of an assessment, with a consistency report.

    The assessment is consistent iff its closure excludes 0, so only that
    question is solved; an inconsistent answer carries the checked
    combination that reaches 0.
    """
    cone = PosiCone(tuple(assessment), space)
    combination = _zero_membership_combination(cone)
    if combination is not None:
        lp.verified(verify_inconsistency_combination(combination), "inconsistency combination")
        return cone, ConsistencyReport(consistent=False, combination=combination)
    return cone, ConsistencyReport(consistent=True)


def _zero_membership_combination(
    cone: PosiCone,
) -> Optional[tuple[tuple[Vector, Fraction], ...]]:
    """An offending combination witnessing 0 in the cone, or None."""
    space = cone.space
    if space.background is Background.POINTWISE:
        generators = list(cone.generators) + background_generators(space)
        lambdas = _posi_combination(generators, zero_vector(space.dim))
        if lambdas is None:
            return None
        return tuple(
            (g, lam) for g, lam in zip(generators, lambdas) if lam != 0
        )
    lambdas = _posi_combination(cone.generators, zero_vector(space.dim))
    if lambdas is not None:
        return tuple(
            (g, lam) for g, lam in zip(cone.generators, lambdas) if lam != 0
        )
    residual = _strict_residual_combination(cone.generators, zero_vector(space.dim))
    if residual is None:
        return None
    lambdas, strict_part = residual
    combination = [
        (g, lam) for g, lam in zip(cone.generators, lambdas) if lam != 0
    ]
    combination.append((strict_part, Fraction(1)))
    return tuple(combination)


def strict_background_rows(space: OptionSpace) -> tuple[list[Vector], list[Vector]]:
    """Rows forcing a linear functional to be background-positive.

    Returns (strict rows, nonneg rows): pointwise needs every unit strictly
    positive; strict dominance needs nonnegative units plus a strictly positive
    value somewhere in the open orthant (the all-ones option suffices).
    """
    units = background_generators(space)
    if space.background is Background.POINTWISE:
        return units, []
    return [ones(space.dim)], units


def _separating_functional(cone: PosiCone) -> Optional[LinearF]:
    strict_bg, nonneg_bg = strict_background_rows(cone.space)
    result = lp.strict_homogeneous_solve(
        strict=list(cone.generators) + strict_bg, nonneg=nonneg_bg
    )
    if isinstance(result, lp.Infeasible):
        return None
    return LinearF(result.witness)


def is_coherent(cone: DesirCone) -> bool:
    """Axioms: 0 excluded, posi-closed (structural), background included."""
    space = cone.space
    if isinstance(cone, PosiCone):
        # Posi-closure and background inclusion hold by construction;
        # only the exclusion of 0 can fail.
        return _zero_membership_combination(cone) is None
    if isinstance(cone, OpenDualCone):
        # 0 is never a member (every piece evaluates to 0 there).
        return all(is_positive(p, space) for p in cone.pieces)
    # LexCone: 0 maps to the zero tuple, never lex-positive.
    if space.background is Background.POINTWISE:
        return all(
            lex_sign([level.eval(e) for level in cone.levels]) > 0
            for e in background_generators(space)
        )
    return _lex_strict_background_included(cone)


def _lex_strict_background_included(cone: LexCone) -> bool:
    """Is every strictly positive option lex-positive?

    A violation is a strictly positive u whose first nonvanishing level is
    negative, or whose levels all vanish.  Both are homogeneous, so u_i >= 1
    and "level <= -1" lose no generality.  One LP per candidate level.
    """
    dim = cone.space.dim
    m = len(cone.levels)
    for k in range(m + 1):
        rows: list[lp.Constraint] = []
        for i in range(dim):
            rows.append(lp.Constraint(unit_vector(dim, i), lp.GE, Fraction(1)))
        for level in cone.levels[:k]:
            rows.append(lp.Constraint(level.coeffs, lp.EQ, Fraction(0)))
        if k < m:
            rows.append(lp.Constraint(cone.levels[k].coeffs, lp.LE, Fraction(-1)))
        result = lp.solve(lp.LpProblem(dim, tuple(rows)))
        if isinstance(result, (lp.Feasible, lp.Optimal)):
            return False
    return True


@dataclass(frozen=True)
class MixingResult:
    """Tri-state answer: True, False with a two-option witness, or Unknown (None)."""

    status: Optional[bool]
    witness: Optional[tuple[Vector, Vector]] = None


def _positively_proportional(a: Vector, b: Vector) -> bool:
    i = next((j for j in range(a.dim) if a[j] != 0), None)
    if i is None:
        return b.is_zero()
    if b[i] == 0:
        return False
    factor = b[i] / a[i]
    return factor > 0 and b == a.scale(factor)


def is_mixing(cone: DesirCone) -> MixingResult:
    """Is the complement closed under positive linear combinations?

    A False answer carries a witness pair u, v outside the cone with u + v
    inside it.
    """
    if isinstance(cone, LexCone):
        # The complement (lex-nonpositive options) is closed under positive
        # combinations: lexicographic positivity is additive.
        return MixingResult(True)
    if isinstance(cone, OpenDualCone):
        return _open_dual_mixing(cone)
    return _posi_mixing(cone)


def _open_dual_mixing(cone: OpenDualCone) -> MixingResult:
    first = cone.pieces[0]
    offending = next(
        (p for p in cone.pieces[1:] if not _positively_proportional(first.coeffs, p.coeffs)),
        None,
    )
    if offending is None:
        # A single half-space: the complement is the closed opposite half-space.
        return MixingResult(True)
    # Look for u killed by the first piece, v killed by the other, u+v interior.
    d = cone.space.dim
    rows: list[lp.Constraint] = []

    def pair_row(u_part: Vector, v_part: Vector) -> Vector:
        return Vector(tuple(u_part.entries) + tuple(v_part.entries))

    zero = zero_vector(d)
    rows.append(lp.Constraint(pair_row(first.coeffs, zero), lp.LE, Fraction(0)))
    rows.append(lp.Constraint(pair_row(zero, offending.coeffs), lp.LE, Fraction(0)))
    for piece in cone.pieces:
        rows.append(lp.Constraint(pair_row(piece.coeffs, piece.coeffs), lp.GE, Fraction(1)))
    result = lp.solve(lp.LpProblem(2 * d, tuple(rows)))
    if not isinstance(result, lp.Feasible):
        return MixingResult(None)
    u = Vector(result.witness.entries[:d])
    v = Vector(result.witness.entries[d:])
    lp.verified(
        not member(cone, u) and not member(cone, v) and member(cone, u + v), "mixing witness"
    )
    return MixingResult(False, witness=(u, v))


def _posi_mixing(cone: PosiCone) -> MixingResult:
    space = cone.space
    if space.dim == 1:
        # The only coherent cone is the positive ray; its complement is the
        # nonpositive ray, which is posi-closed.
        return MixingResult(True)
    functional = _separating_functional(cone)
    if functional is None:
        return MixingResult(None)
    coeffs = functional.coeffs
    hull = list(cone.generators) + background_generators(space)
    for n in _kernel_candidates(coeffs):
        # n lies on the functional's kernel; when neither n nor -n is in the
        # cone's closed hull, pushing u_o far enough along +/-n leaves the cone
        # while u + v = 2 u_o stays inside.
        if posi_member(hull, n) or posi_member(hull, -n):
            continue
        step = Fraction(1)
        for _ in range(64):
            u = space.u_o + n.scale(step)
            v = space.u_o - n.scale(step)
            if not member(cone, u) and not member(cone, v):
                lp.verified(member(cone, u + v), "mixing witness")
                return MixingResult(False, witness=(u, v))
            step *= 2
    return MixingResult(None)


def _kernel_candidates(coeffs: Vector):
    dim = coeffs.dim
    for i in range(dim):
        if coeffs[i] == 0:
            continue
        for j in range(dim):
            if j != i:
                yield unit_vector(dim, i).scale(coeffs[j]) - unit_vector(dim, j).scale(coeffs[i])
