"""Sets of desirable options over an option space.

Three finite representations cover every cone the engine needs:

* :class:`PosiCone` -- finitely posi-generated cones (with the background cone
  folded in per the space's order);
* :class:`OpenDualCone` -- open cones cut out by finitely many strict linear
  inequalities;
* :class:`LexCone` -- lexicographic cones given by an ordered list of levels.

No single representation can express all three shapes (closed sectors, open
half-spaces, lexicographic cones), which is why all three exist.

Separation -- a background-positive linear functional strictly positive on
the cone -- is one strict homogeneous system (``separation_evidence``), with
rows per class.  The cone's own data answer it first where they can
(``_cone_separation``): the sum of a PosiCone's kept rays, the Farkas
certificate of a PosiCone whose closed hull is all of V from its kept
combination reaching -u_o, and the sum of an OpenDualCone's pieces or one
piece alone.  For an option v, the functional ``y + t f`` is built from the
cone's kept f and a functional y excluding v (``option_separation``).  Each
functional so found passes ``separates`` and each certificate
``lp.verify_infeasibility_certificate``; the LP solves only what they leave
undecided.  Per class:

* PosiCone: a functional is strictly positive on the cone iff it is strictly
  positive on the finitely many generators and background-positive.
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

Every separating functional, and every min-envelope of them in
:mod:`conechoice.choice`, is checked by one routine, ``separates``.

Mixing reads the same solve for a PosiCone: a separating functional shows
that a PosiCone of dimension 2 or more is not mixing, and Lambda_o at one
kernel direction (``hull_lambda_o``) turns it into a witness pair.

Lambda_o, sup{alpha : u - alpha u_o in D}, is for every cone class the min
of r(u) / r(u_o) over the generators r of the dual of the cone's closure
(``dual_generators``), evaluated by one routine (``hull_lambda_o``): an
open-dual cone's pieces, a lexicographic cone's first level, and a
PosiCone's primitive integer extreme rays of the dual of its closed hull.
Those rays are found once per cone object by the double-description
method, in integers, each checked where it is made to lie in that dual; a
dual with more than ``DD_RAY_CAP`` rays on the way keeps none.

A PosiCone answers Lambda_o, and membership of a nonzero option v, from
one record of v at every size (``_active_ray``): Lambda_o(v), a functional
r* of the dual attaining it, and a nonnegative combination of the
generators and units reaching ``v - Lambda_o(v) u_o``.  Below the cap r* is
the least-index kept ray attaining the min, and the combination runs over
the columns on which r* is zero (``_hull_combination``); past it, one LP
gives the value, its witness the combination, and its checked dual r*
(``_hull_lambda_o_lp``).  So Lambda_o is certified from both sides where
it is made: r* lies in the dual, which bounds it from above, and the
combination bounds it from below.  A ray the list missed makes that
combination impossible, and the answer is refused rather than given.
Membership is the sign of Lambda_o(v), with r* as the functional
excluding a non-member and a combination showing a member
(``_facet_membership``).  A hull that is all of V holds every nonzero
option, shown by one kept combination reaching -u_o (``_minus_u_o``): the
one the double description's empty ray list asks for, or an unbounded
LP's ray past the cap.  The same combination certifies that no functional
separates the cone (``_all_of_v_certificate``), and under strict dominance
it answers the second half of the v = 0 question (``_zero_combination``).
Below the cap the option-free separation is the sum of the rays when it
separates (``_cone_separation``).  Every positive combination the module
looks for -- ``posi_member``, the v = 0 question, and each combination
found from the rays -- comes from one routine, ``lp.positive_combination``:
an exact solve over a least-index basis of its columns (none for a zero
target), one LP over them only when that solve has a negative
coefficient, and a check by substitution.
``archimedean.lambda_o_functional`` is the one reader of the rays whose
list is not certified: each of its pieces lies in the dual, but no
combination shows that it misses no ray.

A cone object keeps what it learns, since it is frozen, in one store
(``_Cone.kept``): its option-free separation evidence (``separation_evidence``),
whose functional f is checked where it is made to be strictly positive on
the cone (``separates``), a PosiCone's hull dual, and, for a selection's
extension in :mod:`conechoice.choice`, its consistency.
Beside the store sits a record of the last option v the object was asked
about (``OptionRecord``): v's membership verdict, a PosiCone's functional
y excluding a non-member v (the active functional r*), Lambda_o(v) with r*
and its combination, and v's separation evidence.  Every entry is a
function of the cone and v alone, so no answer depends on what was asked
before.

Every Archimedean answer for an option -- separation, closure membership,
and an assessment's Archimedean membership -- comes from one routine,
``option_separation``, whose docstring states how f, membership and y decide
it, and why ``y + t f`` separates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence, Union

from . import lp
from .lp import Combination, combination_reaches
from .functional import NONPOSITIVE_AT_U_O, Functional, LinearF, is_positive, pieces_of
from .numeric import (
    Background,
    OptionSpace,
    Vector,
    integer_form,
    rank_of,
    row_kernel,
    unit_vector,
    zero_vector,
)


def background_generators(space: OptionSpace) -> list[Vector]:
    """Generators of the closure of the background cone: the unit vectors."""
    return [unit_vector(space.dim, i) for i in range(space.dim)]


@dataclass
class OptionRecord:
    """What a cone object has learnt about one option.

    ``member`` is the verdict of a PosiCone's membership question (None
    until one is asked; the other classes decide membership by evaluation).
    ``separation`` is the option's separation evidence, once some query has
    made it (``option_separation``).  For a PosiCone whose closed hull is
    not all of V, ``active`` is Lambda_o at the option and r*, and
    ``combination`` the checked terms reaching ``option - Lambda_o u_o``
    over the columns tight on r* (``_active_ray``): below ``DD_RAY_CAP`` r*
    is the least-index kept ray attaining Lambda_o and ``_hull_combination``
    finds the terms, and past it both come from one LP's checked dual and
    witness (``_hull_lambda_o_lp``).  Where Lambda_o is negative, r* is
    the checked functional nonnegative on every member and negative at the
    option that excludes it (``_excluding``).
    """

    option: Vector
    member: Optional[bool] = None
    separation: Union[LinearF, lp.Infeasible, None] = None
    active: Optional[tuple[Fraction, LinearF]] = None
    combination: Optional[Combination] = None


class _Cone:
    """What the three cone classes share: one store for what the object has
    learnt, and a record of the last option it was asked about."""

    def kept(self, key: str, solve: Optional[Callable[[Any], Any]] = None) -> Any:
        """The answer kept under key.  Without one, ``solve(self)`` is kept
        from then on, since the cone is frozen; with no solve, None."""
        answers = self.__dict__
        if key not in answers:
            if solve is None:
                return None
            answers[key] = solve(self)
        return answers[key]

    def record(self, v: Vector) -> OptionRecord:
        """The record of v: the kept one if v was the last option asked
        about, else a new empty one, which replaces it.  Every entry is a
        function of the cone and v alone, so which record is kept changes
        no answer."""
        record = self.__dict__.get("_record")
        if record is None or record.option != v:
            record = self.__dict__["_record"] = OptionRecord(v)
        return record


@dataclass(frozen=True)
class PosiCone(_Cone):
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
class OpenDualCone(_Cone):
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
class LexCone(_Cone):
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
    return (
        bool(combination)
        and any(coeff > 0 for _, coeff in combination)
        and combination_reaches(combination, zero_vector(combination[0][0].dim))
    )


def posi_member(generators: Sequence[Vector], v: Vector) -> bool:
    """Is v a positive linear combination of the generators: nonnegative
    coefficients, not all zero (``lp.positive_combination``)?"""
    return lp.positive_combination(generators, v, "positive combination") is not None


def _combine(vectors: Sequence[Vector], weights: Optional[Sequence[Fraction]] = None) -> Vector:
    """``sum_k weights[k] vectors[k]`` over a nonempty list, every weight 1
    when none are given."""
    columns = zip(*(v.entries for v in vectors))
    if weights is None:
        return Vector(tuple(map(sum, columns)))
    return Vector(tuple(sum(map(operator.mul, column, weights)) for column in columns))


def lex_sign(values: Sequence[Union[int, Fraction]]) -> int:
    """The sign of the first nonzero value (or sign), 0 if there is none."""
    for value in values:
        if value > 0:
            return 1
        if value < 0:
            return -1
    return 0


def member(cone: DesirCone, v: Vector) -> bool:
    """Exact semantic membership per representation.

    A PosiCone answers two kinds of option with no LP:

    * A background-positive v is a member.  Under pointwise dominance
      ``v = sum_i v_i e_i`` with every ``v_i >= 0`` and some ``v_i > 0``, a
      nonzero nonnegative combination of the unit vectors, which the
      semantic set folds in.  Under strict dominance v lies in the open
      orthant, which is part of the semantic set.  Neither needs the
      generators, so this holds for an incoherent cone too.
    * If a query has already solved the cone's kept separating functional f
      (member never solves it), ``f(v) <= 0`` answers False, since f is
      strictly positive on every member (``separates``).

    Any other nonzero option is decided by ``_facet_membership`` from the
    cone's record of v, the same at every size: Lambda_o(v), a functional r*
    of the hull dual attaining it, and a combination reaching
    ``v - Lambda_o(v) u_o`` (``_active_ray``).  They come from the kept rays
    of the hull dual (``dual_generators``, built here on the cone's first
    such question) below ``DD_RAY_CAP``, and from one LP past it.  v = 0,
    the consistency question, is ``_zero_combination``'s.  The verdict and
    the functional y excluding a non-member go into the cone's record of v,
    so a repeat, or a separation query on v, solves nothing.
    """
    if v.dim != cone.space.dim:
        raise ValueError("dimension mismatch")
    if isinstance(cone, OpenDualCone):
        return all(p.sign_at(v) > 0 for p in cone.pieces)
    if isinstance(cone, LexCone):
        return lex_sign([level.sign_at(v) for level in cone.levels]) > 0
    if cone.space.background_strictly_positive(v):
        return True
    f = cone.kept("separation")
    if isinstance(f, LinearF) and f.sign_at(v) <= 0:
        return False
    record = cone.record(v)
    if record.member is None:
        if v.is_zero():
            record.member = _zero_combination(cone) is not None
        else:
            record.member = _facet_membership(cone, record)
    return record.member


def _facet_membership(cone: PosiCone, record: OptionRecord) -> bool:
    """Membership of a nonzero v, the record's option, from the sign of
    Lambda_o(v) and the active functional r* in the dual H* of the closed
    hull H (``_active_ray``).  D lies in H, and H in the closure of D.

    * Lambda_o(v) < 0: False.  r* is negative at v, and it was checked
      where it was made (by the double description or by the LP's dual) to
      be nonnegative and nonnegative on the generators, so it is
      nonnegative on every member; the record's ``active`` keeps it.
    * Lambda_o(v) > 0: True, by the checked combination
      ``v = Lambda_o(v) u_o + sum_c lambda_c c`` over generators and units
      (``_hull_combination``).  Under strict dominance ``Lambda_o(v) u_o``
      plus the units' terms is the strictly positive residual.
    * Lambda_o(v) = 0 under pointwise dominance: True, by the same
      combination, which reaches v itself.
    * Lambda_o(v) = 0 under strict dominance: v is on the boundary of H,
      where no strictly positive residual can occur, as
      ``r*(p + s) >= r*(s) > 0`` for p in H and s strictly positive.  So v
      is a member iff v is in posi(generators), and a combination reaching v
      can use only the generators tight on r*, since ``r*(v) = 0`` and r* is
      nonnegative on every generator.  ``lp.positive_combination`` over
      those decides, by its exact solve or, when that has a negative
      coefficient, one LP, and its checked combination shows a member.  A
      non-member has no excluding functional here: neither solve gives one
      nonnegative on every generator.
    * No active functional, so H is all of V: True, by the kept combination
      reaching ``-u_o = p + o``, p over the generators and o >= 0 over the
      units (``_minus_u_o``).  Under pointwise dominance v is a nonzero
      member of H.  Under strict dominance p is nonzero, as -u_o is not
      nonnegative, and ``v = t p + (v + t u_o + t o)``, whose second term
      is strictly positive once t > 0 is large enough.
    """
    active = _active_ray(cone, record)
    if active is None:
        return True
    lam, ray = active
    if lam < 0:
        return False
    if lam > 0 or cone.space.background is Background.POINTWISE:
        _hull_combination(cone, record)
        return True
    tight = [g for g in cone.generators if ray.sign_at(g) == 0]
    return lp.positive_combination(tight, record.option, "boundary combination") is not None


def _zero_combination(cone: PosiCone) -> Optional[Combination]:
    """The nonzero (vector, coefficient) terms of a combination of members
    reaching 0, or None: is 0 in the cone?  This is the consistency
    question, the one membership question no record of a nonzero option
    answers.

    Under pointwise dominance it is one positive combination of the
    generators and units reaching 0 (``lp.positive_combination``, one LP,
    its terms checked there).  Under strict dominance 0 is a member iff it
    is a positive combination of the generators (one LP over them), or
    ``0 = p + s`` with p in posi(generators) and s strictly positive.  The
    second holds iff -u_o is in the closed hull H (``_minus_u_o``):
    ``-u_o = p + o`` with o >= 0 over the units gives the residual
    ``s = u_o + o = -p``, which enters with coefficient 1, and conversely
    ``-u_o = t p + (t s - u_o)``, whose second term is nonnegative once t is
    large.  A unit that is also a generator counts as a generator in p.
    """
    pointwise = cone.space.background is Background.POINTWISE
    columns = _hull_columns(cone) if pointwise else list(cone.generators)
    combination = lp.positive_combination(columns, zero_vector(cone.space.dim), "zero combination")
    if combination is not None:
        return combination
    # With no generators H is the orthant, which misses -u_o.
    minus_u_o = None if pointwise or not columns else _minus_u_o(cone)
    if minus_u_o is None:
        return None
    p = tuple((g, a) for g, a in minus_u_o if g in cone.generators)
    vectors, weights = zip(*p)
    return p + ((-_combine(vectors, weights), Fraction(1)),)


def natural_extension(
    assessment: Sequence[Vector], space: OptionSpace
) -> tuple[PosiCone, ConsistencyReport]:
    """The coherent closure of an assessment, with a consistency report.

    The assessment is consistent iff its closure excludes 0, so only that
    question is solved; an inconsistent answer carries the checked
    combination that reaches 0.
    """
    cone = PosiCone(tuple(assessment), space)
    combination = _zero_combination(cone)
    if combination is not None:
        lp.verified(verify_inconsistency_combination(combination), "inconsistency combination")
        return cone, ConsistencyReport(consistent=False, combination=combination)
    return cone, ConsistencyReport(consistent=True)


def strict_background_rows(
    space: OptionSpace,
) -> tuple[tuple[lp.Constraint, ...], tuple[lp.Constraint, ...]]:
    """Rows forcing a linear functional to be background-positive, shared by
    every space of one dimension and background order.

    Returns (strict rows, nonneg rows): pointwise needs every unit strictly
    positive; strict dominance needs nonnegative units plus a strictly positive
    value somewhere in the open orthant (the all-ones option suffices).
    """
    if space.background is Background.POINTWISE:
        return lp.strict_unit_rows(space.dim), ()
    return (lp.strict_sum_row(space.dim),), lp.nonneg_rows(space.dim)


def is_coherent(cone: DesirCone) -> bool:
    """Axioms: 0 excluded, posi-closed (structural), background included."""
    space = cone.space
    if isinstance(cone, PosiCone):
        # Posi-closure and background inclusion hold by construction;
        # only the exclusion of 0 can fail.
        return _zero_combination(cone) is None
    if isinstance(cone, OpenDualCone):
        # 0 is never a member (every piece evaluates to 0 there).
        return all(is_positive(p, space) for p in cone.pieces)
    # LexCone: 0 maps to the zero tuple, never lex-positive.
    if space.background is Background.POINTWISE:
        return all(
            lex_sign([level.sign_at(e) for level in cone.levels]) > 0
            for e in background_generators(space)
        )
    # Strict dominance: a negative first-level coefficient makes some strictly
    # positive option negative there; a nonnegative, nonzero first level
    # (the levels are independent) is positive on every such option.
    return is_positive(cone.levels[0], space)


def separates(f: Functional, cone: DesirCone, options: Sequence[Vector] = ()) -> bool:
    """Is f background-positive, strictly positive on every generator of a
    PosiCone, and nonpositive at every option given?  The one separation
    check, by substitution, for a linear f or a min-envelope of linear pieces.

    For a PosiCone this puts f strictly positive on every member, so that
    ``f(v) <= 0`` alone excludes v.  A member is a nonzero nonnegative
    combination of generators and background-positive options (the unit
    vectors under pointwise dominance, a strictly positive option under
    strict dominance), f is strictly positive on each of them, and f is
    superadditive and positively homogeneous.  A LexCone passes only with one
    level and each piece of f a positive multiple of it: with more levels,
    some member lies on the first level's kernel, where such an f is zero.  For
    an OpenDualCone, f is positive on the cone when each piece is a
    nonnegative combination of the cone's pieces; the separation system's
    functional is one by its LP rows, and ``archimedean.verify_separation_witness``
    tests one from elsewhere with an LP.
    """
    if not is_positive(f, cone.space):
        return False
    if isinstance(cone, PosiCone) and not all(f.sign_at(g) > 0 for g in cone.generators):
        return False
    if isinstance(cone, LexCone) and not (
        len(cone.levels) == 1
        and all(_positively_proportional(cone.levels[0].coeffs, p.coeffs) for p in pieces_of(f))
    ):
        return False
    return all(f.sign_at(v) <= 0 for v in options)


def _separation_rows(
    cone: DesirCone, options: Sequence[Vector] = ()
) -> tuple[list[lp.Constraint], Callable[[Vector], LinearF]]:
    """The rows of the separation system -- strict rows, then the row
    ``f(v) <= 0`` of each option v, then nonneg rows -- plus the map taking an
    LP witness back to a linear functional on the option space."""
    strict_bg, nonneg_bg = strict_background_rows(cone.space)
    if isinstance(cone, OpenDualCone):
        # The LP runs over the weights mu of f = sum_j mu_j piece_j, so the
        # row of f(u) is the pieces' values at u.
        pieces = [p.coeffs for p in cone.pieces]
        n = len(pieces)

        def row(u: Vector) -> Vector:
            return Vector(tuple(p.dot(u) for p in pieces))

        def to_functional(mu: Vector) -> LinearF:
            return LinearF(_combine(pieces, mu.entries))

        strict = [lp.strict_sum_row(n)] + [lp.strict_row(row(c.coeffs)) for c in strict_bg]
        nonneg = [*lp.nonneg_rows(n)]
        nonneg += [lp.Constraint(row(c.coeffs), lp.GE, Fraction(0)) for c in nonneg_bg]
    else:
        row, to_functional = (lambda u: u), LinearF
        nonneg = [*nonneg_bg]
        if isinstance(cone, PosiCone):
            strict = [lp.strict_row(g) for g in cone.generators] + [*strict_bg]
        else:  # LexCone
            first = cone.levels[0].coeffs
            strict = [lp.strict_row(first), *strict_bg]
            for k in row_kernel(first):
                for ray in (k, -k):
                    if member(cone, ray):
                        strict.append(lp.strict_row(ray))
                    else:
                        nonneg.append(lp.Constraint(ray, lp.GE, Fraction(0)))
    option_rows = [lp.Constraint(row(v), lp.LE, Fraction(0)) for v in options]
    return strict + option_rows + nonneg, to_functional


def separation_evidence(cone: DesirCone) -> Union[LinearF, lp.Infeasible]:
    """The option-free answer of the separation system behind every
    Archimedean answer.

    Returns a background-positive linear functional strictly positive on the
    cone, re-verified before it is returned, or the ``lp.Infeasible`` whose
    Farkas certificate, checked too, shows that no such functional exists.
    It is found once per cone object and then kept (``_Cone.kept``): from
    the cone's own data where they decide it (``_cone_separation``), and
    otherwise by one solve.  The system for an option v adds the row
    ``f(v) <= 0`` and is solved only by ``option_separation``, where no
    ``y + t f`` separated v.
    """
    return cone.kept("separation", _cone_separation)


def _cone_separation(cone: DesirCone) -> Union[LinearF, lp.Infeasible]:
    """The option-free answer from the cone's own data where that decides
    it, else the solve of the option-free system.

    * A PosiCone with kept rays: the sum of the rays, when ``separates``
      passes it.  The rays generate H*, the dual of the closed hull, so a
      functional f that separates is ``sum_r mu_r r`` with every
      ``mu_r >= 0``.  Where f is positive, at a generator or a unit, so is
      some ray, and so is the sum of the rays, which is nonnegative
      everywhere on H: it separates whenever any functional does.
    * A PosiCone whose closed hull is all of V (no ray): no functional
      separates, and the kept combination reaching -u_o gives the Farkas
      certificate (``_all_of_v_certificate``).
    * An OpenDualCone: a functional separates iff it is a background-positive
      nonnegative combination of the pieces, some weight positive (Farkas:
      the LP runs over the weights).  The sum of the pieces, then each piece
      alone, is tried, and the first that ``separates`` passes is the answer.

    A functional found so is scaled to the LP's normalisation: its least
    value on the system's strict rows is 1, an open-dual cone's sum of
    weights counted among them.  The LP is left for a LexCone, for cones
    past ``DD_RAY_CAP``, and for open-dual cones that no candidate decides,
    every ``lp.Infeasible`` one among them, whose certificate only it gives.
    """
    rays = _kept_rays(cone) if isinstance(cone, PosiCone) else None
    if rays == ():
        return _all_of_v_certificate(cone)
    strict = [c.coeffs for c in strict_background_rows(cone.space)[0]]
    # (functional, the strict rows read on the option space, the sum of weights)
    candidates: list[tuple[Vector, Sequence[Vector], tuple[Fraction, ...]]] = []
    if rays:
        candidates.append((_combine([r.coeffs for r in rays]), [*cone.generators, *strict], ()))
    elif isinstance(cone, OpenDualCone):
        pieces = [p.coeffs for p in cone.pieces]
        candidates.append((_combine(pieces), strict, (Fraction(len(pieces)),)))
        if len(pieces) > 1:
            candidates += [(p, strict, (Fraction(1),)) for p in pieces]
    for f, rows, weights in candidates:
        if separates(LinearF(f), cone):
            least = min([*(s.dot(f) for s in rows), *weights])
            return LinearF(f.scale(1 / least))
    return _solve_separation(cone)


def _all_of_v_certificate(cone: PosiCone) -> lp.Infeasible:
    """The Farkas certificate of the option-free separation system of a
    PosiCone whose closed hull is all of V, read from the kept combination
    ``-u_o = sum_k lam_k g_k + sum_i o_i e_i`` (``_all_of_v``) and checked
    against the system's rows (``_separation_rows``).

    The generator rows ``f(g_k) >= 1`` take lam_k and the unit rows
    ``f(e_i) >= 1`` (pointwise) or ``f(e_i) >= 0`` (strict) take
    ``o_i + u_o[i]``; under strict dominance the sum row takes 0.  The
    rows' left sides then cancel, ``sum lam_k g_k + sum (o_i + u_o[i]) e_i
    = -u_o + u_o = 0``, while their right sides sum to a positive number:
    under pointwise dominance each ``u_o[i] > 0`` counts, and under strict
    dominance some lam_k is positive, as -u_o is not nonnegative.
    """
    space = cone.space
    weights: dict[Vector, Fraction] = {}
    for column, a in _all_of_v(cone):
        weights[column] = weights.get(column, 0) + a
    # A column repeated, among the generators or as a unit, takes its
    # weight at its first row: the left sides still cancel, and the right
    # sides' sum can only grow.
    certificate = [weights.pop(g, Fraction(0)) for g in cone.generators]
    if space.background is Background.STRICT:
        certificate.append(Fraction(0))
    certificate += [weights.pop(e, 0) + u for e, u in zip(background_generators(space), space.u_o)]
    rows = _separation_rows(cone)[0]
    problem = lp.LpProblem(space.dim, tuple(rows))
    lp.verified(lp.verify_infeasibility_certificate(problem, certificate), "all-of-V certificate")
    return lp.Infeasible(tuple(certificate))


def _solve_separation(
    cone: DesirCone, options: Sequence[Vector] = ()
) -> Union[LinearF, lp.Infeasible]:
    rows, to_functional = _separation_rows(cone, options)
    # Every separation system opens with a strict row.
    result = lp.solve(lp.LpProblem(rows[0].coeffs.dim, tuple(rows)))
    if isinstance(result, lp.Infeasible):
        return result
    functional = to_functional(result.witness)
    lp.verified(separates(functional, cone, options), "separation witness")
    return functional


def option_separation(cone: DesirCone, v: Vector) -> Optional[LinearF]:
    """A background-positive linear functional strictly positive on the cone
    and nonpositive at v, or None when there is none: the one routine behind
    ``archimedean.separate``, ``archimedean.archimedean_closure_member`` and
    ``choice.archimedean_member_evidence``.

    The cone's kept functional f, ``separation_evidence(cone)``, is read
    first; it is checked where it is made (``separates``) to be
    background-positive and strictly positive on every member.

    * If the cone has none, no functional separates v either: the system for
      v only adds a row to the option-free one.
    * If ``f(v) <= 0``, f separates v, decided by one dot product.
    * A background-positive v, or a member, has none: every
      background-positive functional is positive at the one, and every
      functional strictly positive on the cone at the other.  This needs no
      LP for v: membership is an evaluation for an OpenDualCone or a
      LexCone, and a PosiCone keeps its verdict in its record of v.
    * Otherwise v is a non-member.  Where there is a functional y
      nonnegative on every member and nonpositive at v (``_excluding``),

          f' = y + t f,  t = -y(v) / f(v)

      is strictly positive on every member and zero at v: ``y >= 0`` and
      ``f > 0`` on every member, ``y(v) <= 0 < f(v)``, so ``t >= 0``, and
      ``f'(v) = y(v) + t f(v) = 0``.

      - A PosiCone's y is the record's active functional r* of the hull
        dual, at every size: nonnegative, nonnegative on the generators and
        negative at every non-member off the closed hull
        (``_facet_membership``).  So f' is background-positive too
        and separates v with no LP.
      - An open-dual cone's y is the first piece p with ``p(v) <= 0``, one
        that v's non-membership shows.  f' is a nonnegative combination of
        the pieces, as f is, but p need not be background-positive, so f'
        may fail ``separates``.

      Only where no functional y qualified (a strict-dominance non-member
      on the closed hull's boundary), or an open-dual f' failed, is the
      system for v solved.  A LexCone never gets this far: its f is a
      positive multiple of its one level, so ``f(v) > 0`` makes v a member.

    A functional made here is checked where it is made (``separates``) and
    kept in the record of v, so membership, the closure and separation of
    one option solve each system once.  Every functional returned excludes
    v by a check already made: a PosiCone's f is strictly positive on every
    member, so ``f(v) <= 0`` excludes v, and a functional made for v passed
    ``separates`` at v after v's membership came out False.  Only the kept f
    of an open-dual or lexicographic cone, whose ``separates`` check reads
    its rows rather than its members, is checked here, by membership.
    """
    if v.dim != cone.space.dim:
        raise ValueError("dimension mismatch")
    f = separation_evidence(cone)
    if isinstance(f, lp.Infeasible):
        return None
    if f.sign_at(v) <= 0:
        if not isinstance(cone, PosiCone):
            lp.verified(not member(cone, v), "member exclusion")
        return f
    if cone.space.background_strictly_positive(v) or member(cone, v):
        return None
    record = cone.record(v)
    if record.separation is None:
        y = _excluding(cone, record)
        made = None
        if y is not None:
            t = -y.eval(v) / f.eval(v)
            made = LinearF(y.coeffs + f.coeffs.scale(t))
            if not separates(made, cone, (v,)):
                # Only an open-dual piece may leave y + t f not background-positive.
                lp.verified(isinstance(cone, OpenDualCone), "separation witness")
                made = None
        record.separation = _solve_separation(cone, (v,)) if made is None else made
    evidence = record.separation
    return None if isinstance(evidence, lp.Infeasible) else evidence


@dataclass(frozen=True)
class MixingResult:
    """Tri-state answer: True, False with a two-option witness, or Unknown (None)."""

    status: Optional[bool]
    witness: Optional[tuple[Vector, Vector]] = None


def _excluding(cone: DesirCone, record: OptionRecord) -> Optional[LinearF]:
    """A functional y nonnegative on every member and negative or zero at
    the record's option v, a non-member, for ``option_separation``'s
    ``y + t f``: the first open-dual piece nonpositive at v, else a
    PosiCone's active functional r* where Lambda_o(v) < 0, and None on the
    boundary of the closed hull (``_facet_membership``; a LexCone never
    asks)."""
    if isinstance(cone, OpenDualCone):
        return next(p for p in cone.pieces if p.sign_at(record.option) <= 0)
    lam, ray = record.active
    return ray if lam < 0 else None


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
    inside it, checked here by membership.  Unknown is left only for a
    PosiCone of dimension at least 2 that no functional separates.
    """
    if isinstance(cone, LexCone):
        # The complement (lex-nonpositive options) is closed under positive
        # combinations: lexicographic positivity is additive.
        return MixingResult(True)
    if isinstance(cone, OpenDualCone):
        first = cone.pieces[0]
        offending = next(
            (p for p in cone.pieces[1:] if not _positively_proportional(first.coeffs, p.coeffs)),
            None,
        )
        if offending is None:
            # A single half-space: the complement is the closed opposite half-space.
            return MixingResult(True)
        pair = _open_dual_mixing(cone, first, offending)
    elif cone.space.dim == 1:
        # The only coherent cone is the positive ray; its complement is the
        # nonpositive ray, which is posi-closed.
        return MixingResult(True)
    else:
        pair = _posi_mixing(cone)
    if pair is None:
        return MixingResult(None)
    u, v = pair
    lp.verified(
        not member(cone, u) and not member(cone, v) and member(cone, u + v), "mixing witness"
    )
    return MixingResult(False, witness=pair)


def _open_dual_mixing(
    cone: OpenDualCone, first: LinearF, offending: LinearF
) -> Optional[tuple[Vector, Vector]]:
    """u killed by the first piece, v by a piece not proportional to it, u + v
    strictly inside every piece; None when the LP finds no such pair."""
    d = cone.space.dim

    def pair_row(u_part: Vector, v_part: Vector) -> Vector:
        return Vector(tuple(u_part.entries) + tuple(v_part.entries))

    zero = zero_vector(d)
    rows: list[lp.Constraint] = []
    rows.append(lp.Constraint(pair_row(first.coeffs, zero), lp.LE, Fraction(0)))
    rows.append(lp.Constraint(pair_row(zero, offending.coeffs), lp.LE, Fraction(0)))
    for piece in cone.pieces:
        rows.append(lp.Constraint(pair_row(piece.coeffs, piece.coeffs), lp.GE, Fraction(1)))
    result = lp.solve(lp.LpProblem(2 * d, tuple(rows)))
    if not isinstance(result, lp.Feasible):
        return None
    return Vector(result.witness.entries[:d]), Vector(result.witness.entries[d:])


def _posi_mixing(cone: PosiCone) -> Optional[tuple[Vector, Vector]]:
    """The non-mixing pair built from a separating functional f, or None without one.

    Take the first i with f_i != 0 (so f_i > 0), another index j and the
    kernel direction n = f_j e_i - f_i e_j.  The closed hull
    H = posi(generators plus units) meets ker f only in the nonnegative
    orthant and n_j < 0, so n is not in H; H is pointed, so
    lambda_o(n) < 0 is finite.  With delta = -lambda_o(n)/2, u = n + delta u_o
    is outside H, v = -n is outside the cone (f(v) = 0), and u + v = delta u_o
    is inside.
    """
    functional = separation_evidence(cone)
    if isinstance(functional, lp.Infeasible):
        return None
    f = functional.coeffs
    d = f.dim
    i = next(k for k in range(d) if f[k] != 0)
    j = 1 if i == 0 else 0
    n = unit_vector(d, i).scale(f[j]) - unit_vector(d, j).scale(f[i])
    delta = -hull_lambda_o(cone, n) / 2
    return n + cone.space.u_o.scale(delta), -n


# The double description's budget on exponential work: a PosiCone whose ray
# list grows past this many rays keeps no description, and its record of an
# option comes from one LP (``_hull_lambda_o_lp``).  Timed on random cones
# in dims 2-8, a description within it
# cost at most about one LP solve in the median, and past it up to 13.  It
# only bounds exponential work: no benchmark workload reaches it.
DD_RAY_CAP = 64

_ALL_OF_V = "lambda_o is +infinity: the closed hull of the cone is all of V"


def dual_generators(cone: DesirCone) -> Optional[tuple[LinearF, ...]]:
    """The generators r of the dual of the cone's closure, over which
    Lambda_o is the min of r(u) / r(u_o) (``hull_lambda_o``); None past
    ``DD_RAY_CAP``.

    * An open-dual cone's are its pieces: u - alpha u_o is a member iff
      alpha < piece(u) / piece(u_o) for every piece, each positive at u_o.
    * A lexicographic cone's is its first level: u - alpha u_o is a member
      when that level is positive there, and not when it is negative.
    * A PosiCone's are the extreme rays of the dual of its closed hull, as
      primitive integer functionals (``_kept_rays``).  The closed hull is
      H = posi(generators plus units) under both background orders, and its
      dual H* = {f : f >= 0, f(g) >= 0 for every generator g} lies in the
      nonnegative orthant, so it is pointed and is the positive hull of its
      extreme rays: the facet normals of H.  Since H is closed, u is in H
      iff r(u) >= 0 for every extreme ray r, and so

          Lambda_o(u) = sup{alpha : u - alpha u_o in H} = min_r r(u) / r(u_o),

      with r(u_o) > 0, as r is nonnegative and nonzero and u_o is strictly
      positive.  No ray, H* = {0}, means H is all of V, where Lambda_o is
      +infinity: that raises ``ValueError``, once the checked combination
      reaching -u_o (``_all_of_v``) confirms it.  Each ray is checked to lie
      in H*, so the min over them is at least Lambda_o(u).  That the list
      misses no ray is checked at each answer the cone module reads from it,
      by the combination that reaches ``u - Lambda_o(u) u_o``
      (``_hull_combination``); it is not checked for
      ``archimedean.lambda_o_functional``, which returns the rays themselves
      as its envelope's pieces.
    """
    if isinstance(cone, OpenDualCone):
        return cone.pieces
    if isinstance(cone, LexCone):
        return cone.levels[:1]
    rays = _kept_rays(cone)
    if rays == ():
        _all_of_v(cone)
        raise ValueError(_ALL_OF_V)
    return rays


def _kept_rays(cone: PosiCone) -> Optional[tuple[LinearF, ...]]:
    """The extreme rays of H* (``dual_generators``), found on first need and
    kept on the cone under "hull_dual": None past ``DD_RAY_CAP``, and ()
    when the closed hull is all of V."""
    return cone.kept("hull_dual", _double_description)


def _minus_u_o(cone: PosiCone) -> Optional[Combination]:
    """Is -u_o in the closed hull H?  A checked combination of the
    generators and units reaching -u_o, or None: ``lp.positive_combination``
    over ``_hull_columns``, at most one LP per cone object, kept under
    "all_of_v", where an unbounded Lambda_o LP past ``DD_RAY_CAP`` keeps its
    ray's combination too (``_hull_lambda_o_lp``).  H holds the nonnegative
    orthant, so -u_o is in H iff H is all of V: ``u = (u + t u_o) + t
    (-u_o)`` is in H for every u, once t makes ``u + t u_o`` nonnegative."""
    return cone.kept("all_of_v", lambda c: lp.positive_combination(
        _hull_columns(c), -c.space.u_o, "all-of-V combination"
    ))


def _all_of_v(cone: PosiCone) -> Combination:
    """The combination reaching -u_o (``_minus_u_o``), the evidence that H
    is all of V where the double description kept no ray."""
    combination = _minus_u_o(cone)
    lp.verified(combination is not None, "all-of-V combination")
    return combination


def _hull_columns(cone: PosiCone) -> list[Vector]:
    """The generators of the closed hull H: the cone's, then the units."""
    return [*cone.generators, *background_generators(cone.space)]


def _double_description(cone: PosiCone) -> Optional[tuple[LinearF, ...]]:
    """H*'s extreme rays by the double-description method (Motzkin, Raiffa,
    Thompson and Thrall 1953; Fukuda and Prodon 1996).

    It starts from the orthant, whose extreme rays are the units, and adds
    one row ``f(g) >= 0`` per distinct nonzero generator g.  Each ray is a
    primitive integer vector with the set of rows it is tight on as a
    bitmask, the units' rows being bits 0..d-1.  A row keeps the rays on
    which it is nonnegative, and each adjacent pair of a positive ray p and a
    negative ray n gives the new ray ``g(p) n - g(n) p``, tight on the row
    and on the rows both are tight on.  The pair is adjacent iff at least
    d - 2 rows are tight on both and no other ray is tight on all of them
    (the combinatorial test: every ray kept is extreme, and the cone is
    pointed).  Each ray is checked where it is made to lie in H*, by
    substitution (``_in_dual``).  The ray list starts with d rays, so a
    space of more than ``DD_RAY_CAP`` dimensions keeps no description either.
    """
    d = cone.space.dim
    if d > DD_RAY_CAP:
        return None
    generators = [integer_form(g.entries)[1] for g in cone.generators]
    rows = list(dict.fromkeys(_primitive(g) for g in generators if any(g)))
    rays = [(tuple(int(i == j) for j in range(d)), ((1 << d) - 1) ^ (1 << i)) for i in range(d)]
    for k, row in enumerate(rows):
        bit = 1 << (d + k)
        values = [sum(map(operator.mul, row, ray)) for ray, _ in rays]
        kept = [(ray, tight | bit if value == 0 else tight)
                for (ray, tight), value in zip(rays, values) if value >= 0]
        positive = [(ray, tight, value) for (ray, tight), value in zip(rays, values) if value > 0]
        for (n, n_tight), n_value in zip(rays, values):
            if n_value >= 0:
                continue
            for p, p_tight, p_value in positive:
                common = p_tight & n_tight
                if common.bit_count() < d - 2 or any(
                    tight & common == common and ray is not p and ray is not n
                    for ray, tight in rays
                ):
                    continue
                kept.append((_primitive([p_value * a - n_value * b for a, b in zip(n, p)]),
                             common | bit))
        if len(kept) > DD_RAY_CAP:
            return None
        rays = kept
    lp.verified(all(_in_dual(ray, generators) for ray, _ in rays), "dual ray")
    return tuple(LinearF(Vector(tuple(map(Fraction, ray)))) for ray, _ in rays)


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*ints)
    return tuple(a // g for a in ints)


def _in_dual(ray: Sequence[int], generators: Sequence[Sequence[int]]) -> bool:
    """Is the integer ray in H*?  By substitution: it is nonnegative, and
    nonnegative at every generator (each given as a positive multiple, in
    integers).  That it is extreme is not checked: a ray of H* that is not
    extreme changes no min, and every answer the cone module reads from the
    rays is certified by a combination (``_hull_combination``)."""
    return all(a >= 0 for a in ray) and all(sum(map(operator.mul, g, ray)) >= 0 for g in generators)


def hull_lambda_o(cone: DesirCone, u: Vector) -> Fraction:
    """Lambda_o(u) = sup{alpha : u - alpha * u_o in the cone}, for every
    cone class: the min of r(u) / r(u_o) over the cone's ``dual_generators``
    (``_least_ratio``).

    A PosiCone's value is its record of u at every size (``_active_ray``),
    certified from both sides: the active functional r* lies in the dual,
    and a checked combination reaches ``u - Lambda_o(u) u_o``
    (``_hull_combination``).  Below ``DD_RAY_CAP`` they come from the kept
    rays, past it from one LP whose optimum and dual are checked
    (``_hull_lambda_o_lp``).  A generator nonpositive at u_o, an open-dual
    piece or a first level, raises ``ValueError``, as does a PosiCone whose
    closed hull is all of V.
    """
    if u.dim != cone.space.dim:
        raise ValueError("dimension mismatch")
    if isinstance(cone, PosiCone):
        record = cone.record(u)
        active = _active_ray(cone, record)
        if active is None:
            raise ValueError(_ALL_OF_V)
        _hull_combination(cone, record)
        return active[0]
    return _least_ratio(dual_generators(cone), u, cone.space.u_o)[0]


def _least_ratio(
    generators: Sequence[LinearF], u: Vector, u_o: Vector
) -> tuple[Fraction, LinearF]:
    """The min of r(u) / r(u_o) over the generators, and the least-index r
    attaining it.  Each r(u) and r(u_o) is read in integers
    (``Vector.dot_ratio``) and the ratios are compared by cross-multiplying,
    so one Fraction is built.  A generator nonpositive at u_o raises
    ``ValueError``."""
    best_num, best_den, best = None, 1, None
    for r in generators:
        num, den = r.coeffs.dot_ratio(u)
        at_u_o, den_o = r.coeffs.dot_ratio(u_o)
        if at_u_o <= 0:
            raise ValueError(NONPOSITIVE_AT_U_O)
        # r(u) / r(u_o) = (num den_o) / (den at_u_o), over a positive denominator.
        num, den = num * den_o, den * at_u_o
        if best_num is None or num * best_den < best_num * den:
            best_num, best_den, best = num, den, r
    return Fraction(best_num, best_den), best


def _active_ray(cone: PosiCone, record: OptionRecord) -> Optional[tuple[Fraction, LinearF]]:
    """Lambda_o at the record's option u and a functional r* in H* with
    ``r*(u) / r*(u_o)`` equal to it, kept in the record; None when the
    closed hull H is all of V, shown by the kept combination reaching -u_o
    (``_minus_u_o``).

    Below ``DD_RAY_CAP`` r* is the least-index kept ray attaining the min of
    ``r(u) / r(u_o)``.  Each ray was checked to lie in H*, so this is an
    upper bound on Lambda_o, and ``_hull_combination`` gives the lower one.
    Past the cap one LP gives the value, r* and the combination, each
    checked by the LP (``_hull_lambda_o_lp``).  A cone whose hull is all of
    V, once known, solves nothing more.
    """
    if record.active is None and cone.kept("all_of_v") is None:
        rays = _kept_rays(cone)
        if rays is None:
            _hull_lambda_o_lp(cone, record)
        elif rays:
            record.active = _least_ratio(rays, record.option, cone.space.u_o)
        else:
            _all_of_v(cone)
    return record.active


def _hull_combination(cone: PosiCone, record: OptionRecord) -> Combination:
    """The nonnegative combination of the generators and units tight on the
    active ray r* that reaches ``w = u - Lambda u_o``, u the record's option
    and Lambda its ``_active_ray`` value: the LP's witness past
    ``DD_RAY_CAP``, and below it found and checked by
    ``lp.positive_combination``, and kept in the record.

    With r* in H*, ``r*(u - alpha u_o) >= 0`` bounds every alpha with
    ``u - alpha u_o`` in H by Lambda; the combination puts w in H, so
    Lambda_o(u) = Lambda exactly.  Where w is in H, any combination reaching
    it uses only columns on which r* is zero, as ``r*(w) = 0`` and r* is
    nonnegative on every column, so the search runs over those alone.  w =
    0 is reached by the empty combination, which this is the one caller to
    accept: the search asks for a nonzero one.  A ray that the kept list
    misses makes Lambda too large and w fall outside H, so no combination
    exists and ``lp.verified`` refuses to answer.
    """
    if record.combination is None:
        lam, ray = record.active
        w = record.option - cone.space.u_o.scale(lam)
        tight = [c for c in _hull_columns(cone) if ray.sign_at(c) == 0]
        combination = () if w.is_zero() else lp.positive_combination(
            tight, w, "Lambda_o combination"
        )
        lp.verified(combination is not None, "Lambda_o combination")
        record.combination = combination
    return record.combination


def _hull_lambda_o_lp(cone: PosiCone, record: OptionRecord) -> None:
    """Lambda_o at the record's option u past ``DD_RAY_CAP``, as one LP over
    the hull columns c: max alpha with ``u = sum_c lambda_c c + alpha u_o``
    and lambda >= 0.

    An optimum fills the record as the kept rays do below the cap.  Its
    value is Lambda_o(u), and its witness's terms are the combination
    reaching ``u - Lambda_o(u) u_o``.  Its dual's multipliers of the d
    equality rows are r*: the dual, checked by ``lp.verify_optimality``,
    weighs each sign row ``lambda_c >= 0`` by ``r*(c) >= 0``, so r* lies in
    H*, and it combines the rows into ``alpha <= Lambda_o(u)``, so
    ``r*(u_o) = 1`` and ``r*(u) = Lambda_o(u)``.  An unbounded LP's checked
    ray ``(lambda', alpha')`` has ``alpha' > 0`` and ``sum_c lambda'_c c =
    -alpha' u_o``: its terms over alpha' reach -u_o, so H is all of V, and
    they are kept as ``_minus_u_o``'s combination.
    """
    u_o = cone.space.u_o
    hull = _hull_columns(cone)
    n = len(hull) + 1  # lambda_c for each column c, then alpha
    rows = lp.combination_rows(hull + [u_o], record.option)
    rows += lp.nonneg_rows(n)[:-1]
    result = lp.solve(lp.LpProblem(n, tuple(rows), lp.Objective("max", unit_vector(n, n - 1))))
    if isinstance(result, lp.Optimal):
        record.active = result.value, LinearF(Vector(result.dual[: u_o.dim]))
        record.combination = lp.nonzero_terms(hull, result.witness)
    else:
        ray = result.ray
        cone.kept("all_of_v", lambda c: lp.nonzero_terms(hull, ray.scale(1 / ray[-1])))
