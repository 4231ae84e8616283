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
the cone -- is one strict homogeneous solve (``separation_evidence``), with
rows per class:

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
that a PosiCone of dimension 2 or more is not mixing, and one Lambda_o LP over
its closed hull (``hull_lambda_o``) turns it into a witness pair.

A cone object keeps what it learns, since it is frozen, in one store
(``_Cone.kept``): its option-free separation evidence (``separation_evidence``),
whose functional f is checked where it is made to be strictly positive on
the cone (``separates``), and, for a selection's extension in
:mod:`conechoice.choice`, its consistency.  Beside the store sits a record of
the last option v the object was asked about (``OptionRecord``): v's
membership verdict, a PosiCone's Farkas functional y of v's failed
membership solve, and v's separation evidence.  Every entry is a function of
the cone and v alone, so no answer depends on what was asked before.

Every Archimedean answer for an option -- separation, closure membership,
and an assessment's Archimedean membership -- comes from one routine,
``option_separation``, whose docstring states how f, membership and y decide
it, and why ``y + t f`` separates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Any, Callable, Optional, Sequence, Union

from . import lp
from .functional import Functional, LinearF, is_positive, pieces_of
from .numeric import (
    Background,
    OptionSpace,
    Vector,
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

    ``member`` is the verdict of a membership solve (None until a PosiCone
    solves one; the other classes decide membership by evaluation).
    ``farkas`` is, for a PosiCone non-member, the checked functional y of a
    failed membership solve: nonnegative on every member, negative at the
    option.  ``separation`` is the option's separation evidence, once some
    query has made it (``option_separation``).
    """

    option: Vector
    member: Optional[bool] = None
    farkas: Optional[LinearF] = None
    separation: Union[LinearF, lp.Infeasible, None] = None


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


Combination = tuple[tuple[Vector, Fraction], ...]


def _posi_problem(generators: Sequence[Vector], v: Vector) -> lp.LpProblem:
    """The rows of v = sum lambda_k g_k, lambda >= 0, some lambda_k > 0: one
    equality row per coordinate, then the sign rows.

    A Farkas certificate's first ``v.dim`` multipliers are a functional y with
    ``y(g_k) >= 0`` for every k (the multiplier of sign row k) and ``y(v) < 0``.
    """
    dim = generators[0].dim
    if v.dim != dim:
        raise ValueError("dimension mismatch")
    m = len(generators)
    rows = lp.combination_rows(generators, v)
    rows += lp.nonneg_rows(m)
    if v.is_zero():
        # Any representation of a nonzero v already has a positive coefficient;
        # for v = 0 the "some lambda_k > 0" clause needs the explicit row.
        rows.append(lp.sum_to_one_row(m))
    return lp.LpProblem(m, tuple(rows))


def posi_member(generators: Sequence[Vector], v: Vector) -> bool:
    """Is v a positive linear combination of the generators?"""
    return bool(generators) and isinstance(lp.solve(_posi_problem(generators, v)), lp.Feasible)


def _residual_problem(generators: Sequence[Vector], v: Vector) -> lp.LpProblem:
    """The rows of lambda >= 0 with v - sum lambda_k g_k strictly positive.

    Homogenised with a scale x0 (Motzkin): one strict homogeneous system over
    (lambda, x0) with x0 > 0, x0 v_i - sum_k lambda_k g_k[i] > 0 for every i,
    and lambda >= 0.  A solution divided by its x0 (>= 1 by its own row) is
    the lambda sought (``_residual_terms``).  A Farkas certificate puts a
    multiplier a >= 0 on the row of x0, then one y_i >= 0 on each row i: the
    functional y is nonnegative, ``y(g_k) >= 0`` for every k, and
    ``y(v) = -a <= 0``.
    """
    m = len(generators)
    n = m + 1
    rows = [lp.strict_unit_rows(n)[m]]  # x0 > 0
    rows += [
        lp.strict_row(Vector(tuple(-g[i] for g in generators) + (v[i],)))
        for i in range(v.dim)
    ]
    rows += lp.nonneg_rows(n)[:m]
    return lp.LpProblem(n, tuple(rows))


def _posi_terms(generators: Sequence[Vector], v: Vector, witness: Vector) -> Combination:
    return tuple((g, lam) for g, lam in zip(generators, witness.entries) if lam != 0)


def _residual_terms(generators: Sequence[Vector], v: Vector, witness: Vector) -> Combination:
    """The generators' terms plus the strictly positive residual, with coefficient 1."""
    x0 = witness[len(generators)]
    lambdas = tuple(lam / x0 for lam in witness.entries[:-1])
    residual = v - _combine(generators, lambdas)
    return _posi_terms(generators, v, Vector(lambdas)) + ((residual, Fraction(1)),)


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

    Any other option is decided by ``_membership``, and the verdict and the
    Farkas functional of a non-member go into the cone's record of v, so a
    repeat, or a separation query on v, solves nothing.
    """
    if v.dim != cone.space.dim:
        raise ValueError("dimension mismatch")
    if isinstance(cone, OpenDualCone):
        return all(p.eval(v) > 0 for p in cone.pieces)
    if isinstance(cone, LexCone):
        return lex_sign([level.eval(v) for level in cone.levels]) > 0
    if cone.space.background_strictly_positive(v):
        return True
    f = cone.kept("separation")
    if isinstance(f, LinearF) and f.eval(v) <= 0:
        return False
    record = cone.record(v)
    if record.member is None:
        combination, record.farkas = _membership(cone, v)
        record.member = combination is not None
    return record.member


def _membership(
    cone: PosiCone, v: Vector
) -> tuple[Optional[Combination], Optional[LinearF]]:
    """The nonzero (vector, coefficient) terms of a combination reaching v, or
    None; and for a non-member, the Farkas functional of a failed solve when
    it is nonnegative on every member and negative at v (``_excludes_by``).

    Pointwise dominance solves one system over the generators and the unit
    vectors, and its certificate always qualifies.  Strict dominance has two
    systems: the generators alone, and the generators plus one strictly
    positive residual, which enters with coefficient 1.  A nonzero v tries
    the residual system first and stops at a certificate that qualifies; its
    certificate fails to qualify only when ``y(v) = 0``.  For v = 0 (the
    consistency question) the generators alone come first.
    """
    pointwise = cone.space.background is Background.POINTWISE
    generators = list(cone.generators)
    if pointwise:
        generators += background_generators(cone.space)
    elif not generators:
        # The semantic set is the open orthant.
        terms = ((v, Fraction(1)),) if cone.space.background_strictly_positive(v) else None
        return terms, None
    posi = (_posi_problem, 0, _posi_terms)
    residual = (_residual_problem, 1, _residual_terms)
    systems = (posi,) if pointwise else (posi, residual) if v.is_zero() else (residual, posi)
    for problem, first, terms in systems:
        result = lp.solve(problem(generators, v))
        if isinstance(result, lp.Feasible):
            return terms(generators, v, result.witness), None
        y = LinearF(Vector(result.certificate[first : first + v.dim]))
        if _excludes_by(y, cone, v):
            return None, y
    return None, None


def _membership_combination(cone: PosiCone, v: Vector) -> Optional[Combination]:
    """The nonzero (vector, coefficient) terms of a combination reaching v, or None."""
    return _membership(cone, v)[0]


def _excludes_by(y: LinearF, cone: PosiCone, v: Vector) -> bool:
    """Is y nonnegative on every member of the cone and negative at v?
    Checked by substitution: every coefficient and ``y(g)`` for every
    generator g are nonnegative, so y is nonnegative on the unit vectors, the
    open orthant and the generators, hence on every nonnegative combination
    of them."""
    return (
        y.eval(v) < 0
        and all(c >= 0 for c in y.coeffs.entries)
        and all(y.eval(g) >= 0 for g in cone.generators)
    )


def natural_extension(
    assessment: Sequence[Vector], space: OptionSpace
) -> tuple[PosiCone, ConsistencyReport]:
    """The coherent closure of an assessment, with a consistency report.

    The assessment is consistent iff its closure excludes 0, so only that
    question is solved; an inconsistent answer carries the checked
    combination that reaches 0.
    """
    cone = PosiCone(tuple(assessment), space)
    combination = _membership_combination(cone, zero_vector(space.dim))
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
        return _membership_combination(cone, zero_vector(space.dim)) is None
    if isinstance(cone, OpenDualCone):
        # 0 is never a member (every piece evaluates to 0 there).
        return all(is_positive(p, space) for p in cone.pieces)
    # LexCone: 0 maps to the zero tuple, never lex-positive.
    if space.background is Background.POINTWISE:
        return all(
            lex_sign([level.eval(e) for level in cone.levels]) > 0
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
    if isinstance(cone, PosiCone) and not all(f.eval(g) > 0 for g in cone.generators):
        return False
    if isinstance(cone, LexCone) and not (
        len(cone.levels) == 1
        and all(_positively_proportional(cone.levels[0].coeffs, p.coeffs) for p in pieces_of(f))
    ):
        return False
    return all(f.eval(v) <= 0 for v in options)


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
    """The option-free solve of the separation system behind every
    Archimedean answer.

    Returns a background-positive linear functional strictly positive on the
    cone, re-verified before it is returned, or the ``lp.Infeasible`` whose
    Farkas certificate shows that no such functional exists.  It is solved
    once per cone object and then kept (``_Cone.kept``).  The system for an
    option v adds the row ``f(v) <= 0`` and is solved only by
    ``option_separation``, where v's membership solve left no functional.
    """
    return cone.kept("separation", _solve_separation)


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
    * Otherwise v is a non-member.  Where the record holds the Farkas
      functional y of v's failed membership solve, checked nonnegative on
      every member and negative at v (``_excludes_by``),

          f' = y + t f,  t = -y(v) / f(v)

      separates v with no LP: ``y >= 0`` and ``f > 0`` on every member and
      on the background, so ``f' > 0`` there; ``y(v) < 0 < f(v)``, so
      ``t > 0``; and ``f'(v) = y(v) + t f(v) = 0``.  A pointwise-dominance
      certificate always qualifies.  Under strict dominance a nonzero v
      tries the strictly positive residual first, whose certificate is
      nonnegative with ``y(v) <= 0``, then the generators alone
      (``_membership``).  Only where no certificate qualified (an open-dual
      or lexicographic non-member, or a strict-dominance one with
      ``y(v) = 0``) is the system for v solved.

    A functional made here is checked where it is made (``separates``) and
    kept in the record of v, so membership, the closure and separation of
    one option solve each system once.  A functional returned is checked to
    exclude v (``_excludes``).
    """
    if v.dim != cone.space.dim:
        raise ValueError("dimension mismatch")
    f = separation_evidence(cone)
    if isinstance(f, lp.Infeasible):
        return None
    if f.eval(v) <= 0:
        evidence = f
    elif cone.space.background_strictly_positive(v) or member(cone, v):
        return None
    else:
        record = cone.record(v)
        if record.separation is None:
            y = record.farkas
            if y is None:
                record.separation = _solve_separation(cone, (v,))
            else:
                t = -y.eval(v) / f.eval(v)
                made = LinearF(y.coeffs + f.coeffs.scale(t))
                lp.verified(separates(made, cone, (v,)), "separation witness")
                record.separation = made
        evidence = record.separation
        if isinstance(evidence, lp.Infeasible):
            return None
    lp.verified(_excludes(evidence, cone, v), "member exclusion")
    return evidence


def _excludes(f: LinearF, cone: DesirCone, v: Vector) -> bool:
    """Does f show by substitution, with no LP, that v is not a member?

    For a PosiCone, ``f(v) <= 0`` is the one dot product to check: f was
    checked where it was made (``separates``) to be strictly positive on
    every member.  The other classes decide membership by evaluation.
    """
    if isinstance(cone, PosiCone):
        return f.eval(v) <= 0
    return not member(cone, v)


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


def hull_lambda_o(cone: PosiCone, u: Vector) -> Fraction:
    """sup{alpha : u - alpha * u_o in posi(generators plus units)}, one LP.

    Under both background orders this is Lambda_o of the cone at u: the sup
    over the cone equals the sup over its closed hull.  The LP is unbounded,
    and Lambda_o is +infinity at every u, exactly when -u_o lies in the
    closed hull: the hull holds the nonnegative orthant, whose interior holds
    u_o, so it is then all of V.  That raises ``ValueError``; a hull that is
    not pointed but misses -u_o still gives a finite answer.
    """
    space = cone.space
    u_o = space.u_o
    hull = list(cone.generators) + background_generators(space)
    m = len(hull)
    n = m + 1  # lambda_1..lambda_m, alpha
    rows = lp.combination_rows(hull + [u_o], u)
    rows += lp.nonneg_rows(n)[:m]
    result = lp.solve(lp.LpProblem(n, tuple(rows), _maximize_last(n)))
    if not isinstance(result, lp.Optimal):
        raise ValueError("lambda_o is +infinity: the closed hull of the cone is all of V")
    return result.value


@cache
def _maximize_last(n: int) -> lp.Objective:
    """The objective ``max x_n`` over n variables, built once per n."""
    return lp.Objective("max", unit_vector(n, n - 1))
