"""Binary Archimedean machinery: separation, consistency, closure, Lambda_o.

Separation always produces a *linear* witness (the superlinear and linear
separation properties are equivalent; superlinear witnesses are assembled only
in the choice module, where they are genuinely needed).  Every answer here
rests on the separation system, whose rows per cone class are built in
:mod:`conechoice.cone` (``separation_evidence``), where ``is_mixing`` also
reads it.  Its option-free solve is kept on the cone, and decides every
option where the kept functional f is nonpositive.  For any other option v,
membership answers: a background-positive option or a member is separated by
no functional, and a non-member of a PosiCone is separated by
``f' = y + t f`` with ``t = -y(v) / f(v)``, where y is the Farkas functional
of v's failed membership solve (``>= 0`` on every member, ``< 0`` at v; so
``t > 0``, ``f' > 0`` on every member and ``f'(v) = 0``).  Both are kept in
the cone's record of v (``cone.option_separation``), so the closure query and
``separate`` on one option share them.  Only an option whose membership
solve left no such y (an open-dual or lexicographic non-member, or a
strict-dominance one with ``y(v) = 0``) gets a separation solve of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import lp
from .cone import (
    DesirCone,
    LexCone,
    OpenDualCone,
    PosiCone,
    _separates,
    hull_lambda_o,
    is_coherent,
    member,
    option_separation,
    separation_evidence,
)
from .functional import LinearF, SuperlinF, nml, pieces_of
from .numeric import Background, Vector


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


def _excludes(f: LinearF, cone: DesirCone, v: Vector) -> bool:
    """Does f show by substitution, with no LP, that v is not a member?

    For a PosiCone, ``f(v) <= 0`` is the one dot product to check: f was
    checked where it was made (``cone._separates``) to be background-positive
    and strictly positive on every generator, hence on every member.  The
    other classes decide membership by evaluation.
    """
    if isinstance(cone, PosiCone):
        return f.eval(v) <= 0
    return not member(cone, v)


def _separation_of(cone: DesirCone, v: Vector) -> Optional[LinearF]:
    """The one path to the evidence behind ``separate`` and
    ``archimedean_closure_member``: a background-positive linear functional
    strictly positive on the cone and nonpositive at v, or None when there is
    none.

    The cone's kept functional f, ``separation_evidence(cone)``, is read first:

    * If the cone has none, no functional separates v either.
    * If ``f(v) <= 0``, f is returned: it is strictly positive on the cone
      and nonpositive at v.
    * A background-positive v, or a member, has none: every
      background-positive functional is positive at the one, and every
      functional strictly positive on the cone at the other.  This needs no
      LP for v: membership is an evaluation for an OpenDualCone or a
      LexCone, and a PosiCone keeps its verdict in its record of v.
    * Otherwise v is a non-member, and ``cone.option_separation`` builds the
      functional from the Farkas functional of v's membership solve and f,
      or solves the system for v where that solve left none.

    A functional returned is checked to exclude v (``_excludes``).
    """
    if v.dim != cone.space.dim:
        raise ValueError("dimension mismatch")
    kept = separation_evidence(cone)
    if isinstance(kept, lp.Infeasible):
        return None
    if kept.eval(v) <= 0:
        evidence = kept
    elif cone.space.background_strictly_positive(v) or member(cone, v):
        return None
    else:
        evidence = option_separation(cone, v, kept)
        if isinstance(evidence, lp.Infeasible):
            return None
    lp.verified(_excludes(evidence, cone, v), "member exclusion")
    return evidence


def separate(cone: DesirCone, v: Vector) -> Optional[SeparationWitness]:
    """A background-positive linear functional strictly positive on the cone
    and nonpositive at v, or None when v is in the Archimedean closure.

    The evidence comes from ``_separation_of``.  When there is none,
    membership (an evaluation, or the verdict already in a PosiCone's
    record) refuses a member with ``ValueError``.
    """
    evidence = _separation_of(cone, v)
    if evidence is None:
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

    A functional from ``_separation_of`` means False.  Only when there is
    none is consistency read (the kept evidence, so no further LP), to tell a
    closure member (True) from an Archimedean-inconsistent cone
    (``ValueError``).
    """
    if _separation_of(cone, v) is not None:
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
    """sup{alpha : u - alpha * u_o in D} for the cone's reference option u_o.

    An open-dual or lexicographic cone evaluates ``lambda_o_functional``,
    which raises ``ValueError`` when a piece (the first level) is nonpositive
    at u_o.  A PosiCone solves one LP over its closed hull
    (``cone.hull_lambda_o``).
    """
    if u.dim != cone.space.dim:
        raise ValueError("dimension mismatch")
    if isinstance(cone, PosiCone):
        return hull_lambda_o(cone, u)
    return lambda_o_functional(cone).eval(u)


def lambda_o_functional(cone: DesirCone):
    """The closed-form Lambda_o with {eval > 0} equal to the interior of the cone."""
    u_o = cone.space.u_o
    if isinstance(cone, LexCone):
        return nml(LinearF(cone.levels[0].coeffs), u_o)
    if isinstance(cone, OpenDualCone):
        distinct: list[LinearF] = []
        for piece in pieces_of(nml(SuperlinF(cone.pieces), u_o)):
            if piece not in distinct:
                distinct.append(piece)
        if len(distinct) == 1:
            return distinct[0]
        return SuperlinF(tuple(distinct))
    raise ValueError("unsupported for PosiCone: use lambda_o pointwise")
