"""Binary Archimedean machinery: separation, consistency, closure, Lambda_o.

Separation always produces a *linear* witness (the superlinear and linear
separation properties are equivalent; superlinear witnesses are assembled only
in the choice module, where they are genuinely needed).  Every answer here
rests on the separation system, whose rows per cone class are built in
:mod:`conechoice.cone` (``separation_evidence``), where ``is_mixing`` also
reads it.  The answers for one option, ``separate`` and
``archimedean_closure_member``, come from ``cone.option_separation``,
which reads the cone's kept functional and the option's membership before it
solves anything, and whose docstring holds the proof behind it.  Lambda_o
of every cone class is the min of r(u) / r(u_o) over the generators r of
the dual of the cone's closure (``cone.dual_generators``), so it solves no
hull LP below ``cone.DD_RAY_CAP``, and ``lambda_o_functional`` is the same
generators normalised at u_o.
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
    dual_generators,
    hull_lambda_o,
    is_coherent,
    member,
    option_separation,
    posi_member,
    separates,
    separation_evidence,
)
from .functional import Functional, LinearF, SuperlinF, nml, pieces_of
from .numeric import Background, Vector


@dataclass(frozen=True)
class SeparationWitness:
    functional: LinearF
    separated_option: Vector


def verify_separation_witness(
    cone: DesirCone, witness: SeparationWitness, members: Sequence[Vector] = ()
) -> bool:
    """Re-check a witness: ``cone.separates`` at the separated option, strictly
    positive on any supplied members and, for an OpenDualCone, in the posi
    hull of its pieces (one LP), which makes it strictly positive on the cone."""
    f = witness.functional
    if isinstance(cone, OpenDualCone):
        if not posi_member([p.coeffs for p in cone.pieces], f.coeffs):
            return False
    return separates(f, cone, (witness.separated_option,)) and all(
        f.sign_at(u) > 0 for u in members
    )


def separate(cone: DesirCone, v: Vector) -> Optional[SeparationWitness]:
    """A background-positive linear functional strictly positive on the cone
    and nonpositive at v, or None when v is in the Archimedean closure.

    The evidence comes from ``cone.option_separation``.  When there is none,
    membership (an evaluation, or the verdict already in a PosiCone's
    record) refuses a member with ``ValueError``.
    """
    evidence = option_separation(cone, v)
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

    A functional from ``cone.option_separation`` means False.  Only when
    there is none is consistency read (the kept evidence, so no further LP),
    to tell a closure member (True) from an Archimedean-inconsistent cone
    (``ValueError``).
    """
    if option_separation(cone, v) is not None:
        return False
    if not archimedean_consistent(cone):
        raise ValueError("Archimedean-inconsistent cone: the closure is all of V")
    return True


def is_essentially_archimedean(cone: DesirCone) -> bool:
    """Is the cone coherent and topologically open?

    A PosiCone contains its generator rays, so it is open only as the open
    orthant itself (under strict dominance, or {x > 0} in one dimension):
    every generator background-positive.  That condition is exactly "open and
    coherent", so no LP is solved: no positive combination of
    background-positive generators is 0, and in one dimension a generator
    x <= 0 puts 0 in the cone.
    """
    if isinstance(cone, OpenDualCone):
        return is_coherent(cone)
    if isinstance(cone, LexCone):
        # One (independent) level is an open half-space; two or more levels
        # include boundary points of the first level's kernel.
        return len(cone.levels) == 1 and is_coherent(cone)
    space = cone.space
    return (space.dim == 1 or space.background is Background.STRICT) and all(
        space.background_strictly_positive(g) for g in cone.generators
    )


def lambda_o(cone: DesirCone, u: Vector) -> Fraction:
    """sup{alpha : u - alpha * u_o in D} for the cone's reference option u_o.

    It is the min of r(u) / r(u_o) over the generators r of the dual of the
    cone's closure (``cone.dual_generators``), evaluated in integers by
    ``cone.hull_lambda_o`` for every cone class, with no hull LP below
    ``cone.DD_RAY_CAP``; a PosiCone's value is certified there by a checked
    combination, which takes one small LP only where its exact solve has a
    negative coefficient.  It raises ``ValueError`` when a generator (an
    open-dual piece or a first level) is nonpositive at u_o, and when a
    PosiCone's closed hull is all of V, where Lambda_o is +infinity.
    """
    return hull_lambda_o(cone, u)


def lambda_o_functional(cone: DesirCone) -> Functional:
    """Lambda_o in closed form, a linear functional or a min-envelope of
    them, with {eval > 0} equal to the interior of the cone's closure.

    Its pieces are the generators of ``lambda_o`` normalised to 1 at u_o
    (``functional.nml``), each kept once: an open-dual cone's pieces, a
    lexicographic cone's first level, a PosiCone's extreme rays of the dual
    of its closed hull (``cone.dual_generators``).  It raises ``lambda_o``'s
    errors, and one more past ``cone.DD_RAY_CAP`` rays, where there is no
    closed form and ``lambda_o`` solves one LP per option.
    """
    generators = dual_generators(cone)
    if generators is None:
        raise ValueError("unsupported past cone.DD_RAY_CAP: use lambda_o pointwise")
    pieces = tuple(dict.fromkeys(pieces_of(nml(SuperlinF(generators), cone.space.u_o))))
    return pieces[0] if len(pieces) == 1 else SuperlinF(pieces)
