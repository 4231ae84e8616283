"""Linear and superlinear bounded real functionals on the option space.

Superlinear functionals are restricted to finite min-envelopes of linear
pieces: every bounded superlinear functional is a lower envelope of the linear
functionals dominating it, and the finite-envelope fragment covers everything
this engine constructs.  Conjugates are evaluated (max over pieces), never
materialized as separate objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import lp
from .numeric import OptionSpace, Vector


@dataclass(frozen=True)
class LinearF:
    """A linear functional u -> coeffs . u."""

    coeffs: Vector

    @property
    def dim(self) -> int:
        return self.coeffs.dim

    def eval(self, u: Vector) -> Fraction:
        return self.coeffs.dot(u)

    def sign_at(self, u: Vector) -> int:
        """The sign of ``eval(u)``, -1, 0 or 1, with no Fraction built."""
        return self.coeffs.dot_sign(u)

    def conjugate_eval(self, u: Vector) -> Fraction:
        # Linear functionals are self-conjugate.
        return self.coeffs.dot(u)


@dataclass(frozen=True)
class SuperlinF:
    """A superlinear functional given as the min-envelope of linear pieces.

    Superadditivity and nonnegative homogeneity hold identically for a min of
    linear maps, so the shape itself certifies the axioms.
    """

    pieces: tuple[LinearF, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("a min-envelope needs at least one piece")
        if len({p.dim for p in self.pieces}) != 1:
            raise ValueError("pieces must share one dimension")

    @property
    def dim(self) -> int:
        return self.pieces[0].dim

    def eval(self, u: Vector) -> Fraction:
        return min(p.eval(u) for p in self.pieces)

    def sign_at(self, u: Vector) -> int:
        """The sign of ``eval(u)``: the least sign over the pieces."""
        return min(p.sign_at(u) for p in self.pieces)

    def conjugate_eval(self, u: Vector) -> Fraction:
        # conj(u) = -eval(-u) = max over pieces.
        return max(p.eval(u) for p in self.pieces)


Functional = Union[LinearF, SuperlinF]

NONPOSITIVE_AT_U_O = "normalisation undefined: a piece is nonpositive at u_o"


def pieces_of(f: Functional) -> tuple[LinearF, ...]:
    if isinstance(f, LinearF):
        return (f,)
    return f.pieces


def is_positive(f: Functional, space: OptionSpace) -> bool:
    """Is f strictly positive on every background-positive option?

    f is the min of its pieces, so it is iff every piece is, by the space's
    rule for linear functionals (``OptionSpace.positive_functional``).
    """
    return all(space.positive_functional(piece.coeffs) for piece in pieces_of(f))


def operator_norm(f: LinearF) -> Fraction:
    """Exact operator norm under the sup-norm: sum of absolute coefficients."""
    return sum((abs(c) for c in f.coeffs.entries), Fraction(0))


def operator_norm_bound(f: SuperlinF) -> Fraction:
    """A certified upper bound on the operator norm: max over the pieces' norms."""
    return max(operator_norm(p) for p in f.pieces)


def dominating_polytope(f: SuperlinF) -> list[LinearF]:
    """Vertices of the convex hull of the piece coefficient vectors.

    A linear functional dominates the envelope everywhere iff its coefficient
    vector lies in this hull: hull members dominate term by term, and anything
    outside the hull is separated from it by some option u on which it drops
    below the envelope.  The envelope is the min over the returned vertices.

    A point p is a vertex iff it is not a convex combination of the others,
    that is iff ``(p, 1)`` is not a positive combination of their ``(q, 1)``
    (``lp.positive_combination``, whose last row is ``sum x = 1``).
    """
    points = list(dict.fromkeys(piece.coeffs for piece in f.pieces))
    if len(points) == 1:
        return [LinearF(points[0])]
    lifted = [Vector((*p.entries, Fraction(1))) for p in points]
    return [
        LinearF(p)
        for idx, p in enumerate(points)
        if lp.positive_combination(
            lifted[:idx] + lifted[idx + 1:], lifted[idx], "convex combination"
        ) is None
    ]


def hahn_banach_witness(f: SuperlinF, u: Vector) -> LinearF:
    """A dominating linear functional agreeing with f at u: a least-index argmin piece."""
    return min(f.pieces, key=lambda piece: piece.eval(u))


def nml(f: Functional, u_o: Vector) -> Functional:
    """The normalisation transformation: nml f(u) = sup{a : f(u - a*u_o) > 0}.

    For a min-envelope with all pieces positive at u_o the sup is attained as
    min over pieces of piece(u)/piece(u_o): the defining condition is
    "a < piece(u)/piece(u_o) for every piece".  (Cross-validated in the test
    suite against a bisection oracle on the sup definition.)
    """
    normalised = tuple(_normalised(piece, u_o) for piece in pieces_of(f))
    if isinstance(f, LinearF):
        return normalised[0]
    return SuperlinF(normalised)


def _normalised(piece: LinearF, u_o: Vector) -> LinearF:
    """piece / piece(u_o), with piece(u_o) = p/q evaluated once and each
    coefficient a/b built as one Fraction(a*q, b*p)."""
    value = piece.eval(u_o)
    if value <= 0:
        raise ValueError(NONPOSITIVE_AT_U_O)
    p, q = value.numerator, value.denominator
    return LinearF(Vector(tuple(
        Fraction(c.numerator * q, c.denominator * p) for c in piece.coeffs.entries
    )))
