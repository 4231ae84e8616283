"""Linear and superlinear bounded real functionals on the option space.

Superlinear functionals are restricted to finite min-envelopes of linear
pieces: every bounded superlinear functional is a lower envelope of the linear
functionals dominating it, and the finite-envelope fragment covers everything
this engine constructs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

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
