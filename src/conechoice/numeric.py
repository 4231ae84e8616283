"""Exact rational scalars and dense rational vectors over a fixed dimension.

The scalar field of the whole engine is the rationals, realized by
:class:`fractions.Fraction` (canonical form is guaranteed by the stdlib:
positive denominator, reduced gcd).  Everything downstream is exact; there is
no floating point anywhere in the engine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, lru_cache
from math import lcm
from typing import Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?$")


@lru_cache(maxsize=1024)
def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact rational.

    A model file repeats few distinct literals many times, so the last 1024
    distinct literals parsed are kept and their (immutable) Fractions shared.
    A literal that fails to parse is not kept: it raises on every call, and a
    non-string that cannot be hashed raises ``TypeError``.

    >>> parse_rational("2/4")
    Fraction(1, 2)
    >>> parse_rational("-3")
    Fraction(-3, 1)
    """
    match = _RATIONAL_RE.match(text)
    if match is None:
        raise ValueError(f"malformed rational literal: {text!r}")
    num = int(match.group(1))
    den_text = match.group(2)
    if den_text is None:
        return Fraction(num)
    den = int(den_text)
    if den <= 0:
        raise ValueError(f"rational literal needs a positive denominator: {text!r}")
    return Fraction(num, den)


def format_rational(r: Fraction) -> str:
    """Format a rational as "p" or "p/q" so that parse(format(r)) == r."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def as_rational(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class Vector:
    """A dense rational vector of fixed dimension."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("vectors must have positive dimension")
        for entry in self.entries:
            if not isinstance(entry, Fraction):
                raise TypeError("vector entries must be Fraction")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def _check_dim(self, other: "Vector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vector":
        return Vector(tuple(-a for a in self.entries))

    def scale(self, factor: RationalLike) -> "Vector":
        factor = as_rational(factor)
        return Vector(tuple(factor * a for a in self.entries))

    def dot(self, other: "Vector") -> Fraction:
        """The exact inner product, summed as one integer fraction num / den
        over the nonzero products; one Fraction is built, at the end."""
        self._check_dim(other)
        num, den = 0, 1
        for a, b in zip(self.entries, other.entries):
            if a and b:
                q = a.denominator * b.denominator
                if q == den:
                    num += a.numerator * b.numerator
                else:
                    num = num * q + a.numerator * b.numerator * den
                    den *= q
        return Fraction(num, den)

    def sup_norm(self) -> Fraction:
        return max(abs(a) for a in self.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(format_rational(a) for a in self.entries) + ")"


def vec(*values: RationalLike) -> Vector:
    """Build a vector from ints, Fractions or "p/q" strings."""
    return Vector(tuple(as_rational(v) for v in values))


# Vectors are frozen, so each constant vector is built once per argument and
# shared by every caller.
_ZERO = Fraction(0)
_ONE = Fraction(1)


@cache
def zero_vector(dim: int) -> Vector:
    return Vector((_ZERO,) * dim)


@cache
def unit_vector(dim: int, i: int) -> Vector:
    entries = [_ZERO] * dim
    entries[i] = _ONE
    return Vector(tuple(entries))


@cache
def ones(dim: int) -> Vector:
    return Vector((_ONE,) * dim)


class Background(Enum):
    """The a-priori strict vector order on the option space.

    POINTWISE: u > 0 iff all entries >= 0 and at least one > 0.
    STRICT: u > 0 iff all entries > 0.
    """

    POINTWISE = "pointwise"
    STRICT = "strict"


@dataclass(frozen=True)
class OptionSpace:
    """A finite-dimensional option space with background order and reference option."""

    dim: int
    background: Background
    u_o: Vector

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError("dimension must be positive")
        if self.u_o.dim != self.dim:
            raise ValueError("reference option has wrong dimension")
        # u_o must lie in the interior of the background cone.
        if not all(entry > 0 for entry in self.u_o.entries):
            raise ValueError("reference option u_o is not interior (needs all entries > 0)")

    def background_strictly_positive(self, u: Vector) -> bool:
        """Is u > 0 in the background order?"""
        if u.dim != self.dim:
            raise ValueError("dimension mismatch")
        if self.background is Background.POINTWISE:
            return all(a >= 0 for a in u.entries) and any(a > 0 for a in u.entries)
        return all(a > 0 for a in u.entries)

    def positive_functional(self, coeffs: Vector) -> bool:
        """Is u -> coeffs . u strictly positive on every background-positive u?

        The two orders are dual: pointwise dominance holds every unit vector
        positive, so each coefficient must be > 0; strict dominance holds the
        open orthant positive, so coefficients >= 0, not all 0, suffice.
        """
        if self.background is Background.POINTWISE:
            return all(c > 0 for c in coeffs.entries)
        return all(c >= 0 for c in coeffs.entries) and any(c > 0 for c in coeffs.entries)


def integer_form(entries: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """``(scale, ints)``: the entries times ``scale``, the lcm of their
    denominators, as a tuple of integers.

    >>> integer_form((Fraction(1, 2), Fraction(-2, 3), Fraction(3)))
    (6, (3, -4, 18))
    """
    dens = [x.denominator for x in entries]
    scale = lcm(*dens)
    return scale, tuple(x.numerator * (scale // q) for x, q in zip(entries, dens))


def rank_of(rows: Sequence[Vector]) -> int:
    """The rank of the rows, by fraction-free (Bareiss) elimination.

    Each nonzero row is scaled into integers (``integer_form``).  Every entry
    after step k is then a (k+1)-minor of the integer matrix, so dividing by
    the previous pivot is exact and no Fraction is built.
    """
    matrix = [integer_form(row.entries)[1] for row in rows if not row.is_zero()]
    if not matrix:
        return 0
    rank, previous = 0, 1
    for col in range(len(matrix[0])):
        pivot_row = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot_entries = matrix[rank]
        pivot = pivot_entries[col]
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col]
            matrix[r] = [(pivot * x - factor * y) // previous
                         for x, y in zip(matrix[r], pivot_entries)]
        previous = pivot
        rank += 1
        if rank == len(matrix):
            break
    return rank


def row_kernel(row: Vector) -> list[Vector]:
    """A basis of {x : row . x = 0} for a nonzero row, in closed form.

    With p the first column where the row is nonzero, it is
    ``e_j - (a_j / a_p) e_p`` for each other column j, in increasing order:
    the reduced-row-echelon basis of the one row.
    """
    p = next((j for j, a in enumerate(row.entries) if a), None)
    if p is None:
        raise ValueError("the zero row has no pivot")
    d, e_p = row.dim, unit_vector(row.dim, p)
    return [unit_vector(d, j) - e_p.scale(row[j] / row[p]) for j in range(d) if j != p]
