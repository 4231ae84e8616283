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
from typing import Optional, Sequence, Union

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
        if len(self.entries) != len(other.entries):
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
        return Fraction(*self.dot_ratio(other))

    def dot_sign(self, other: "Vector") -> int:
        """The sign of the inner product, -1, 0 or 1, with no Fraction built."""
        num = self.dot_ratio(other)[0]
        return (num > 0) - (num < 0)

    def dot_ratio(self, other: "Vector") -> tuple[int, int]:
        """The inner product as integers ``(num, den)`` with ``den > 0``."""
        self._check_dim(other)
        num, den = 0, 1
        for a, b in zip(self.entries, other.entries):
            p = a.numerator  # a zero entry of self skips the other's read
            if p:
                p *= b.numerator
            if p:
                q = a.denominator * b.denominator
                if q == den:
                    num += p
                else:
                    num = num * q + p * den
                    den *= q
        return num, den

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
        # A Fraction's numerator carries its sign.
        signs = [a.numerator for a in u.entries]
        if self.background is Background.POINTWISE:
            return all(a >= 0 for a in signs) and any(signs)
        return all(a > 0 for a in signs)

    def positive_functional(self, coeffs: Vector) -> bool:
        """Is u -> coeffs . u strictly positive on every background-positive u?

        The two orders are dual: pointwise dominance holds every unit vector
        positive, so each coefficient must be > 0; strict dominance holds the
        open orthant positive, so coefficients >= 0, not all 0, suffice.
        """
        if coeffs.dim != self.dim:
            raise ValueError("dimension mismatch")
        signs = [c.numerator for c in coeffs.entries]
        if self.background is Background.POINTWISE:
            return all(c > 0 for c in signs)
        return all(c >= 0 for c in signs) and any(signs)


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
    """The rank of the rows: each row scaled into integers
    (``integer_form``), then brought to echelon form (``_echelon``)."""
    return len(_echelon([integer_form(row.entries)[1] for row in rows])[1])


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows brought to echelon form by fraction-free (Bareiss)
    elimination, and the column of each one's pivot, in increasing order.

    Every entry after step k is a (k+1)-minor of the matrix, so dividing by
    the previous pivot is exact and no Fraction is built.  A pivot is taken
    in each column that has one, from left to right, so the pivot columns
    are the least-index set of independent columns.
    """
    matrix = [list(row) for row in rows if any(row)]
    pivots: list[int] = []
    if not matrix:
        return matrix, pivots
    previous = 1
    for col in range(len(matrix[0])):
        rank = len(pivots)
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
        pivots.append(col)
        if len(pivots) == len(matrix):
            break
    return matrix[: len(pivots)], pivots


def solve_in_span(columns: Sequence[Vector], target: Vector) -> Optional[tuple[Fraction, ...]]:
    """Coefficients x with ``sum_k x_k columns[k] = target``, zero off the
    least-index basis of the columns, or None when the target is outside
    their span: one exact solve, with the square system of the basis.

    Each equation (one coordinate) is scaled into integers on its own
    (``integer_form``), which keeps its solutions, then eliminated
    (``_echelon``) and solved back over the pivot columns in integers, as
    numerators over one common denominator, the product of the pivots; one
    Fraction is built per nonzero coefficient, at the end.

    >>> solve_in_span([vec(1, 1), vec(2, 2), vec(0, 1)], vec(3, 5))
    (Fraction(3, 1), Fraction(0, 1), Fraction(2, 1))
    >>> solve_in_span([vec(1, 1)], vec(1, 2)) is None
    True
    """
    m = len(columns)
    rows = [integer_form([c[i] for c in columns] + [target[i]])[1] for i in range(target.dim)]
    matrix, pivots = _echelon(rows)
    if pivots and pivots[-1] == m:
        return None
    # x = X / den throughout: solving row for x[col] multiplies den by the
    # pivot, so the numerators found so far are multiplied by it too.
    X, den = [0] * m, 1
    for row, col in zip(reversed(matrix), reversed(pivots)):
        rest = sum(row[j] * X[j] for j in range(col + 1, m) if X[j])
        pivot = row[col]
        X = [a * pivot for a in X]
        X[col] = row[m] * den - rest
        den *= pivot
    return tuple(Fraction(a, den) if a else _ZERO for a in X)


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
