"""Exact rational linear programming with verifiable certificates.

This is the single decision oracle behind every cone-membership and separation
query in the engine.  The solver is a two-phase primal simplex with Bland's
least-index pivot rule, which guarantees termination without any perturbation
scheme.  It pivots fraction-free, in the manner of Edmonds and Bareiss: each
tableau row is an equation kept as a primitive integer vector (each constraint
is multiplied by the lcm of its denominators, and every pivot step divides out
the gcd of the rows it changes), and the objective row carries one positive
integer scale.  Every pivot, ratio test and entering-column choice is integer
arithmetic, yet makes the same choice as the rational tableau, so the pivot
path and all evidence are those of a simplex over Fractions.  Fractions appear
only where values enter (the constraint data and the objective costs) and
where they leave (witnesses, optimal values, certificates and rays).  Each
constraint is scaled to its integer row once, when it is built
(:attr:`Constraint.integer_row`), and the tableau and the evidence checks
share it.  Rows that depend only on a size -- the sign rows ``x_k >= 0``,
``sum x = 1`` and the strict unit and sum rows -- are built once per size
(:func:`nonneg_rows` and its neighbours) and shared by every problem that
holds them, so a query builds only the rows that hold its own data.

The tableau holds only what the problem needs.  A sign row, one that says
``x_j >= 0`` and nothing else, stays out of it and gives x_j one nonnegative
column; only the other variables are split as ``p - q``.  Rows that read
``<=`` with a nonnegative rhs (``>= 0`` rows are negated into that form) start
with their slack basic, and only the remaining rows get an artificial, so a
system without any skips phase 1.

Negative answers carry checkable evidence:

* infeasibility comes with a Farkas multiplier vector, read off the final
  phase-1 tableau (the duals of the starting columns, and for sign rows the
  reduced costs of their variables) and re-verified by substitution before
  being returned;
* unboundedness comes with an improving ray read off the final tableau and
  re-verified the same way.

The checks run in integers with the same exact predicates.  A witness or ray
is read as an integer vector X over one denominator d, and each row is tested
as ``a.X REL b.d`` on its integer row.  A certificate weighs each integer row
by its multiplier over the row's scale, all over one common denominator.  The
checks read each row as written, sign rows included, and never the tableau's
layout, so a wrong layout cannot pass its own evidence.

:func:`solve` is the one entry point, and every problem takes the same path
through it, a problem without rows included.

Strict inequalities never appear in an ``LpProblem``.  Every strict system
is homogeneous and is decided by one :func:`solve`: its strict rows
``row . x > 0`` are built by :func:`strict_row` as ``row . x >= 1`` (valid
by homogeneity).  A caller whose system has constants homogenises it first,
as in Motzkin's transposition theorem: the constants move into a column of
one scale variable ``x0`` with the strict row ``x0 > 0``, and a solution
divided by its ``x0`` solves the original system.  So a strict system answers
either with a checked solution or with a Farkas certificate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence, Union

from .numeric import Vector, integer_form, ones, unit_vector

LE = "<="
EQ = "="
GE = ">="

_RELATIONS = (LE, EQ, GE)
_REVERSED = {LE: GE, EQ: EQ, GE: LE}

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Constraint:
    """The row ``coeffs . x REL rhs``.

    Two attributes are derived from it once, when it is built, and stay out
    of eq, hash and repr:

    * ``sign_row``: ``(j, |a|)`` when the row says only ``x_j >= 0``, else
      None.  A sign row has one nonzero coefficient ``a`` and rhs 0, and reads
      ``a x_j >= 0`` with ``a > 0`` or ``a x_j <= 0`` with ``a < 0``.  It is
      the tableau's layout decision, read by :class:`_Tableau` alone; the
      evidence checks read ``integer_row``.
    * ``integer_row``: ``(scale, row)``, the coefficients and then the rhs,
      times ``scale``, the lcm of their denominators, as integers
      (``numeric.integer_form``).
    """

    coeffs: Vector
    relation: str
    rhs: Fraction
    sign_row: Optional[tuple[int, Fraction]] = field(init=False, repr=False, compare=False)
    integer_row: tuple[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        sign_row = None
        if not self.rhs and self.relation != EQ:
            nonzero = [j for j, a in enumerate(self.coeffs.entries) if a]
            if len(nonzero) == 1:
                a = self.coeffs[nonzero[0]]
                if (a > 0) == (self.relation == GE):
                    sign_row = (nonzero[0], abs(a))
        object.__setattr__(self, "integer_row", integer_form((*self.coeffs.entries, self.rhs)))
        object.__setattr__(self, "sign_row", sign_row)


@dataclass(frozen=True)
class Objective:
    direction: str  # "max" | "min"
    coeffs: Vector

    def __post_init__(self) -> None:
        if self.direction not in ("max", "min"):
            raise ValueError(f"unknown direction {self.direction!r}")


Bound = tuple[Optional[Fraction], Optional[Fraction]]


@dataclass(frozen=True)
class LpProblem:
    n_vars: int
    constraints: tuple[Constraint, ...]
    objective: Optional[Objective] = None
    bounds: Optional[tuple[Bound, ...]] = None

    def __post_init__(self) -> None:
        if self.n_vars <= 0:
            raise ValueError("need at least one variable")
        for c in self.constraints:
            if c.coeffs.dim != self.n_vars:
                raise ValueError("constraint coefficient vector has wrong length")
        if self.objective is not None and self.objective.coeffs.dim != self.n_vars:
            raise ValueError("objective coefficient vector has wrong length")
        if self.bounds is not None and len(self.bounds) != self.n_vars:
            raise ValueError("bounds list has wrong length")

    def normalized(self) -> "LpProblem":
        """An equivalent problem with bounds folded into explicit constraints.

        Certificates returned by :func:`solve` index the constraints of the
        normalized problem.
        """
        if self.bounds is None:
            return self
        extra = []
        for j, (lo, hi) in enumerate(self.bounds):
            e_j = unit_vector(self.n_vars, j)
            if lo is not None:
                extra.append(Constraint(e_j, GE, lo))
            if hi is not None:
                extra.append(Constraint(e_j, LE, hi))
        return LpProblem(self.n_vars, self.constraints + tuple(extra), self.objective, None)


@dataclass(frozen=True)
class Feasible:
    witness: Vector


@dataclass(frozen=True)
class Optimal:
    witness: Vector
    value: Fraction


@dataclass(frozen=True)
class Infeasible:
    certificate: tuple[Fraction, ...]


@dataclass(frozen=True)
class Unbounded:
    ray: Vector
    witness: Vector


LpResult = Union[Feasible, Optimal, Infeasible, Unbounded]


def verified(condition: bool, what: str) -> None:
    """Refuse to emit evidence that failed its re-check (survives ``python -O``)."""
    if not condition:
        raise RuntimeError(f"internal error: emitted {what} failed re-verification")


def _integer_vector(problem: LpProblem, x: Vector) -> tuple[tuple[int, ...], int]:
    """``(X, d)`` with integers X and ``d > 0`` such that ``x = X / d``."""
    if x.dim != problem.n_vars:
        raise ValueError(f"dimension mismatch: {problem.n_vars} vs {x.dim}")
    d, X = integer_form(x.entries)
    return X, d


def _holds(c: Constraint, X: Sequence[int], d: int) -> bool:
    """Does c hold at ``X / d``?  With ``d = 0``, does it hold at X with rhs 0?

    Every row, a sign row included, is compared in its integer form,
    ``a.X REL b.d``.
    """
    row = c.integer_row[1]
    value = sum(map(operator.mul, row, X)) - row[-1] * d
    if c.relation == LE:
        return value <= 0
    if c.relation == GE:
        return value >= 0
    return value == 0


def _holds_all(problem: LpProblem, X: Sequence[int], d: int) -> bool:
    return all(_holds(c, X, d) for c in problem.normalized().constraints)


def verify_witness(problem: LpProblem, x: Vector) -> bool:
    """Does x satisfy every constraint of the normalized problem exactly?"""
    return _holds_all(problem, *_integer_vector(problem, x))


def verify_infeasibility_certificate(
    problem: LpProblem, certificate: Sequence[Fraction]
) -> bool:
    """Check a Farkas certificate by pure arithmetic.

    Multiplier r applies to constraint r of the normalized problem, oriented
    as "<=" (for ">=" rows the multiplier applies to the negated row).  A valid
    certificate has nonnegative multipliers on inequality rows and combines the
    rows into the contradiction 0 <= negative, i.e. 0 >= positive.

    The combination is formed in integers: multiplier ``y = p / q`` of a row
    with integer form ``scale * (a, b)`` weighs that form by the integer ``p``
    over ``q * scale``, and all weights are brought over one common
    denominator.  A sign row is weighed like any other row.  The weights need
    not be in lowest terms: the test reads only zeros and a sign, which a
    positive common factor keeps.
    """
    constraints = problem.normalized().constraints
    if len(certificate) != len(constraints):
        return False
    n = problem.n_vars
    # (numerator, denominator, row) of each weighted row.
    weighted: list[tuple[int, int, Sequence[int]]] = []
    for mult, c in zip(certificate, constraints):
        if c.relation != EQ and mult < 0:
            return False
        if mult == 0:
            continue
        scale, row = c.integer_row
        # The multiplier of a ">=" row applies to the row negated into "<=".
        p = -mult.numerator if c.relation == GE else mult.numerator
        weighted.append((p, mult.denominator * scale, row))
    d = math.lcm(*(q for _, q, _ in weighted))
    combo = [0] * (n + 1)
    for p, q, row in weighted:
        k = p * (d // q)
        for j, a in enumerate(row):
            if a:
                combo[j] += k * a
    return not any(combo[:n]) and combo[n] < 0


def verify_ray(problem: LpProblem, ray: Vector) -> bool:
    """Does the ray preserve feasibility for all positive steps and improve the objective?"""
    norm = problem.normalized()
    if norm.objective is None:
        return False
    R, _ = _integer_vector(norm, ray)
    if not _holds_all(norm, R, 0):
        return False
    gain = norm.objective.coeffs.dot(ray)
    return gain > 0 if norm.objective.direction == "max" else gain < 0


class _Tableau:
    """The dense simplex tableau of a normalized problem, in maximization
    form, with integer rows.

    Sign rows (see :attr:`Constraint.sign_row`) stay out of the tableau: a
    variable with one gets a single nonnegative column, and every other
    variable is split as x = p - q.  Each kept row is its integer row
    (:attr:`Constraint.integer_row`), the constraint times ``scale``, the lcm
    of its denominators; the rational problem and so every pivot are
    unchanged.  The row is oriented so that its rhs is nonnegative, a
    ``>= 0`` row becoming ``<= 0``.  An inequality gets a slack with
    coefficient ``+-scale``; where that coefficient is positive the slack
    starts basic.  Only ``=`` rows, and rows that read ``>=`` with a positive
    rhs once oriented, get an artificial (coefficient ``scale``); with none,
    phase 1 is skipped.

    Row i stands for the rational tableau row ``rows[i] / rows[i][basis[i]]``:
    every row is an equation, so it is kept as a primitive integer vector whose
    basic entry is positive instead of being divided through to 1.  The
    objective row stands for ``obj / obj_scale`` with ``obj_scale > 0``.  Both
    scalings are positive, so every sign, ratio and Bland tie-break is the one
    the rational tableau would see, and pivots never build a Fraction.
    Fractions appear only where costs enter, in :meth:`set_objective`, and
    where evidence leaves: the optimal value and the certificate read-out,
    one Fraction per entry (the basic solution and rays leave as integers
    over one denominator).
    """

    def __init__(self, problem: LpProblem):
        n = problem.n_vars
        self.problem = problem
        # sign_rows[r] = (j, |a|) for the first sign row r of each variable x_j.
        self.sign_rows: dict[int, tuple[int, Fraction]] = {}
        signed: set[int] = set()
        kept = []
        for r, c in enumerate(problem.constraints):
            sign = c.sign_row
            if sign is None:
                scale, a = c.integer_row
                flip = a[n] < 0 or (a[n] == 0 and c.relation == GE)
                if flip:
                    a = tuple(-x for x in a)
                relation = _REVERSED[c.relation] if flip else c.relation
                kept.append((r, c, flip, scale, a, relation))
            elif sign[0] not in signed:
                signed.add(sign[0])
                self.sign_rows[r] = sign
        # Column j holds x_j (or p_j); split[j] is the column of q_j, if any.
        self.split: list[Optional[int]] = [None] * n
        n_structural = n
        for j in range(n):
            if j not in signed:
                self.split[j] = n_structural
                n_structural += 1
        self.art_start = n_structural + sum(1 for *_, rel in kept if rel != EQ)
        self.n_cols = self.art_start + sum(1 for *_, rel in kept if rel != LE)
        # Each row has n_cols + 1 entries, the last is the rhs.
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.obj: list[int] = []
        self.obj_scale = 1
        self.n_entering = self.n_cols  # columns from here on may not enter the basis
        # Kept row r -> its starting basic column, and whether its multiplier
        # changes sign on the way out (negated here xor a ">=" row).
        self.start: dict[int, tuple[int, bool]] = {}
        slack_col, art_col = n_structural, self.art_start
        for r, c, flip, scale, a, relation in kept:
            row = [0] * (self.n_cols + 1)
            row[:n] = a[:n]
            for j, q in enumerate(self.split):
                if q is not None:
                    row[q] = -a[j]
            row[self.n_cols] = a[n]
            if relation == LE:
                row[slack_col] = scale
                basic = slack_col
                slack_col += 1
            else:
                if relation == GE:
                    row[slack_col] = -scale
                    slack_col += 1
                row[art_col] = scale
                basic = art_col
                art_col += 1
            self.rows.append(row)
            self.basis.append(basic)
            self.start[r] = (basic, flip != (c.relation == GE))

    def set_objective(self, cost: Sequence[Union[int, Fraction]]) -> None:
        """Price out the basic columns of ``-cost`` in exact integers.

        The reduced-cost row is ``-cost + sum_i cost[b_i] * rows[i] / rows[i][b_i]``;
        ``obj_scale`` is a common multiple of the denominators of the costs and
        of those basic-cost factors, so every term is an integer.  The factors
        are kept unreduced, as numerator and denominator: dividing out the gcd
        at the end gives the same row as reduced factors would.
        """
        factors = [
            (cost[b].numerator, cost[b].denominator * row[b], row)
            for row, b in zip(self.rows, self.basis)
            if cost[b]
        ]
        scale = math.lcm(*(c.denominator for c in cost), *(den for _, den, _ in factors))
        obj = [-(c.numerator * (scale // c.denominator)) for c in cost] + [0]
        for num, den, row in factors:
            k = num * (scale // den)
            obj = [o + k * x for o, x in zip(obj, row)]
        g = math.gcd(*obj, scale)
        self.obj = [o // g for o in obj]
        self.obj_scale = scale // g

    def _pivot(self, row_idx: int, col: int) -> None:
        pivot_row = self.rows[row_idx]
        pivot = pivot_row[col]
        if pivot < 0:
            # The phase-1 drive-out may pivot on a negative entry; the new
            # basic entry must be positive.
            pivot = -pivot
            self.rows[row_idx] = pivot_row = [-x for x in pivot_row]
        for i, row in enumerate(self.rows):
            factor = row[col]
            if i != row_idx and factor != 0:
                new = [pivot * x - factor * y for x, y in zip(row, pivot_row)]
                g = math.gcd(*new)
                self.rows[i] = [x // g for x in new] if g > 1 else new
        factor = self.obj[col]
        if factor != 0:
            new = [pivot * x - factor * y for x, y in zip(self.obj, pivot_row)]
            scale = self.obj_scale * pivot
            g = math.gcd(*new, scale)
            self.obj = [x // g for x in new]
            self.obj_scale = scale // g
        self.basis[row_idx] = col

    def run(self) -> Optional[int]:
        """Iterate to optimality; returns an entering column if unbounded."""
        rhs = self.n_cols
        while True:
            obj = self.obj
            entering = next((j for j in range(self.n_entering) if obj[j] < 0), None)
            if entering is None:
                return None
            # Bland's ratio test, min rhs_i / a_i over a_i > 0, by cross-multiplication.
            leaving = None
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > 0:
                    if leaving is None:
                        leaving, best_rhs, best_a = i, row[rhs], a
                        continue
                    here, best = row[rhs] * best_a, best_rhs * a
                    if here < best or (here == best and self.basis[i] < self.basis[leaving]):
                        leaving, best_rhs, best_a = i, row[rhs], a
            if leaving is None:
                return entering
            self._pivot(leaving, entering)

    def phase_one(self) -> Optional[tuple[Fraction, ...]]:
        """Reach a feasible basis and return None, or return a Farkas certificate."""
        if self.art_start == self.n_cols:
            return None  # the slack basis is feasible
        self.set_objective([0] * self.art_start + [-1] * (self.n_cols - self.art_start))
        entering = self.run()
        if entering is not None:
            raise RuntimeError("internal error: phase 1, bounded above by 0, came out unbounded")
        if self.obj[self.n_cols] < 0:  # the phase-1 optimum, as obj_scale > 0
            return self._certificate()
        # Drive any remaining artificial out of the basis, or drop its row.
        for i in range(len(self.basis) - 1, -1, -1):
            if self.basis[i] >= self.art_start:
                pivot_col = next((j for j in range(self.art_start) if self.rows[i][j] != 0), None)
                if pivot_col is None:
                    del self.rows[i]
                    del self.basis[i]
                else:
                    self._pivot(i, pivot_col)
        self.n_entering = self.art_start
        return None

    def _certificate(self) -> tuple[Fraction, ...]:
        """The Farkas multipliers of a phase 1 that ended negative.

        For the phase-1 duals y (per unscaled kept row), a starting column has
        reduced cost ``y_r + 1`` for an artificial (cost -1) and ``y_r`` for a
        slack (cost 0), as it is ``scale[r]`` times the unit vector in the
        scaled row.  Nonnegative reduced costs on the other columns give
        ``y.A = 0`` on split variables, ``y.A >= 0`` on signed ones, and the
        right sign on every inequality row; ``y.b`` is the negative optimum.
        The first sign row of a signed x_j, oriented as ``-|a| x_j <= 0``, takes
        the reduced cost of column j over ``|a|`` and so cancels it; further
        sign rows of x_j take 0.  Rhs sign flips are undone and ``>=`` rows are
        oriented as ``<=``.  Each multiplier is formed as an integer numerator
        over ``obj_scale`` and leaves as one Fraction.
        """
        certificate = []
        for r in range(len(self.problem.constraints)):
            if r in self.start:
                col, flip = self.start[r]
                y = self.obj[col]
                if col >= self.art_start:
                    y -= self.obj_scale
                certificate.append(Fraction(-y if flip else y, self.obj_scale))
            elif r in self.sign_rows:
                j, a = self.sign_rows[r]
                y = Fraction(self.obj[j] * a.denominator, self.obj_scale * a.numerator)
                certificate.append(y)
            else:
                certificate.append(_ZERO)
        return tuple(certificate)

    def _original(self, values: dict[int, tuple[int, int]]) -> tuple[list[int], int]:
        """``(X, d)`` with ``x = X / d`` in the problem's variables, from the
        standard-form values ``{column: (numerator, denominator > 0)}``."""
        d = math.lcm(*(den for _, den in values.values()))
        std = [0] * self.n_cols
        for col, (num, den) in values.items():
            std[col] = num * (d // den)
        return [std[j] if q is None else std[j] - std[q] for j, q in enumerate(self.split)], d

    def solution(self) -> tuple[list[int], int]:
        """The basic solution, as ``(X, d)``."""
        return self._original({b: (row[-1], row[b]) for row, b in zip(self.rows, self.basis)})

    def ray(self, entering: int) -> tuple[list[int], int]:
        """The ray along a column that no row bounds, as ``(R, d)``."""
        values = {b: (-row[entering], row[b]) for row, b in zip(self.rows, self.basis)}
        values[entering] = (1, 1)
        return self._original(values)


def _max_cost(problem: LpProblem, t: _Tableau) -> list[Fraction]:
    obj = problem.objective
    if obj is None:
        raise RuntimeError("internal error: phase 2 priced a problem without an objective")
    sign = Fraction(1) if obj.direction == "max" else Fraction(-1)
    cost = [Fraction(0)] * t.n_cols
    for j, q in enumerate(t.split):
        cost[j] = sign * obj.coeffs[j]
        if q is not None:
            cost[q] = -cost[j]
    return cost


def _vector(X: Sequence[int], d: int) -> Vector:
    return Vector(tuple(Fraction(x, d) for x in X))


def _checked_witness(problem: LpProblem, t: _Tableau) -> Vector:
    """The basic solution, checked in integers before it leaves as Fractions."""
    X, d = t.solution()
    verified(_holds_all(problem, X, d), "LP witness")
    return _vector(X, d)


def solve(problem: LpProblem) -> LpResult:
    """Solve exactly; certificates refer to problem.normalized().constraints."""
    problem = problem.normalized()
    t = _Tableau(problem)
    certificate = t.phase_one()
    if certificate is not None:
        verified(verify_infeasibility_certificate(problem, certificate), "Farkas certificate")
        return Infeasible(certificate)
    if problem.objective is None:
        return Feasible(_checked_witness(problem, t))
    t.set_objective(_max_cost(problem, t))
    entering = t.run()
    witness = _checked_witness(problem, t)
    if entering is not None:
        ray = _vector(*t.ray(entering))
        verified(verify_ray(problem, ray), "improving ray")
        return Unbounded(ray=ray, witness=witness)
    sign = 1 if problem.objective.direction == "max" else -1
    value = Fraction(sign * t.obj[t.n_cols], t.obj_scale)
    verified(problem.objective.coeffs.dot(witness) == value, "optimal value")
    return Optimal(witness, value)


def combination_rows(columns: Sequence[Vector], target: Vector) -> list[Constraint]:
    """The rows of ``target = sum_k x_k columns[k]``: one equality per
    coordinate i, whose coefficients are the columns' entries i in column
    order, over one variable x_k per column."""
    return [
        Constraint(Vector(tuple(column[i] for column in columns)), EQ, target[i])
        for i in range(target.dim)
    ]


def strict_row(s: Vector) -> Constraint:
    """The strict row ``s . x > 0`` of a homogeneous system, as ``s . x >= 1``.

    The system is homogeneous in x and has finitely many rows, so any strict
    solution scales to one with every strict row at least 1, and conversely.
    The system's rows, ``a.x <= 0``, ``a.x >= 0``, ``a.x = 0`` and these, go
    to :func:`solve` as one ``LpProblem``, which answers with a checked
    solution or a checked Farkas certificate indexing them.
    """
    return Constraint(s, GE, _ONE)


@cache
def nonneg_rows(n: int) -> tuple[Constraint, ...]:
    """The sign rows ``x_k >= 0`` over n variables, k = 0..n-1, built once per n."""
    return tuple(Constraint(unit_vector(n, k), GE, _ZERO) for k in range(n))


@cache
def strict_unit_rows(n: int) -> tuple[Constraint, ...]:
    """The strict rows ``x_k > 0`` over n variables, k = 0..n-1, built once per n."""
    return tuple(strict_row(unit_vector(n, k)) for k in range(n))


@cache
def strict_sum_row(n: int) -> Constraint:
    """The strict row ``x_1 + ... + x_n > 0``, built once per n."""
    return strict_row(ones(n))


@cache
def sum_to_one_row(n: int) -> Constraint:
    """The row ``x_1 + ... + x_n = 1``, built once per n."""
    return Constraint(ones(n), EQ, _ONE)
