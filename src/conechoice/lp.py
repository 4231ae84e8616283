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
where they leave (witnesses, optimal values, certificates and rays).

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

Strict inequalities never appear in an ``LpProblem``.  Homogeneous strict
systems are decided through :func:`strict_homogeneous_feasible` (each strict
row ``row . x > 0`` is replaced by ``row . x >= 1``, valid by homogeneity),
and non-homogeneous ones through :func:`max_margin`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .numeric import Vector, unit_vector, zero_vector

LE = "<="
EQ = "="
GE = ">="

_RELATIONS = (LE, EQ, GE)
_REVERSED = {LE: GE, EQ: EQ, GE: LE}


@dataclass(frozen=True)
class Constraint:
    coeffs: Vector
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    def holds_at(self, x: Vector) -> bool:
        value = self.coeffs.dot(x)
        if self.relation == LE:
            return value <= self.rhs
        if self.relation == GE:
            return value >= self.rhs
        return value == self.rhs


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


def verify_witness(problem: LpProblem, x: Vector) -> bool:
    """Does x satisfy every constraint of the normalized problem exactly?"""
    return all(c.holds_at(x) for c in problem.normalized().constraints)


def verify_infeasibility_certificate(
    problem: LpProblem, certificate: Sequence[Fraction]
) -> bool:
    """Check a Farkas certificate by pure arithmetic.

    Multiplier r applies to constraint r of the normalized problem, oriented
    as "<=" (for ">=" rows the multiplier applies to the negated row).  A valid
    certificate has nonnegative multipliers on inequality rows and combines the
    rows into the contradiction 0 <= negative, i.e. 0 >= positive.
    """
    constraints = problem.normalized().constraints
    if len(certificate) != len(constraints):
        return False
    n = problem.n_vars
    combo = [Fraction(0)] * n
    rhs_combo = Fraction(0)
    for mult, c in zip(certificate, constraints):
        if c.relation != EQ and mult < 0:
            return False
        if mult == 0:
            continue
        # The multiplier of a ">=" row applies to the row negated into "<=".
        if c.relation == GE:
            mult = -mult
        for j, a in enumerate(c.coeffs.entries):
            if a:
                combo[j] += mult * a
        rhs_combo += mult * c.rhs
    return all(v == 0 for v in combo) and rhs_combo < 0


def verify_ray(problem: LpProblem, ray: Vector) -> bool:
    """Does the ray preserve feasibility for all positive steps and improve the objective?"""
    norm = problem.normalized()
    if norm.objective is None:
        return False
    for c in norm.constraints:
        value = c.coeffs.dot(ray)
        if c.relation == LE and value > 0:
            return False
        if c.relation == GE and value < 0:
            return False
        if c.relation == EQ and value != 0:
            return False
    gain = norm.objective.coeffs.dot(ray)
    return gain > 0 if norm.objective.direction == "max" else gain < 0


class _Tableau:
    """A dense simplex tableau with integer rows (maximization form).

    Row i stands for the rational tableau row ``rows[i] / rows[i][basis[i]]``:
    every row is an equation, so it is kept as a primitive integer vector whose
    basic entry is positive instead of being divided through to 1.  The
    objective row stands for ``obj / obj_scale`` with ``obj_scale > 0``.  Both
    scalings are positive, so every sign, ratio and Bland tie-break is the one
    the rational tableau would see, and pivots never build a Fraction.
    Fractions appear only where costs enter, in :meth:`set_objective`, and
    where values leave: :meth:`value`, :meth:`basic_solution` and the
    certificate and ray read-outs.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], n_cols: int):
        self.rows = rows  # each row has n_cols + 1 entries, last is the rhs
        self.basis = basis
        self.n_cols = n_cols
        self.obj: list[int] = []
        self.obj_scale = 1
        self.n_entering = n_cols  # columns from here on may not enter the basis

    def set_objective(self, cost: Sequence[Union[int, Fraction]]) -> None:
        """Price out the basic columns of ``-cost`` in exact integers.

        The reduced-cost row is ``-cost + sum_i cost[b_i] * rows[i] / rows[i][b_i]``;
        ``obj_scale`` is the lcm of the denominators of the costs and of those
        basic-cost factors, so every term is an integer.
        """
        factors = [
            (Fraction(cost[b], self.rows[i][b]), self.rows[i])
            for i, b in enumerate(self.basis)
            if cost[b] != 0
        ]
        scale = math.lcm(*(c.denominator for c in cost), *(f.denominator for f, _ in factors))
        obj = [-(c.numerator * (scale // c.denominator)) for c in cost] + [0]
        for f, row in factors:
            k = f.numerator * (scale // f.denominator)
            obj = [o + k * x for o, x in zip(obj, row)]
        g = math.gcd(*obj, scale)
        self.obj = [o // g for o in obj]
        self.obj_scale = scale // g

    def value(self) -> Fraction:
        return Fraction(self.obj[self.n_cols], self.obj_scale)

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

    def basic_solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n_cols
        for row, b in zip(self.rows, self.basis):
            x[b] = Fraction(row[self.n_cols], row[b])
        return x


def _sign_row(c: Constraint) -> Optional[tuple[int, Fraction]]:
    """``(j, |a|)`` when the row says only ``x_j >= 0``, else None.

    A sign row has one nonzero coefficient ``a`` and rhs 0, and reads
    ``a x_j >= 0`` with ``a > 0`` or ``a x_j <= 0`` with ``a < 0``.
    """
    if c.rhs or c.relation == EQ:
        return None
    nonzero = [j for j, a in enumerate(c.coeffs.entries) if a]
    if len(nonzero) != 1:
        return None
    a = c.coeffs[nonzero[0]]
    return (nonzero[0], abs(a)) if (a > 0) == (c.relation == GE) else None


class _StandardForm:
    """Standard-form encoding of a normalized problem, as integer rows.

    Sign rows (see :func:`_sign_row`) stay out of the tableau: a variable with
    one gets a single nonnegative column, and every other variable is split as
    x = p - q.  Each kept row is multiplied by ``scale``, the lcm of its
    denominators, so that it is an integer equation; the rational problem and
    so every pivot are unchanged.  The row is oriented so that its rhs is
    nonnegative, a ``>= 0`` row becoming ``<= 0``.  An inequality gets a slack
    with coefficient ``+-scale``; where that coefficient is positive the slack
    starts basic.  Only ``=`` rows, and rows that read ``>=`` with a positive
    rhs once oriented, get an artificial (coefficient ``scale``); with none,
    phase 1 is skipped.
    """

    def __init__(self, problem: LpProblem):
        n = problem.n_vars
        self.problem = problem
        # sign_rows[r] = (j, |a|) for the first sign row r of each variable x_j.
        self.sign_rows: dict[int, tuple[int, Fraction]] = {}
        signed: set[int] = set()
        kept = []
        for r, c in enumerate(problem.constraints):
            sign = _sign_row(c)
            if sign is None:
                flip = c.rhs < 0 or (c.rhs == 0 and c.relation == GE)
                relation = _REVERSED[c.relation] if flip else c.relation
                kept.append((r, c, flip, relation))
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
        rows: list[list[int]] = []
        basis: list[int] = []
        # Kept row r -> its starting basic column, and whether its multiplier
        # changes sign on the way out (negated here xor a ">=" row).
        self.start: dict[int, tuple[int, bool]] = {}
        slack_col, art_col = n_structural, self.art_start
        for r, c, flip, relation in kept:
            entries = (*c.coeffs.entries, c.rhs)
            scale = math.lcm(*(x.denominator for x in entries))
            a = [x.numerator * (scale // x.denominator) for x in entries]
            if flip:
                a = [-x for x in a]
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
            rows.append(row)
            basis.append(basic)
            self.start[r] = (basic, flip != (c.relation == GE))
        self.tableau = _Tableau(rows, basis, self.n_cols)

    def phase_one(self) -> Optional[tuple[Fraction, ...]]:
        """Reach a feasible basis and return None, or return a Farkas certificate."""
        t = self.tableau
        if self.art_start == self.n_cols:
            return None  # the slack basis is feasible
        t.set_objective([0] * self.art_start + [-1] * (self.n_cols - self.art_start))
        entering = t.run()
        assert entering is None  # phase-1 objective is bounded above by 0
        if t.value() < 0:
            return self._certificate()
        # Drive any remaining artificial out of the basis, or drop its row.
        for i in range(len(t.basis) - 1, -1, -1):
            if t.basis[i] >= self.art_start:
                pivot_col = next(
                    (j for j in range(self.art_start) if t.rows[i][j] != 0), None
                )
                if pivot_col is None:
                    del t.rows[i]
                    del t.basis[i]
                else:
                    t._pivot(i, pivot_col)
        t.n_entering = self.art_start
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
        oriented as ``<=``.
        """
        t = self.tableau
        certificate = []
        for r in range(len(self.problem.constraints)):
            if r in self.start:
                col, flip = self.start[r]
                y = Fraction(t.obj[col], t.obj_scale)
                if col >= self.art_start:
                    y -= 1
                certificate.append(-y if flip else y)
            elif r in self.sign_rows:
                j, a = self.sign_rows[r]
                certificate.append(Fraction(t.obj[j], t.obj_scale) / a)
            else:
                certificate.append(Fraction(0))
        return tuple(certificate)

    def extract(self, std: list[Fraction]) -> Vector:
        return Vector(
            tuple(std[j] if q is None else std[j] - std[q] for j, q in enumerate(self.split))
        )

    def extract_ray(self, entering: int) -> Vector:
        t = self.tableau
        ray = [Fraction(0)] * self.n_cols
        ray[entering] = Fraction(1)
        for row, b in zip(t.rows, t.basis):
            ray[b] = Fraction(-row[entering], row[b])
        return self.extract(ray)


def _max_cost(problem: LpProblem, form: _StandardForm) -> list[Fraction]:
    obj = problem.objective
    assert obj is not None
    sign = Fraction(1) if obj.direction == "max" else Fraction(-1)
    cost = [Fraction(0)] * form.n_cols
    for j, q in enumerate(form.split):
        cost[j] = sign * obj.coeffs[j]
        if q is not None:
            cost[q] = -cost[j]
    return cost


def _solve_normalized(problem: LpProblem) -> LpResult:
    if not problem.constraints:
        # Nothing constrains x; the origin is feasible.
        origin = zero_vector(problem.n_vars)
        if problem.objective is None:
            return Feasible(origin)
        if all(c == 0 for c in problem.objective.coeffs):
            return Optimal(origin, Fraction(0))
        sign = Fraction(1) if problem.objective.direction == "max" else Fraction(-1)
        ray = problem.objective.coeffs.scale(sign)
        return Unbounded(ray=ray, witness=origin)
    form = _StandardForm(problem)
    certificate = form.phase_one()
    if certificate is not None:
        verified(verify_infeasibility_certificate(problem, certificate), "Farkas certificate")
        return Infeasible(certificate)
    if problem.objective is None:
        witness = form.extract(form.tableau.basic_solution())
        verified(verify_witness(problem, witness), "LP witness")
        return Feasible(witness)
    cost = _max_cost(problem, form)
    form.tableau.set_objective(cost)
    entering = form.tableau.run()
    witness = form.extract(form.tableau.basic_solution())
    verified(verify_witness(problem, witness), "LP witness")
    if entering is not None:
        ray = form.extract_ray(entering)
        verified(verify_ray(problem, ray), "improving ray")
        return Unbounded(ray=ray, witness=witness)
    value = form.tableau.value()
    if problem.objective.direction == "min":
        value = -value
    verified(problem.objective.coeffs.dot(witness) == value, "optimal value")
    return Optimal(witness, value)


def solve(problem: LpProblem) -> LpResult:
    """Solve exactly; certificates refer to problem.normalized().constraints."""
    return _solve_normalized(problem.normalized())


def strict_homogeneous_solve(
    strict: Sequence[Vector],
    nonpos: Sequence[Vector] = (),
    nonneg: Sequence[Vector] = (),
) -> LpResult:
    """Full LP result for the homogeneous strict system (see below)."""
    dims = {v.dim for v in (*strict, *nonpos, *nonneg)}
    if len(dims) != 1:
        raise ValueError("all rows must share one dimension")
    (dim,) = dims
    rows = [Constraint(s, GE, Fraction(1)) for s in strict]
    rows += [Constraint(t, LE, Fraction(0)) for t in nonpos]
    rows += [Constraint(w, GE, Fraction(0)) for w in nonneg]
    return solve(LpProblem(dim, tuple(rows)))


def strict_homogeneous_feasible(
    strict: Sequence[Vector],
    nonpos: Sequence[Vector] = (),
    nonneg: Sequence[Vector] = (),
) -> Optional[Vector]:
    """Find Lambda with Lambda.s > 0 (strict), Lambda.t <= 0, Lambda.w >= 0, or report absence.

    Each strict row is replaced by "... >= 1"; the system is homogeneous in
    Lambda and has finitely many rows, so any strict solution scales to a >= 1
    solution and conversely.
    """
    result = strict_homogeneous_solve(strict, nonpos, nonneg)
    if isinstance(result, Feasible):
        return result.witness
    return None


BaseRow = Union[Constraint, tuple[Vector, str, Fraction]]


def max_margin(
    base: Sequence[BaseRow],
    margin_rows: Sequence[Vector],
    cap: Fraction,
) -> Optional[Optimal]:
    """Maximize t <= cap subject to the base system and row . x >= t per margin row.

    The strict system {row . x > 0} (with the base rows) is feasible iff the
    optimum value is > 0, and then the witness's first n entries solve it.
    Returns None when the base system itself is infeasible (the -infinity
    sentinel).
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    if not margin_rows:
        raise ValueError("need at least one margin row")
    n = margin_rows[0].dim
    t_index = n
    rows: list[Constraint] = []
    for entry in base:
        if isinstance(entry, Constraint):
            coeffs, relation, rhs = entry.coeffs, entry.relation, entry.rhs
        else:
            coeffs, relation, rhs = entry
        rows.append(Constraint(Vector(tuple(coeffs.entries) + (Fraction(0),)), relation, rhs))
    for row in margin_rows:
        rows.append(
            Constraint(Vector(tuple(row.entries) + (Fraction(-1),)), GE, Fraction(0))
        )
    rows.append(Constraint(unit_vector(n + 1, t_index), LE, cap))
    objective = Objective("max", unit_vector(n + 1, t_index))
    result = solve(LpProblem(n + 1, tuple(rows), objective))
    if isinstance(result, Infeasible):
        return None
    assert isinstance(result, Optimal)  # t <= cap keeps the objective bounded
    return result
