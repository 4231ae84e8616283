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

Negative answers carry checkable evidence:

* infeasibility comes with a Farkas multiplier vector, read off the final
  phase-1 tableau (the duals of the artificial columns) and re-verified by
  substitution before being returned;
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


def _oriented(c: Constraint) -> tuple[Vector, Fraction]:
    # Rewrite the row in "<=" orientation (equalities stay put, multiplier free).
    if c.relation == GE:
        return -c.coeffs, -c.rhs
    return c.coeffs, c.rhs


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
        coeffs, rhs = _oriented(c)
        for j in range(n):
            combo[j] += mult * coeffs[j]
        rhs_combo += mult * rhs
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


class _StandardForm:
    """Standard-form encoding of a normalized problem, as integer rows.

    Free variables are split as x = p - q; every row gets a slack (inequalities)
    and an artificial variable with coefficient 1.  Constraint r is then
    multiplied by ``scale[r]``, the lcm of its denominators, so that it is an
    integer equation (its artificial's coefficient becomes ``scale[r]``); the
    rational problem and so every pivot are unchanged.  Right-hand sides are
    made nonnegative, and the rows negated for that are recorded in ``negated``.
    """

    def __init__(self, problem: LpProblem):
        n = problem.n_vars
        m = len(problem.constraints)
        self.n = n
        self.problem = problem
        n_slacks = sum(1 for c in problem.constraints if c.relation != EQ)
        self.n_cols = 2 * n + n_slacks + m
        self.art_start = 2 * n + n_slacks
        rows: list[list[int]] = []
        basis: list[int] = []
        self.negated: set[int] = set()
        slack_idx = 2 * n
        for r, c in enumerate(problem.constraints):
            entries = (*c.coeffs.entries, c.rhs)
            scale = math.lcm(*(x.denominator for x in entries))
            a = [x.numerator * (scale // x.denominator) for x in entries]
            row = [0] * (self.n_cols + 1)
            row[:n] = a[:n]
            row[n : 2 * n] = [-x for x in a[:n]]
            if c.relation == LE:
                row[slack_idx] = scale
                slack_idx += 1
            elif c.relation == GE:
                row[slack_idx] = -scale
                slack_idx += 1
            row[self.n_cols] = a[n]
            if a[n] < 0:
                row = [-x for x in row]
                self.negated.add(r)
            art_col = self.art_start + r
            row[art_col] = scale
            rows.append(row)
            basis.append(art_col)
        self.tableau = _Tableau(rows, basis, self.n_cols)

    def phase_one(self) -> Optional[tuple[Fraction, ...]]:
        """Reach a feasible basis and return None, or return a Farkas certificate."""
        t = self.tableau
        t.set_objective([0] * self.art_start + [-1] * (self.n_cols - self.art_start))
        entering = t.run()
        assert entering is None  # phase-1 objective is bounded above by 0
        if t.value() < 0:
            # Row r's artificial has cost -1 and column e_r, so its reduced cost
            # is y_r + 1 for the phase-1 duals y.  Nonnegative reduced costs on
            # the split x columns and the slacks give y.A = 0 with the right sign
            # on every inequality row, and y.b is the negative optimum.  Undo the
            # rhs sign flips and orient ">=" rows as "<=".
            certificate = []
            for r, c in enumerate(self.problem.constraints):
                y = Fraction(t.obj[self.art_start + r], t.obj_scale) - 1
                flip = (r in self.negated) != (c.relation == GE)
                certificate.append(-y if flip else y)
            return tuple(certificate)
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

    def extract(self, std: list[Fraction]) -> Vector:
        return Vector(tuple(std[j] - std[self.n + j] for j in range(self.n)))

    def extract_ray(self, entering: int) -> Vector:
        t = self.tableau
        ray = [Fraction(0)] * self.n_cols
        ray[entering] = Fraction(1)
        for row, b in zip(t.rows, t.basis):
            ray[b] = Fraction(-row[entering], row[b])
        return self.extract(ray)


def _max_cost(problem: LpProblem, n_cols: int, n: int) -> list[Fraction]:
    obj = problem.objective
    assert obj is not None
    sign = Fraction(1) if obj.direction == "max" else Fraction(-1)
    cost = [Fraction(0)] * n_cols
    for j in range(n):
        cost[j] = sign * obj.coeffs[j]
        cost[n + j] = -sign * obj.coeffs[j]
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
    cost = _max_cost(problem, form.n_cols, form.n)
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
