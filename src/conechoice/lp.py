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

Every answer carries checkable evidence:

* infeasibility comes with a Farkas multiplier vector, read off the final
  phase-1 tableau (the duals of the starting columns, and for sign rows the
  reduced costs of their variables) and re-verified by substitution before
  being returned;
* an optimum comes with its witness and its dual, read off the final phase-2
  tableau by the same routine (with no artificial cost there), and
  re-verified the same way (:func:`verify_optimality`): the witness attains
  the value, and the dual bounds every feasible point's objective by it
  (weak duality, Chvatal 1983, ch. 5);
* unboundedness comes with an improving ray read off the final tableau and
  re-verified the same way.

The checks run in integers with the same exact predicates.  A witness or ray
is read as an integer vector X over one denominator d, and each row is tested
as ``a.X REL b.d`` on its integer row.  A certificate or a dual weighs each
integer row by its multiplier over the row's scale, all over one common
denominator (``_row_combination``).  The checks read each row as written,
sign rows included, and never the tableau's layout, so a wrong layout cannot
pass its own evidence.

:func:`solve` is the one entry point, and every problem takes the same path
through it, a problem without rows included.  A problem is its rows, its
variable count and its objective, with no variable bounds: every certificate
and dual holds one multiplier per row of ``problem.constraints``, in the
order the caller built them.

Beside the checks sits the one combination search,
:func:`positive_combination`: is the target (or 0) a positive combination
of these columns?  Coherence, membership of a posi-generated cone and
Lambda_o's certificates all come down to it.  It tries one exact solve
before any LP and checks the terms it returns by substitution
(:func:`combination_reaches`), so every combination is checked where it is
made, by the same check.

Strict inequalities never appear in an ``LpProblem``.  Every strict system
is homogeneous and is decided by one :func:`solve`: its strict rows
``row . x > 0`` are built by :func:`strict_row` as ``row . x >= 1`` (valid
by homogeneity).  No engine system has constants beside its strict rows, so
none is homogenised first.  A strict system answers either with a checked
solution or with a Farkas certificate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import ClassVar, Optional, Sequence, Union

from .numeric import Vector, integer_form, ones, solve_in_span, unit_vector

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
        integer_row = integer_form((*self.coeffs.entries, self.rhs))
        # Read off the integer row, whose signs and zeros are the row's.
        *row, rhs = integer_row[1]
        sign_row = None
        if not rhs and self.relation != EQ:
            nonzero = [j for j, a in enumerate(row) if a]
            if len(nonzero) == 1:
                j = nonzero[0]
                if (row[j] > 0) == (self.relation == GE):
                    sign_row = (j, abs(self.coeffs[j]))
        object.__setattr__(self, "integer_row", integer_row)
        object.__setattr__(self, "sign_row", sign_row)


@dataclass(frozen=True)
class Objective:
    direction: str  # "max" | "min"
    coeffs: Vector

    def __post_init__(self) -> None:
        if self.direction not in ("max", "min"):
            raise ValueError(f"unknown direction {self.direction!r}")


@dataclass(frozen=True)
class LpProblem:
    n_vars: int
    constraints: tuple[Constraint, ...]
    objective: Optional[Objective] = None
    # Not a field: no problem has variable bounds.  perfbench/tracing.py
    # still reads ``problem.bounds or ()`` to count rows; ROADMAP item 2c
    # moves that read and removes this attribute.
    bounds: ClassVar[None] = None

    def __post_init__(self) -> None:
        if self.n_vars <= 0:
            raise ValueError("need at least one variable")
        for c in self.constraints:
            if len(c.coeffs.entries) != self.n_vars:
                raise ValueError("constraint coefficient vector has wrong length")
        if self.objective is not None and self.objective.coeffs.dim != self.n_vars:
            raise ValueError("objective coefficient vector has wrong length")


@dataclass(frozen=True)
class Feasible:
    witness: Vector


@dataclass(frozen=True)
class Optimal:
    """An optimal witness, its value, and the dual: one multiplier per row of
    the problem, as a certificate's (:func:`verify_optimality`)."""

    witness: Vector
    value: Fraction
    dual: tuple[Fraction, ...]


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


def _holds_all(problem: LpProblem, X: Sequence[int], d: int) -> bool:
    """Does every row hold at ``X / d``?  With ``d = 0``, at X with rhs 0?

    Every row, a sign row included, is compared in its integer form,
    ``a.X REL b.d``.
    """
    for c in problem.constraints:
        row = c.integer_row[1]
        value = sum(map(operator.mul, row, X)) - row[-1] * d
        relation = c.relation
        if value > 0 if relation == LE else value < 0 if relation == GE else value != 0:
            return False
    return True


def verify_witness(problem: LpProblem, x: Vector) -> bool:
    """Does x satisfy every row of the problem exactly?"""
    return _holds_all(problem, *_integer_vector(problem, x))


def _row_combination(
    problem: LpProblem, multipliers: Sequence[Fraction]
) -> Optional[tuple[list[int], int]]:
    """``(C, d)`` with ``C / d`` the sum of the problem's rows
    ``(a, b)``, each oriented as "<=" and weighed by its multiplier; None
    when there is not one multiplier per row or an inequality row's is
    negative.  For ">=" rows the multiplier applies to the negated row.

    The combination is formed in integers: multiplier ``y = p / q`` of a row
    with integer form ``scale * (a, b)`` weighs that form by the integer ``p``
    over ``q * scale``, and all weights are brought over one common
    denominator d.  A sign row is weighed like any other row.
    """
    if len(multipliers) != len(problem.constraints):
        return None
    # (numerator, denominator, row) of each weighted row.
    weighted: list[tuple[int, int, Sequence[int]]] = []
    for mult, c in zip(multipliers, problem.constraints):
        if c.relation != EQ and mult < 0:
            return None
        if mult == 0:
            continue
        scale, row = c.integer_row
        p = -mult.numerator if c.relation == GE else mult.numerator
        weighted.append((p, mult.denominator * scale, row))
    d = math.lcm(*(q for _, q, _ in weighted))
    combo = [0] * (problem.n_vars + 1)
    for p, q, row in weighted:
        k = p * (d // q)
        for j, a in enumerate(row):
            if a:
                combo[j] += k * a
    return combo, d


def verify_infeasibility_certificate(
    problem: LpProblem, certificate: Sequence[Fraction]
) -> bool:
    """Check a Farkas certificate by pure arithmetic.

    Multiplier r applies to row r of the problem, as written, oriented
    as "<=".  A valid certificate has nonnegative multipliers on inequality
    rows and combines the rows (``_row_combination``) into the contradiction
    0 <= negative, i.e. 0 >= positive.  The test reads only zeros and a sign,
    which the combination's positive denominator keeps.
    """
    combined = _row_combination(problem, certificate)
    return combined is not None and not any(combined[0][:-1]) and combined[0][-1] < 0


def verify_optimality(problem: LpProblem, result: Optimal) -> bool:
    """Check an optimum by pure arithmetic: the witness satisfies every row
    and attains the value, and the dual combines the rows, oriented as "<="
    with nonnegative multipliers on inequality rows (``_row_combination``),
    into ``c.x <= value`` for a max problem and ``-c.x <= -value`` for a
    min problem.  Every feasible x then has ``c.x`` at most (at least) the
    value, so the witness is optimal."""
    objective = problem.objective
    combined = _row_combination(problem, result.dual)
    if objective is None or combined is None or not verify_witness(problem, result.witness):
        return False
    combo, d = combined
    sign = 1 if objective.direction == "max" else -1
    target = (*objective.coeffs.entries, result.value)
    return objective.coeffs.dot(result.witness) == result.value and all(
        x * t.denominator == sign * d * t.numerator for x, t in zip(combo, target)
    )


Combination = tuple[tuple[Vector, Fraction], ...]


def combination_reaches(combination: Sequence[tuple[Vector, Fraction]], target: Vector) -> bool:
    """Are the coefficients nonnegative and the sum of the terms the target?
    Checked by substitution, in integers over one common denominator.

    With the coefficients ``a_k = A_k / D`` and each vector ``v_k = V_k /
    s_k`` in integers (``integer_form``), and L the lcm of the s_k, the sum
    is ``sum_k A_k (L / s_k) V_k`` over ``D L``, compared with the target's
    integers ``T / s`` by cross-multiplying."""
    if not combination:
        return target.is_zero()
    if any(coeff < 0 for _, coeff in combination):
        return False
    D, A = integer_form([coeff for _, coeff in combination])
    forms = [integer_form(v.entries) for v, _ in combination]
    L = math.lcm(*(s for s, _ in forms))
    total = [0] * target.dim
    for a, (s, V) in zip(A, forms):
        k = a * (L // s)
        if k:
            for i, x in enumerate(V):
                total[i] += k * x
    s, T = integer_form(target.entries)
    DL = D * L
    return all(x * s == t * DL for x, t in zip(total, T))


def nonzero_terms(columns: Sequence[Vector], x: Sequence[Fraction]) -> Combination:
    """The terms ``(columns[k], x_k)`` with ``x_k != 0``, x read over the
    columns' count."""
    return tuple((c, a) for c, a in zip(columns, x) if a)


def verify_ray(problem: LpProblem, ray: Vector) -> bool:
    """Does the ray preserve feasibility for all positive steps and improve the objective?"""
    objective = problem.objective
    if objective is None:
        return False
    R, _ = _integer_vector(problem, ray)
    if not _holds_all(problem, R, 0):
        return False
    gain = objective.coeffs.dot(ray)
    return gain > 0 if objective.direction == "max" else gain < 0


class _Tableau:
    """The dense simplex tableau of a problem's rows as written, in
    maximization form, with integer rows.

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
        n_slack = n_art = 0
        for r, c in enumerate(problem.constraints):
            sign = c.sign_row
            if sign is None:
                scale, a = c.integer_row
                relation = c.relation
                flip = a[n] < 0 or (a[n] == 0 and relation == GE)
                if flip:
                    a = [-x for x in a]
                    relation = _REVERSED[relation]
                n_slack += relation != EQ
                n_art += relation != LE
                kept.append((r, flip != (c.relation == GE), scale, a, relation))
            elif sign[0] not in signed:
                signed.add(sign[0])
                self.sign_rows[r] = sign
        # Column j holds x_j (or p_j); split[j] is the column of q_j, if any.
        self.split: list[Optional[int]] = [None] * n
        unsigned = [j for j in range(n) if j not in signed]
        for q, j in enumerate(unsigned, start=n):
            self.split[j] = q
        n_structural = n + len(unsigned)
        self.art_start = n_structural + n_slack
        self.n_cols = self.art_start + n_art
        # Each row has n_cols + 1 entries, the last is the rhs.
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.obj: list[int] = []
        self.obj_scale = 1
        self.n_entering = self.n_cols  # columns from here on may not enter the basis
        # Kept row r -> its starting basic column, and whether its multiplier
        # changes sign on the way out (negated here xor a ">=" row).
        self.start: dict[int, tuple[int, bool]] = {}
        # Each row is built in one pass: its structural entries, then its
        # slack and artificial block, which holds at most two nonzeros, at
        # offsets k (the next slack) and a_off (the next artificial).
        block = [0] * (n_slack + n_art)
        k, a_off = 0, n_slack
        for r, turned, scale, a, relation in kept:
            extra = block[:]
            if relation == LE:
                extra[k] = scale
                basic = n_structural + k
                k += 1
            else:
                if relation == GE:
                    extra[k] = -scale
                    k += 1
                extra[a_off] = scale
                basic = n_structural + a_off
                a_off += 1
            self.rows.append([*a[:n], *[-a[j] for j in unsigned], *extra, a[n]])
            self.basis.append(basic)
            self.start[r] = (basic, turned)

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
        denominators = [c.denominator for c in cost]
        scale = math.lcm(*denominators, *(den for _, den, _ in factors))
        obj = [-(c.numerator * (scale // q)) for c, q in zip(cost, denominators)] + [0]
        for num, den, row in factors:
            k = num * (scale // den)
            obj = [o + k * x for o, x in zip(obj, row)]
        g = math.gcd(*obj, scale)
        if g == 1:
            self.obj, self.obj_scale = obj, scale
        else:
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
            for entering in range(self.n_entering):
                if obj[entering] < 0:
                    break
            else:
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
            return self._certificate(phase_one=True)
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

    def _certificate(self, phase_one: bool) -> tuple[Fraction, ...]:
        """The multipliers of the rows, read off the final objective row: the
        Farkas multipliers of a phase 1 that ended negative, or the dual of
        a phase-2 optimum.

        For the duals y (per unscaled kept row), a starting column has
        reduced cost ``y_r - cost`` (``y_r + 1`` for a phase-1 artificial,
        of cost -1, and ``y_r`` for a slack, or for an artificial in phase
        2), as it is ``scale[r]`` times the unit vector in the scaled row.
        Nonnegative reduced costs on the other columns give ``y.A = c`` on
        split variables, ``y.A >= c`` on signed ones (c = 0 in phase 1), and
        the right sign on every inequality row; ``y.b`` is the optimum,
        negative at the end of an infeasible phase 1.  The first sign row of
        a signed x_j, oriented as ``-|a| x_j <= 0``, takes the reduced cost
        of column j over ``|a|`` and so brings ``y.A`` down to c there;
        further sign rows of x_j take 0.  Rhs sign flips are undone and
        ``>=`` rows are oriented as ``<=``.  Each multiplier is formed as an
        integer numerator over ``obj_scale`` and leaves as one Fraction.
        """
        certificate = []
        for r in range(len(self.problem.constraints)):
            if r in self.start:
                col, flip = self.start[r]
                y = self.obj[col]
                if phase_one and col >= self.art_start:
                    y -= self.obj_scale
                certificate.append(Fraction(-y if flip else y, self.obj_scale))
            elif r in self.sign_rows:
                j, a = self.sign_rows[r]
                y = Fraction(self.obj[j] * a.denominator, self.obj_scale * a.numerator)
                certificate.append(y)
            else:
                certificate.append(_ZERO)
        return tuple(certificate)

    def _original(
        self, basic: Sequence[int], numerators: Sequence[int], denominators: Sequence[int]
    ) -> tuple[list[int], int]:
        """``(X, d)`` with ``x = X / d`` in the problem's variables, from the
        standard-form value ``numerators[i] / denominators[i] > 0`` of each
        column ``basic[i]``, and 0 in every other column."""
        d = math.lcm(*denominators)
        std = [0] * self.n_cols
        for col, num, den in zip(basic, numerators, denominators):
            std[col] = num * (d // den)
        return [std[j] if q is None else std[j] - std[q] for j, q in enumerate(self.split)], d

    def solution(self) -> tuple[list[int], int]:
        """The basic solution, as ``(X, d)``."""
        rows, basis = self.rows, self.basis
        return self._original(basis, [row[-1] for row in rows],
                              [row[b] for row, b in zip(rows, basis)])

    def ray(self, entering: int) -> tuple[list[int], int]:
        """The ray along a column that no row bounds, as ``(R, d)``."""
        rows, basis = self.rows, self.basis
        return self._original([*basis, entering], [-row[entering] for row in rows] + [1],
                              [row[b] for row, b in zip(rows, basis)] + [1])


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
    """Solve exactly; every certificate and dual indexes
    ``problem.constraints`` as written."""
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
    result = Optimal(witness, value, t._certificate(phase_one=False))
    verified(verify_optimality(problem, result), "optimality certificate")
    return result


def positive_combination(
    columns: Sequence[Vector], target: Vector, what: str
) -> Optional[Combination]:
    """The nonzero terms ``(column, x_k)`` of a positive combination of the
    columns reaching the target -- nonnegative coefficients, not all zero --
    or None when there is none, or no column: the one search behind every
    positive combination the engine asks for.  (The Lambda_o LP past the
    double description's cap reads its combination off its own witness.)

    A nonzero target first takes one exact solve over the least-index basis
    of the columns (``numeric.solve_in_span``): its terms are the answer
    when no coefficient is negative, and a target outside the span of the
    columns is outside their positive hull.  Otherwise, and always for a
    zero target, where that solve gives only zeros, one LP decides: the rows
    of ``target = sum_k x_k columns[k]`` (:func:`combination_rows`), the
    sign rows, and for a zero target ``sum x = 1``, which rules out the
    empty combination.  The terms found are checked by substitution
    (:func:`combination_reaches`), and :func:`verified` refuses, naming
    ``what``, when the check fails.
    """
    if not columns:
        return None
    m = len(columns)
    if target.dim != columns[0].dim:
        raise ValueError("dimension mismatch")
    zero = target.is_zero()
    x = None if zero else solve_in_span(columns, target)
    if zero or (x is not None and any(a < 0 for a in x)):
        rows = combination_rows(columns, target)
        rows += nonneg_rows(m)
        if zero:
            rows.append(sum_to_one_row(m))
        result = solve(LpProblem(m, tuple(rows)))
        x = result.witness.entries if isinstance(result, Feasible) else None
    if x is None:
        return None
    combination = nonzero_terms(columns, x)
    verified(bool(combination) and combination_reaches(combination, target), what)
    return combination


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
