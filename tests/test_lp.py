import hashlib
import math
import os
import random
import subprocess
import sys
import textwrap
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conechoice import lp
from conechoice.lp import (
    EQ,
    GE,
    LE,
    Constraint,
    Feasible,
    Infeasible,
    LpProblem,
    Objective,
    Optimal,
    Unbounded,
    solve,
    strict_row,
    verify_infeasibility_certificate,
    verify_optimality,
    verify_ray,
    verify_witness,
)
from conechoice.numeric import Vector, unit_vector, vec

from conftest import rand_fraction
from oracles import _satisfies, brute_force_lp


def _bounded(n: int, constraints, objective, bounds) -> LpProblem:
    """The problem with each variable bound ``(lo, hi)`` written as rows
    after the given ones: ``x_j >= lo`` and then ``x_j <= hi``, for each
    variable in order, a None bound giving no row."""
    rows = list(constraints)
    for j, (lo, hi) in enumerate(bounds or ()):
        if lo is not None:
            rows.append(Constraint(unit_vector(n, j), GE, lo))
        if hi is not None:
            rows.append(Constraint(unit_vector(n, j), LE, hi))
    return LpProblem(n, tuple(rows), objective)


def test_bounded_maximization():
    problem = _bounded(1, (), Objective("max", vec(1)), ((Fraction(0), Fraction(1)),))
    result = solve(problem)
    assert isinstance(result, Optimal)
    assert result.value == 1
    assert result.witness == vec(1)


def test_infeasible_with_certificate():
    problem = LpProblem(
        1,
        (Constraint(vec(1), GE, Fraction(1)), Constraint(vec(1), LE, Fraction(0))),
    )
    result = solve(problem)
    assert isinstance(result, Infeasible)
    assert verify_infeasibility_certificate(problem, result.certificate)


def test_unbounded_with_ray():
    problem = LpProblem(
        1,
        (Constraint(vec(1), GE, Fraction(0)),),
        Objective("max", vec(1)),
    )
    result = solve(problem)
    assert isinstance(result, Unbounded)
    assert verify_ray(problem, result.ray)


def test_minimization_direction():
    problem = LpProblem(
        1,
        (Constraint(vec(1), GE, Fraction(-3)), Constraint(vec(1), LE, Fraction(5))),
        Objective("min", vec(1)),
    )
    result = solve(problem)
    assert isinstance(result, Optimal)
    assert result.value == -3


def test_equality_rows_and_free_variables():
    # x + y = 1, x - y = 3 has the unique solution (2, -1): free variables work.
    problem = LpProblem(
        2,
        (Constraint(vec(1, 1), EQ, Fraction(1)), Constraint(vec(1, -1), EQ, Fraction(3))),
    )
    result = solve(problem)
    assert isinstance(result, Feasible)
    assert result.witness == vec(2, -1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_problems_without_rows_take_the_generic_path(n):
    # No rows: the origin is feasible, a zero objective is optimal at 0, and
    # any other objective improves along a checked ray.
    origin = Vector((Fraction(0),) * n)
    empty = LpProblem(n, ())
    result = solve(empty)
    assert isinstance(result, Feasible) and result.witness == origin
    assert verify_witness(empty, result.witness)
    zero = LpProblem(n, (), Objective("max", origin))
    result = solve(zero)
    assert isinstance(result, Optimal) and result.value == 0
    assert verify_witness(zero, result.witness)
    coeffs = Vector(tuple(Fraction(k - 1, k + 1) for k in range(n)))  # -1, 0, 1/3
    for direction in ("max", "min"):
        problem = LpProblem(n, (), Objective(direction, coeffs))
        result = solve(problem)
        assert isinstance(result, Unbounded)
        assert verify_ray(problem, result.ray)
        assert verify_witness(problem, result.witness)


def _homogeneous_rows(strict, nonpos=(), nonneg=()):
    rows = [strict_row(s) for s in strict]
    rows += [Constraint(t, LE, Fraction(0)) for t in nonpos]
    rows += [Constraint(w, GE, Fraction(0)) for w in nonneg]
    return tuple(rows)


def _strict_witness(strict, nonpos=(), nonneg=()):
    result = solve(LpProblem(strict[0].dim, _homogeneous_rows(strict, nonpos, nonneg)))
    assert isinstance(result, Feasible)
    w = result.witness
    assert all(w.dot(s) > 0 for s in strict)
    assert all(w.dot(t) <= 0 for t in nonpos)
    assert all(w.dot(u) >= 0 for u in nonneg)
    return w


def test_strict_homogeneous_examples():
    _strict_witness(strict=[vec(1, 0), vec(0, 1)], nonpos=[vec(-1, -1)])

    strict = [vec(1, 0), vec(-1, 0)]
    result = solve(LpProblem(2, _homogeneous_rows(strict)))
    assert isinstance(result, Infeasible)
    problem = LpProblem(2, tuple(Constraint(s, GE, Fraction(1)) for s in strict))
    assert verify_infeasibility_certificate(problem, result.certificate)

    # Any finite truncation of the family {(0,1)} + {(1,-a)} admits a witness.
    _strict_witness(strict=[vec(0, 1)] + [vec(1, -a) for a in (0, 1, 2)])

    # Homogenised with a scale x0 (the last entry): is (1,1) minus some
    # nonnegative multiple of (1,-1) strictly positive?  Yes, at lambda = 0.
    w = _strict_witness(strict=[vec(0, 1), vec(-1, 1), vec(1, 1)], nonneg=[vec(1, 0)])
    assert w[1] >= 1
    # Is (-1, 1) minus a nonnegative multiple of (1, -1) strictly positive?
    # Every such residual has entries summing to 0, so no.
    rows = _homogeneous_rows([vec(0, 1), vec(-1, -1), vec(1, 1)], nonneg=[vec(1, 0)])
    result = solve(LpProblem(2, rows))
    assert isinstance(result, Infeasible)


def _sign_row_by_definition(c: Constraint):
    if c.rhs or c.relation == EQ:
        return None
    nonzero = [j for j, a in enumerate(c.coeffs.entries) if a]
    if len(nonzero) != 1:
        return None
    a = c.coeffs[nonzero[0]]
    return (nonzero[0], abs(a)) if (a > 0) == (c.relation == GE) else None


def _integer_row_by_definition(c: Constraint):
    entries = (*c.coeffs.entries, c.rhs)
    scale = math.lcm(*(x.denominator for x in entries))
    return scale, tuple(int(x * scale) for x in entries)


def test_constraint_rows_follow_their_definition_and_stay_out_of_eq_hash_repr():
    rng = random.Random(8)
    sign_rows = 0
    for _ in range(400):
        for problem in (_random_problem(rng), _random_signed_problem(rng)):
            for c in problem.constraints:
                assert c.sign_row == _sign_row_by_definition(c)
                assert c.integer_row == _integer_row_by_definition(c)
                sign_rows += c.sign_row is not None
    assert sign_rows > 100
    c = Constraint(vec(2, 0), GE, Fraction(0))
    tampered = Constraint(vec(2, 0), GE, Fraction(0))
    object.__setattr__(tampered, "sign_row", None)
    object.__setattr__(tampered, "integer_row", (5, (1, 2, 3)))
    assert c == tampered and hash(c) == hash(tampered) and repr(c) == repr(tampered)
    assert "sign_row" not in repr(c) and "integer_row" not in repr(c)


def _random_bound(rng: random.Random) -> tuple[Fraction | None, Fraction | None]:
    lo = rand_fraction(rng, 3, 3) if rng.random() < 0.5 else None
    hi = rand_fraction(rng, 3, 3) if rng.random() < 0.5 else None
    return (lo, hi)


def _random_problem(rng: random.Random) -> LpProblem:
    n = rng.choice([2, 2, 2, 2, 3])
    m = rng.randint(1, 6)
    constraints = []
    for _ in range(m):
        coeffs = Vector(tuple(rand_fraction(rng, span=3, max_den=3) for _ in range(n)))
        relation = rng.choice([LE, GE, EQ])
        constraints.append(Constraint(coeffs, relation, rand_fraction(rng, 3, 3)))
    if rng.random() < 0.3:
        # A duplicated or scaled row makes the phase-1 optimum degenerate.
        row = rng.choice(constraints)
        scale = rng.choice([Fraction(1), Fraction(2), Fraction(-1, 2)])
        relation = {LE: GE, GE: LE, EQ: EQ}[row.relation] if scale < 0 else row.relation
        constraints.append(Constraint(row.coeffs.scale(scale), relation, row.rhs * scale))
    objective = None
    if rng.random() < 0.7:
        objective = Objective(
            rng.choice(["max", "min"]),
            Vector(tuple(rand_fraction(rng, 3, 3) for _ in range(n))),
        )
    # Bounds are extra rows after the others, which certificates index.
    bounds = tuple(_random_bound(rng) for _ in range(n)) if rng.random() < 0.3 else None
    return _bounded(n, constraints, objective, bounds)


def test_random_answers_carry_checkable_evidence():
    rng = random.Random(2024)
    statuses = set()
    for _ in range(120):
        problem = _random_problem(rng)
        result = solve(problem)
        statuses.add(type(result).__name__)
        if isinstance(result, (Feasible, Optimal)):
            assert verify_witness(problem, result.witness)
        if isinstance(result, Optimal):
            assert problem.objective.coeffs.dot(result.witness) == result.value
        if isinstance(result, Infeasible):
            assert verify_infeasibility_certificate(problem, result.certificate)
        if isinstance(result, Unbounded):
            assert verify_ray(problem, result.ray)
            assert verify_witness(problem, result.witness)
    # The generator must actually exercise every outcome.
    assert statuses == {"Feasible", "Optimal", "Infeasible", "Unbounded"}


def test_agreement_with_vertex_enumeration_oracle():
    rng = random.Random(7)
    for _ in range(60):
        problem = _random_problem(rng)
        result = solve(problem)
        status, value = brute_force_lp(problem)
        expected = {
            Feasible: "feasible",
            Optimal: "optimal",
            Infeasible: "infeasible",
            Unbounded: "unbounded",
        }[type(result)]
        assert expected == status
        if isinstance(result, Optimal):
            assert result.value == value


def _spy_pivots(monkeypatch) -> list[int]:
    """Record each pivot entry and check the integer-row invariants after it.

    Every tableau row must stay a primitive integer vector whose basic entry is
    positive: that is what makes it a positive multiple of the rational row.
    A primitive row divides the row of minors that Bareiss elimination would
    hold, so its entries stay within Hadamard's bound for the starting rows.
    """
    entries: list[int] = []
    bit_bounds: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    pivot = lp._Tableau._pivot

    def spy(tableau, row_idx, col):
        if tableau not in bit_bounds:
            bits = max(x.bit_length() for row in tableau.rows for x in row)
            width = (tableau.n_cols + 1).bit_length()
            bit_bounds[tableau] = len(tableau.rows) * (bits + width)
        entries.append(tableau.rows[row_idx][col])
        pivot(tableau, row_idx, col)
        for row, b in zip(tableau.rows, tableau.basis):
            assert all(type(x) is int for x in row)
            assert row[b] > 0 and math.gcd(*row) == 1
            assert max(x.bit_length() for x in row) <= bit_bounds[tableau]
        assert tableau.obj_scale > 0 and math.gcd(*tableau.obj, tableau.obj_scale) == 1

    monkeypatch.setattr(lp._Tableau, "_pivot", spy)
    return entries


def _check_evidence(problem: LpProblem, result, boxes=None) -> None:
    kwargs = {} if boxes is None else {"boxes": boxes}
    status, value = brute_force_lp(problem, **kwargs)
    assert type(result).__name__.lower() == status
    if isinstance(result, (Feasible, Optimal, Unbounded)):
        assert verify_witness(problem, result.witness)
    if isinstance(result, Optimal):
        assert result.value == value == problem.objective.coeffs.dot(result.witness)
    if isinstance(result, Infeasible):
        assert verify_infeasibility_certificate(problem, result.certificate)
    if isinstance(result, Unbounded):
        assert verify_ray(problem, result.ray)


def test_phase_one_drive_out_pivots_on_a_negative_entry(monkeypatch):
    # The equality row duplicates the first row, so phase 1 ends with an
    # artificial basic at level 0 whose row is driven out on a -1 entry.
    entries = _spy_pivots(monkeypatch)
    problem = LpProblem(
        2,
        (
            Constraint(vec(2, 1), LE, Fraction(1)),
            Constraint(vec(-2, -2), LE, Fraction(-1)),
            Constraint(vec(2, 1), EQ, Fraction(1)),
        ),
        Objective("max", vec(1, 0)),
    )
    result = solve(problem)
    assert any(p < 0 for p in entries)
    assert isinstance(result, Optimal)
    _check_evidence(problem, result)


def _spy_phases(monkeypatch) -> tuple[list[int], list[tuple[list[int], int]]]:
    """Pivot entries, and per objective priced: the basic entries and the pivots before."""
    entries = _spy_pivots(monkeypatch)
    priced: list[tuple[list[int], int]] = []
    set_objective = lp._Tableau.set_objective

    def spy(tableau, cost):
        priced.append(([row[b] for row, b in zip(tableau.rows, tableau.basis)], len(entries)))
        set_objective(tableau, cost)

    monkeypatch.setattr(lp._Tableau, "set_objective", spy)
    return entries, priced


def test_fractional_costs_priced_against_non_unit_basic_entries(monkeypatch):
    # Phase 1 pivots on the entries 2, 8 and 5, so basic entries are 5, 2 and
    # 10 rather than 1 when phase 2 prices the costs 1/3 and 2/7, and phase 2
    # then pivots twice with a scaled objective row.
    entries, priced = _spy_phases(monkeypatch)
    problem = _bounded(
        2,
        (
            Constraint(vec(3, 5), GE, Fraction(9)),
            Constraint(vec(2, 2), GE, Fraction(4)),
            Constraint(vec(1, 5), GE, Fraction(5)),
        ),
        Objective("min", vec("1/3", "2/7")),
        ((Fraction(0), None), (Fraction(0), None)),
    )
    result = solve(problem)
    (_, _), (phase_two_basic, pivots_before) = priced
    assert any(entry != 1 for entry in phase_two_basic)
    assert len(entries) > pivots_before
    assert isinstance(result, Optimal)
    assert result.witness == vec(0, 2)
    assert result.value == Fraction(4, 7)
    _check_evidence(problem, result)


def test_slack_basis_skips_phase_one(monkeypatch):
    # Every row is "<=" with a nonnegative rhs, so the slacks are a feasible
    # starting basis: the only objective priced is phase 2's, before any pivot.
    entries, priced = _spy_phases(monkeypatch)
    problem = LpProblem(
        2,
        (
            Constraint(vec(1, 2), LE, Fraction(4)),
            Constraint(vec(3, -1), LE, Fraction(0)),
            Constraint(vec(-1, 0), LE, Fraction(0)),
        ),
        Objective("max", vec(1, 1)),
    )
    result = solve(problem)
    assert len(priced) == 1 and priced[0][1] == 0
    assert entries  # phase 2 still pivots
    assert isinstance(result, Optimal)
    assert result.value == Fraction(16, 7)
    _check_evidence(problem, result)

    entries.clear()
    assert isinstance(solve(LpProblem(2, problem.constraints)), Feasible)
    assert not entries


def test_certificate_weights_sign_rows():
    # x + y <= -1 contradicts x >= 0 and 2y >= 0 only through both sign rows;
    # the duplicate 3x >= 0 takes no weight.
    problem = LpProblem(
        2,
        (
            Constraint(vec(1, 1), LE, Fraction(-1)),
            Constraint(vec(1, 0), GE, Fraction(0)),
            Constraint(vec(0, 2), GE, Fraction(0)),
            Constraint(vec(3, 0), GE, Fraction(0)),
        ),
    )
    result = solve(problem)
    assert isinstance(result, Infeasible)
    assert result.certificate == (1, 1, Fraction(1, 2), 0)
    _check_evidence(problem, result)


def _misread_as_x0_nonnegative(coeffs: Vector) -> Constraint:
    """A fresh ``coeffs . x >= 0`` row that the tableau is told reads ``x0 >= 0``."""
    row = Constraint(coeffs, GE, Fraction(0))
    object.__setattr__(row, "sign_row", (0, Fraction(1)))
    return row


@pytest.mark.parametrize(
    "problem, what",
    [
        pytest.param(
            LpProblem(
                2,
                (
                    _misread_as_x0_nonnegative(vec(1, -1)),
                    Constraint(vec(0, 1), GE, Fraction(1)),
                    Constraint(vec(1, 0), LE, Fraction(0)),
                ),
            ),
            "LP witness",
            id="witness",
        ),
        pytest.param(
            LpProblem(
                2,
                (
                    _misread_as_x0_nonnegative(vec(-1, 1)),
                    Constraint(vec(1, 0), LE, Fraction(-1)),
                ),
            ),
            "Farkas certificate",
            id="certificate",
        ),
        pytest.param(
            LpProblem(2, (_misread_as_x0_nonnegative(vec(1, -1)),), Objective("max", vec(0, 1))),
            "improving ray",
            id="ray",
        ),
        pytest.param(
            LpProblem(
                2,
                (_misread_as_x0_nonnegative(vec(1, -1)), Constraint(vec(0, 1), GE, Fraction(-1))),
                Objective("max", vec(-1, 0)),
            ),
            "optimality certificate",
            id="optimum",
        ),
    ],
)
def test_checks_read_each_row_not_its_sign_row_classification(problem, what):
    # The tableau lays the tampered row out as x0 >= 0 and so solves another
    # problem: (0, 1) breaks x0 - x1 >= 0, (1, 1) certifies a problem that
    # (-1, -1) solves, and the ray (0, 1) breaks x0 - x1 >= 0.  In the last
    # the witness (0, 0) satisfies every row, but its value 0 is not the
    # optimum, 1 at (-1, -1), and its dual does not combine the rows into
    # -x0 <= 0.  The checks read each row as written and refuse all four.
    with pytest.raises(RuntimeError, match=f"emitted {what} failed re-verification"):
        solve(problem)


def _random_sign_row(rng: random.Random, n: int) -> Constraint:
    # x_j >= 0 written as a x_j >= 0 or -a x_j <= 0 with a > 0.
    a = [Fraction(0)] * n
    j = rng.randrange(n)
    a[j] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    if rng.random() < 0.5:
        return Constraint(Vector(tuple(a)), GE, Fraction(0))
    return Constraint(-Vector(tuple(a)), LE, Fraction(0))


def _random_signed_problem(rng: random.Random) -> LpProblem:
    n = rng.choice([2, 2, 3])
    constraints = []
    for _ in range(rng.randint(1, 4)):
        coeffs = Vector(tuple(rand_fraction(rng, 3, 3) for _ in range(n)))
        rhs = Fraction(0) if rng.random() < 0.4 else rand_fraction(rng, 3, 3)
        constraints.append(Constraint(coeffs, rng.choice([LE, GE, EQ]), rhs))
    for _ in range(rng.randint(0, n)):
        row = _random_sign_row(rng, n)
        constraints.append(row)
        if rng.random() < 0.3:
            # The same sign row again, duplicated or scaled.
            scale = rng.choice([Fraction(1), Fraction(3), Fraction(1, 2)])
            constraints.append(Constraint(row.coeffs.scale(scale), row.relation, row.rhs))
    rng.shuffle(constraints)
    objective = None
    if rng.random() < 0.7:
        objective = Objective(
            rng.choice(["max", "min"]),
            Vector(tuple(rand_fraction(rng, 3, 3) for _ in range(n))),
        )
    bounds = None
    if rng.random() < 0.4:
        bounds = tuple(
            (
                Fraction(0) if rng.random() < 0.6 else None,
                rand_fraction(rng, 3, 3) if rng.random() < 0.3 else None,
            )
            for _ in range(n)
        )
    return _bounded(n, constraints, objective, bounds)


def test_sign_rows_agree_with_vertex_enumeration_oracle():
    rng = random.Random(55)
    statuses = set()
    for _ in range(150):
        problem = _random_signed_problem(rng)
        result = solve(problem)
        statuses.add(type(result).__name__)
        _check_evidence(problem, result)
    assert statuses == {"Feasible", "Optimal", "Infeasible", "Unbounded"}


# The SHA-256 of the results' reprs for the problems below: every answer and
# piece of evidence the solver gives them, which its pivot path decides.  A
# refactor of the solver keeps it; a new pivot rule changes it on purpose and
# records the new one.
EVIDENCE_DIGEST = "5436de010f936eb628e07c4e3fd6c1c419149eab5b0325bdc17457abd52dc868"


def test_random_problems_keep_their_exact_evidence():
    rng, signed_rng = random.Random(11), random.Random(12)
    problems = [_random_problem(rng) for _ in range(1000)]
    problems += [_random_signed_problem(signed_rng) for _ in range(1000)]
    reprs = "\n".join(repr(solve(problem)) for problem in problems)
    assert hashlib.sha256(reprs.encode()).hexdigest() == EVIDENCE_DIGEST


def test_optimal_duals_certify_the_oracles_optimum():
    # Every optimum carries a dual that verify_optimality accepts, and its
    # value is the one vertex enumeration finds.  Mutation: the value moved
    # by 1, a dual entry of a nonzero row moved by 1/7, or a dual one entry
    # too long or too short, is refused, and so is a problem without an
    # objective.
    rng = random.Random(31)
    optimal = moved = 0
    for i in range(240):
        problem = (_random_problem if i % 2 else _random_signed_problem)(rng)
        result = solve(problem)
        if not isinstance(result, Optimal):
            continue
        optimal += 1
        assert verify_optimality(problem, result)
        assert brute_force_lp(problem) == ("optimal", result.value)
        assert not verify_optimality(problem, replace(result, value=result.value + 1))
        for dual in (result.dual + (Fraction(0),), result.dual[:-1]):
            assert not verify_optimality(problem, replace(result, dual=dual))
        for r, c in enumerate(problem.constraints):
            if any(c.integer_row[1]):
                dual = list(result.dual)
                dual[r] += Fraction(1, 7)
                assert not verify_optimality(problem, replace(result, dual=tuple(dual)))
                moved += 1
    assert optimal >= 40 and moved >= 150, (optimal, moved)
    assert not verify_optimality(LpProblem(1, ()), Optimal(vec(0), Fraction(0), ()))


def _huge_fraction(rng: random.Random) -> Fraction:
    big = 2**100
    num = rng.choice([-1, 1]) * (big + rng.randint(-(2**20), 2**20))
    den = big + rng.randint(-(2**20), 2**20)
    return Fraction(num, den) if rng.random() < 0.8 else Fraction(num, rng.randint(1, 9))


def test_rows_with_hundred_bit_numerators_and_denominators(monkeypatch):
    # Each row is scaled by the lcm of ~100-bit denominators before pivoting;
    # the spy checks that rows stay primitive and within Hadamard's bound.
    _spy_pivots(monkeypatch)
    rng = random.Random(100)
    statuses = set()
    for _ in range(40):
        n = rng.choice([2, 3])
        constraints = tuple(
            Constraint(
                Vector(tuple(_huge_fraction(rng) for _ in range(n))),
                rng.choice([LE, GE, EQ]),
                _huge_fraction(rng),
            )
            for _ in range(rng.randint(2, 4))
        )
        objective = Objective(
            rng.choice(["max", "min"]), Vector(tuple(_huge_fraction(rng) for _ in range(n)))
        )
        problem = LpProblem(n, constraints, objective)
        result = solve(problem)
        statuses.add(type(result).__name__)
        _check_evidence(problem, result, boxes=(Fraction(2**300), Fraction(2**400)))
    assert statuses == {"Optimal", "Infeasible", "Unbounded"}


def test_unbounded_ray_after_row_scaling(monkeypatch):
    # x/3 - y/2 >= 1/5 and 5x/7 + y/4 >= -3 are scaled by 30 and 28; x + y
    # grows without bound along the first row's boundary.
    _spy_pivots(monkeypatch)
    problem = _bounded(
        2,
        (
            Constraint(vec("1/3", "-1/2"), GE, Fraction(1, 5)),
            Constraint(vec("5/7", "1/4"), GE, Fraction(-3)),
        ),
        Objective("max", vec(1, 1)),
        ((Fraction(0), None), (None, None)),
    )
    result = solve(problem)
    assert isinstance(result, Unbounded)
    _check_evidence(problem, result)


def _farkas_by_fractions(problem: LpProblem, certificate) -> bool:
    """The Farkas predicate recomputed row by row over Fractions."""
    constraints = problem.constraints
    if len(certificate) != len(constraints):
        return False
    combo = [Fraction(0)] * problem.n_vars
    rhs = Fraction(0)
    for y, c in zip(certificate, constraints):
        if c.relation != EQ and y < 0:
            return False
        if c.relation == GE:
            y = -y
        combo = [s + y * a for s, a in zip(combo, c.coeffs)]
        rhs += y * c.rhs
    return all(s == 0 for s in combo) and rhs < 0


def test_integer_checks_reject_broken_evidence():
    # Valid evidence, broken in the smallest way: a witness entry moved by
    # +-1/q, an inequality multiplier negated or a multiplier zeroed, or the
    # certificate one entry too long or too short.  The integer checks must
    # give the verdict of oracles._satisfies or of a Fraction recomputation,
    # and reject every break that always invalidates.
    rng = random.Random(606)
    rejected = {"moved": 0, "negated": 0, "zeroed": 0, "length": 0}
    for i in range(600):
        problem = (_random_problem if i % 2 else _random_signed_problem)(rng)
        result = solve(problem)
        if isinstance(result, Infeasible):
            y = list(result.certificate)
            assert verify_infeasibility_certificate(problem, y)
            for broken in (y + [Fraction(0)], y[:-1]):
                assert not verify_infeasibility_certificate(problem, broken)
                rejected["length"] += 1
            for r, c in enumerate(problem.constraints):
                if y[r] == 0:
                    continue
                zeroed = y[:r] + [Fraction(0)] + y[r + 1:]
                expected = _farkas_by_fractions(problem, zeroed)
                assert verify_infeasibility_certificate(problem, zeroed) == expected
                rejected["zeroed"] += not expected
                if c.relation != EQ:
                    negated = y[:r] + [-y[r]] + y[r + 1:]
                    assert not verify_infeasibility_certificate(problem, negated)
                    rejected["negated"] += 1
        else:
            assert verify_witness(problem, result.witness)
            rows = [
                (tuple(c.coeffs), c.relation, c.rhs) for c in problem.constraints
            ]
            x = list(result.witness)
            q = rng.randint(10**6, 10**7)
            for j in range(problem.n_vars):
                for step in (Fraction(1, q), Fraction(-1, q)):
                    moved = x[:j] + [x[j] + step] + x[j + 1:]
                    expected = _satisfies(rows, moved)
                    assert verify_witness(problem, Vector(tuple(moved))) == expected
                    rejected["moved"] += not expected
    assert min(rejected.values()) >= 100, rejected


def test_broken_invariants_raise_runtime_errors(monkeypatch):
    # Explicit checks, not asserts: a broken invariant stops the solve even
    # under python -O instead of handing on a result of the wrong kind.
    problem = LpProblem(1, (Constraint(vec(1), GE, Fraction(1)),))
    with pytest.raises(RuntimeError, match="without an objective"):
        lp._max_cost(problem, lp._Tableau(problem))
    with monkeypatch.context() as m:
        m.setattr(lp._Tableau, "run", lambda tableau: 0)
        with pytest.raises(RuntimeError, match="phase 1"):
            solve(problem)


@pytest.mark.parametrize(
    "patch, trigger, what",
    [
        pytest.param(
            "lp.verify_infeasibility_certificate = lambda problem, certificate: False",
            "lp.solve(lp.LpProblem(1, (lp.Constraint(vec(1), lp.GE, Fraction(1)),"
            " lp.Constraint(vec(1), lp.LE, Fraction(0)))))",
            "Farkas certificate",
            id="farkas_certificate",
        ),
        pytest.param(
            "cone.separates = lambda f, cone, options=(): False",
            "archimedean.separation_evidence(cone.PosiCone((vec(1, -1),), space))",
            "separation witness",
            id="separation_witness",
        ),
        pytest.param(
            "cone.verify_inconsistency_combination = lambda combination: False",
            "cone.natural_extension([vec(1, -1), vec(-1, 1)], space)",
            "inconsistency combination",
            id="inconsistency_combination",
        ),
        pytest.param(
            "choice.separates = lambda f, cone, options=(): False",
            "choice.archimedean_member_evidence(choice.AssessmentK((choice.option_set(vec(1, -1)),),"
            " space), choice.option_set(vec(-1, 1)))",
            "excluding envelope",
            id="excluding_envelope",
        ),
        pytest.param(
            "cone.member = lambda c, v: True",
            "archimedean.separate(cone.OpenDualCone((LinearF(vec(1, 1)),), space), vec(-1, 0))",
            "member exclusion",
            id="separation_excludes_member",
        ),
        pytest.param(
            "cone.member = lambda c, v: False",
            "cone.is_mixing(cone.OpenDualCone((LinearF(vec(1, 3)), LinearF(vec(3, 1))), space))",
            "mixing witness",
            id="mixing_witness",
        ),
        pytest.param(
            "cone.member = lambda c, v: False",
            "cone.is_mixing(cone.PosiCone((vec(3, -1), vec(-1, 3)), space))",
            "mixing witness",
            id="posi_mixing_witness",
        ),
        pytest.param(
            # The phase-2 dual's first multiplier moved by 1/7.
            "read = lp._Tableau._certificate\n"
            "lp._Tableau._certificate = lambda t, phase_one: tuple(\n"
            "    y + Fraction(k == 0 and not phase_one, 7)\n"
            "    for k, y in enumerate(read(t, phase_one))\n"
            ")",
            "lp.solve(lp.LpProblem(1, (lp.Constraint(vec(1), lp.LE, Fraction(1)),),"
            " lp.Objective('max', vec(1))))",
            "optimality certificate",
            id="optimality_certificate",
        ),
        pytest.param(
            "cone._in_dual = lambda ray, generators: False",
            "archimedean.lambda_o(cone.PosiCone((vec(3, -1), vec(-1, 3)), space), vec(1, 0))",
            "dual ray",
            id="dual_ray",
        ),
    ],
)
def test_certificate_check_survives_optimize_flag(patch, trigger, what):
    # A rejected witness or certificate must stop the query even when asserts are stripped.
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from conechoice import archimedean, choice, cone, lp
        from conechoice.functional import LinearF
        from conechoice.numeric import Background, OptionSpace, vec

        space = OptionSpace(2, Background.POINTWISE, vec(1, 1))
        """
    ) + f"{patch}\n{trigger}\n"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
    assert f"RuntimeError: internal error: emitted {what} failed re-verification" in proc.stderr


def test_strict_rows_reject_zero_functional():
    # The ">= 1" substitution must not accept the trivial Lambda = 0.
    assert not _strict_witness(strict=[vec(1, 1)]).is_zero()
    result = solve(LpProblem(2, _homogeneous_rows(strict=[vec(1, 1)], nonpos=[vec(1, 1)])))
    assert isinstance(result, Infeasible)


def test_problem_validation():
    with pytest.raises(ValueError):
        LpProblem(0, ())
    with pytest.raises(ValueError):
        LpProblem(2, (Constraint(vec(1), LE, Fraction(0)),))
    with pytest.raises(ValueError):
        Constraint(vec(1), "<", Fraction(0))
    with pytest.raises(ValueError):
        lp.Objective("maximize", vec(1))
    with pytest.raises(ValueError, match="objective coefficient vector has wrong length"):
        LpProblem(2, (), Objective("max", vec(1)))
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 1"):
        verify_witness(LpProblem(2, ()), vec(1))
    assert not verify_ray(LpProblem(1, ()), vec(1))
    # x <= 0 holds along -1 but not along the improving direction 1.
    problem = LpProblem(1, (Constraint(vec(1), LE, Fraction(0)),), Objective("max", vec(1)))
    assert not verify_ray(problem, vec(1))
