import math
import os
import random
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from conechoice import lp
from conechoice.lp import (
    EQ,
    GE,
    LE,
    Bound,
    Constraint,
    Feasible,
    Infeasible,
    LpProblem,
    Objective,
    Optimal,
    Unbounded,
    max_margin,
    solve,
    strict_homogeneous_feasible,
    verify_infeasibility_certificate,
    verify_ray,
    verify_witness,
)
from conechoice.numeric import Vector, vec

from conftest import rand_fraction
from oracles import brute_force_lp


def test_bounded_maximization():
    problem = LpProblem(
        1,
        (),
        Objective("max", vec(1)),
        bounds=((Fraction(0), Fraction(1)),),
    )
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


def test_strict_homogeneous_examples():
    witness = strict_homogeneous_feasible(
        strict=[vec(1, 0), vec(0, 1)], nonpos=[vec(-1, -1)]
    )
    assert witness is not None
    assert witness.dot(vec(1, 0)) > 0 and witness.dot(vec(0, 1)) > 0
    assert witness.dot(vec(-1, -1)) <= 0

    assert strict_homogeneous_feasible(strict=[vec(1, 0), vec(-1, 0)]) is None

    # Any finite truncation of the family {(0,1)} + {(1,-a)} admits a witness.
    family = [vec(0, 1)] + [vec(1, -a) for a in (0, 1, 2)]
    witness = strict_homogeneous_feasible(strict=family)
    assert witness is not None
    assert all(witness.dot(row) > 0 for row in family)


def test_max_margin_midpoint():
    # maximize t with x >= t and 1 - x >= t; encoded with a pinned constant x0.
    base = [Constraint(vec(0, 1), EQ, Fraction(1))]
    margin = [vec(1, 0), vec(-1, 1)]
    assert max_margin(base, margin, Fraction(1)).value == Fraction(1, 2)


def test_max_margin_strictly_infeasible():
    assert max_margin([], [vec(1), vec(-1)], Fraction(1)).value == 0


def test_max_margin_infeasible_base():
    base = [Constraint(vec(1), GE, Fraction(1)), Constraint(vec(1), LE, Fraction(0))]
    assert max_margin(base, [vec(1)], Fraction(1)) is None


def test_max_margin_strict_dominance_residual():
    # Does (1,1) strictly dominate some nonnegative multiple of (1,-1)?
    # Variables (lambda, x0) with x0 pinned to 1; optimum at lambda = 0.
    base = [
        Constraint(vec(0, 1), EQ, Fraction(1)),
        Constraint(vec(1, 0), GE, Fraction(0)),
    ]
    margin = [vec(-1, 1), vec(1, 1)]  # rows of (1,1) - lambda*(1,-1)
    assert max_margin(base, margin, Fraction(1)).value > 0


def _random_bound(rng: random.Random) -> Bound:
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
    # Bounds fold into extra rows of normalized(), which certificates index.
    bounds = tuple(_random_bound(rng) for _ in range(n)) if rng.random() < 0.3 else None
    return LpProblem(n, tuple(constraints), objective, bounds)


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


def test_fractional_costs_priced_against_non_unit_basic_entries(monkeypatch):
    # Phase 1 pivots on the entries 5 and 3, so basic entries are 3 rather
    # than 1 when phase 2 prices the costs 1/3 and 2/7, and phase 2 then
    # pivots twice with a scaled objective row.
    entries = _spy_pivots(monkeypatch)
    priced: list[tuple[list[int], int]] = []
    set_objective = lp._Tableau.set_objective

    def spy(tableau, cost):
        priced.append(([row[b] for row, b in zip(tableau.rows, tableau.basis)], len(entries)))
        set_objective(tableau, cost)

    monkeypatch.setattr(lp._Tableau, "set_objective", spy)
    problem = LpProblem(
        2,
        (Constraint(vec(3, 3), GE, Fraction(6)), Constraint(vec(5, 4), GE, Fraction(7))),
        Objective("min", vec("1/3", "2/7")),
        bounds=((Fraction(0), None), (Fraction(0), None)),
    )
    result = solve(problem)
    (_, _), (phase_two_basic, pivots_before) = priced
    assert any(entry != 1 for entry in phase_two_basic)
    assert len(entries) > pivots_before
    assert isinstance(result, Optimal)
    assert result.witness == vec(0, 2)
    assert result.value == Fraction(4, 7)
    _check_evidence(problem, result)


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
    problem = LpProblem(
        2,
        (
            Constraint(vec("1/3", "-1/2"), GE, Fraction(1, 5)),
            Constraint(vec("5/7", "1/4"), GE, Fraction(-3)),
        ),
        Objective("max", vec(1, 1)),
        bounds=((Fraction(0), None), (None, None)),
    )
    result = solve(problem)
    assert isinstance(result, Unbounded)
    _check_evidence(problem, result)


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
            "archimedean._separates = lambda f, cone, v: False",
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
            "choice.is_positive = lambda f, space: False",
            "choice.archimedean_member_evidence(choice.AssessmentK((choice.option_set(vec(1, -1)),),"
            " space), choice.option_set(vec(-1, 1)))",
            "excluding envelope",
            id="excluding_envelope",
        ),
        pytest.param(
            "cone.member = lambda c, v: False",
            "cone.is_mixing(cone.OpenDualCone((LinearF(vec(1, 3)), LinearF(vec(3, 1))), space))",
            "mixing witness",
            id="mixing_witness",
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
    witness = strict_homogeneous_feasible(strict=[vec(1, 1)])
    assert witness is not None and witness.dot(vec(1, 1)) > 0


def test_problem_validation():
    with pytest.raises(ValueError):
        LpProblem(0, ())
    with pytest.raises(ValueError):
        LpProblem(2, (Constraint(vec(1), LE, Fraction(0)),))
    with pytest.raises(ValueError):
        Constraint(vec(1), "<", Fraction(0))
    with pytest.raises(ValueError):
        lp.Objective("maximize", vec(1))
