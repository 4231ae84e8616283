import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conechoice.functional import LinearF, is_positive
from conechoice.numeric import (
    Background,
    OptionSpace,
    Vector,
    as_rational,
    format_rational,
    parse_rational,
    rank_of,
    solve_in_span,
    row_kernel,
    unit_vector,
    vec,
    zero_vector,
)

from oracles import rank_by_fractions

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=20)


def test_parse_rational_examples():
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("-3") == Fraction(-3)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1.5")


@given(rationals)
def test_format_parse_round_trip(r):
    assert parse_rational(format_rational(r)) == r


def test_fraction_arithmetic_is_exact():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(2, 4).denominator == 2  # canonical form on construction


@given(rationals, rationals, rationals)
@settings(max_examples=50)
def test_fraction_field_laws(a, b, c):
    assert (a + b) - b == a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_vector_ops_examples():
    assert vec(1, -1).dot(vec("1/2", "1/2")) == 0
    assert vec(3, -5).sup_norm() == 5
    assert vec("1/2", "-1/4").scale(2) == vec(1, "-1/2")
    assert vec(1, 2) + vec(3, 4) == vec(4, 6)
    assert -vec(1, -2) == vec(-1, 2)


def test_vector_dimension_mismatch():
    with pytest.raises(ValueError):
        vec(1, 2) + vec(1, 2, 3)
    with pytest.raises(ValueError):
        vec(1, 2).dot(vec(1))
    with pytest.raises(ValueError, match="vectors must have positive dimension"):
        Vector(())
    with pytest.raises(TypeError, match="vector entries must be Fraction"):
        Vector((1,))
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a rational"):
        as_rational(0.5)
    with pytest.raises(ValueError, match="dimension must be positive"):
        OptionSpace(0, Background.POINTWISE, vec(1))
    with pytest.raises(ValueError, match="reference option has wrong dimension"):
        OptionSpace(2, Background.POINTWISE, vec(1))
    space = OptionSpace(2, Background.POINTWISE, vec(1, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        space.background_strictly_positive(vec(1, 1, 1))
    # A functional of the wrong length used to read as positive.
    for coeffs in (vec(1, 1, 1), vec(1)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            space.positive_functional(coeffs)
        with pytest.raises(ValueError, match="dimension mismatch"):
            is_positive(LinearF(coeffs), space)
    assert str(vec(1, "-1/2")) == "(1, -1/2)"


vectors_2d = st.tuples(rationals, rationals).map(lambda t: vec(*t))

# Zero often, and denominators up to 10^6.
dot_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
)
dot_pairs = st.integers(1, 6).flatmap(
    lambda d: st.tuples(*[st.tuples(dot_entries, dot_entries)] * d)
)


@given(dot_pairs)
@settings(max_examples=300)
def test_dot_is_the_exact_sum_of_products(pairs):
    u = Vector(tuple(a for a, _ in pairs))
    v = Vector(tuple(b for _, b in pairs))
    value = u.dot(v)
    assert isinstance(value, Fraction)
    assert value == sum((a * b for a, b in pairs), Fraction(0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        u.dot(Vector(v.entries + (Fraction(1),)))


@given(vectors_2d, vectors_2d, rationals)
@settings(max_examples=50)
def test_sup_norm_is_a_norm(u, v, lam):
    assert (u + v).sup_norm() <= u.sup_norm() + v.sup_norm()
    assert u.scale(lam).sup_norm() == abs(lam) * u.sup_norm()
    assert (u.sup_norm() == 0) == u.is_zero()


def test_option_space_needs_interior_reference():
    OptionSpace(dim=2, background=Background.POINTWISE, u_o=vec(1, "1/10"))
    with pytest.raises(ValueError):
        OptionSpace(dim=2, background=Background.POINTWISE, u_o=vec(1, 0))


def test_background_orders_differ_on_the_boundary():
    pw = OptionSpace(dim=2, background=Background.POINTWISE, u_o=vec(1, 1))
    strict = OptionSpace(dim=2, background=Background.STRICT, u_o=vec(1, 1))
    boundary = vec(1, 0)
    assert pw.background_strictly_positive(boundary)
    assert not strict.background_strictly_positive(boundary)
    assert not pw.background_strictly_positive(zero_vector(2))
    assert strict.background_strictly_positive(vec("1/10", 2))


def test_rank_and_nullspace():
    assert rank_of([vec(1, 0), vec(0, 1)]) == 2
    assert rank_of([vec(1, 2), vec(2, 4)]) == 1
    basis = row_kernel(vec(1, 0))
    assert len(basis) == 1
    assert basis[0].dot(vec(1, 0)) == 0
    assert not basis[0].is_zero()
    basis3 = row_kernel(vec(1, 1, 1))
    assert len(basis3) == 2
    assert all(b.dot(vec(1, 1, 1)) == 0 for b in basis3)
    with pytest.raises(ValueError):
        row_kernel(zero_vector(2))


def test_row_kernel_is_the_reduced_echelon_basis_of_the_row():
    # About half the entries are zero, so the pivot is often not column 0.
    rng = random.Random(20)
    for _ in range(2000):
        d = rng.randint(1, 7)
        row = zero_vector(d)
        while row.is_zero():
            entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
            row = Vector(tuple(Fraction(0) if rng.random() < 0.5 else a for a in entries))
        pivot = next(j for j in range(d) if row[j] != 0)
        free = [j for j in range(d) if j != pivot]
        basis = row_kernel(row)
        assert len(basis) == d - 1
        assert all(k.dot(row) == 0 for k in basis)
        assert rank_of(basis) == d - 1
        for k, j in zip(basis, free):
            assert [k[i] for i in free] == [int(i == j) for i in free]


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)
# Zero often, so that pivots need row swaps and columns get skipped.
rank_entries = st.one_of(st.just(Fraction(0)), small_rationals)


@st.composite
def matrices_with_planted_dependence(draw):
    """1-5 rows of one dimension 1-6 with mixed denominators, where each row
    after the first may be a zero row or a rational combination of the rows
    drawn before it."""
    dim = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("free", "zero", "combination")) if rows else st.just("free"))
        if kind == "free":
            row = Vector(tuple(draw(st.lists(rank_entries, min_size=dim, max_size=dim))))
        elif kind == "zero":
            row = zero_vector(dim)
        else:
            row = zero_vector(dim)
            for earlier in rows:
                row = row + earlier.scale(draw(rank_entries))
        rows.append(row)
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(matrices_with_planted_dependence())
def test_integer_rank_agrees_with_rational_row_reduction(rows):
    assert rank_of(rows) == rank_by_fractions(rows)


@settings(max_examples=300, deadline=None)
@given(matrices_with_planted_dependence(), st.data())
def test_solve_in_span_agrees_with_rational_row_reduction(columns, data):
    # A target in the span is reached, with zeros off the least-index basis
    # of the columns; one outside it gives None.
    dim = columns[0].dim
    if data.draw(st.booleans()):
        target = zero_vector(dim)
        for column in columns:
            target = target + column.scale(data.draw(rank_entries))
    else:
        target = Vector(tuple(data.draw(st.lists(rank_entries, min_size=dim, max_size=dim))))
    x = solve_in_span(columns, target)
    in_span = rank_by_fractions([*columns, target]) == rank_by_fractions(columns)
    assert (x is not None) == in_span
    if x is not None:
        total = zero_vector(dim)
        for column, coeff in zip(columns, x):
            total = total + column.scale(coeff)
        assert total == target
        basis = []
        for k, column in enumerate(columns):
            if rank_by_fractions([*basis, column]) > len(basis):
                basis.append(column)
            else:
                assert x[k] == 0, k


def test_unit_vectors():
    assert unit_vector(3, 1) == vec(0, 1, 0)
    assert Vector((Fraction(1),)).dim == 1
