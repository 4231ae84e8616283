import random
from fractions import Fraction

import pytest

from conechoice.functional import (
    LinearF,
    SuperlinF,
    dominating_polytope,
    hahn_banach_witness,
    is_positive,
    nml,
    operator_norm,
    operator_norm_bound,
    pieces_of,
)
from conechoice.numeric import Vector, ones, vec

from conftest import expectation, rand_positive_vector, rand_vector


def corner_min(pieces):
    return SuperlinF(tuple(LinearF(p) for p in pieces))


def test_eval_and_conjugate_examples():
    f = corner_min([vec(1, 0), vec(0, 1)])
    assert f.eval(vec(1, 1)) == 1
    assert f.conjugate_eval(vec(1, 1)) == 1
    assert f.eval(vec(2, 0)) == 0
    assert f.conjugate_eval(vec(2, 0)) == 2
    assert LinearF(vec(2, 3)).conjugate_eval(vec(1, 1)) == 5


def test_conjugate_identity():
    rng = random.Random(3)
    f = corner_min([vec(1, -1), vec("1/2", 2), vec(0, 1)])
    for _ in range(50):
        u = rand_vector(rng, 2)
        assert f.conjugate_eval(u) == -f.eval(-u)


def test_sign_at_is_the_sign_of_eval():
    # Linear functionals and envelopes of 1-3 pieces in dims 1-4, at random
    # options that are zero in some entries, and at the zero vector.
    rng = random.Random(24)
    for _ in range(500):
        d = rng.randint(1, 4)
        pieces = [LinearF(rand_vector(rng, d, 2)) for _ in range(rng.randint(1, 3))]
        u = Vector(tuple(x if rng.random() < 0.7 else Fraction(0) for x in rand_vector(rng, d, 2)))
        for f in (pieces[0], SuperlinF(tuple(pieces))):
            for option in (u, u.scale(0)):
                value = f.eval(option)
                assert f.sign_at(option) == (value > 0) - (value < 0)


def test_is_positive_examples(pw2, st2):
    assert is_positive(expectation("1/2"), pw2)
    assert is_positive(expectation("1/2"), st2)
    axis = LinearF(vec(1, 0))
    assert not is_positive(axis, pw2)
    assert is_positive(axis, st2)
    mixed = corner_min([vec(1, 1), vec(2, -1)])
    assert not is_positive(mixed, pw2)
    assert not is_positive(LinearF(vec(0, 0)), st2)


def test_operator_norms():
    assert operator_norm(LinearF(vec(2, -3))) == 5
    assert operator_norm(expectation("1/3")) == 1
    f = corner_min([vec(1, 0), vec(0, 1)])
    bound = operator_norm_bound(f)
    assert bound == 1
    rng = random.Random(5)
    for _ in range(100):
        u = rand_vector(rng, 2)
        assert abs(f.eval(u)) <= bound * u.sup_norm()


def test_operator_norm_is_tight_for_linear():
    # |Lambda(u)| over the sup-norm ball is maximized at a sign-pattern corner.
    f = LinearF(vec(2, -3))
    corner = vec(1, -1)
    assert abs(f.eval(corner)) == operator_norm(f)


def test_dominating_polytope_examples():
    interval = corner_min([vec("1/4", "3/4"), vec("3/4", "1/4")])
    vertices = {v.coeffs for v in dominating_polytope(interval)}
    assert vertices == {vec("1/4", "3/4"), vec("3/4", "1/4")}

    single = corner_min([vec(1, 2)])
    assert [v.coeffs for v in dominating_polytope(single)] == [vec(1, 2)]

    with_midpoint = corner_min([vec(1, 0), vec(0, 1), vec("1/2", "1/2")])
    vertices = {v.coeffs for v in dominating_polytope(with_midpoint)}
    assert vertices == {vec(1, 0), vec(0, 1)}


def test_dominating_polytope_is_an_exact_envelope():
    rng = random.Random(9)
    f = corner_min([vec(1, 0), vec(0, 1), vec("1/2", "1/2"), vec(2, -1)])
    vertices = dominating_polytope(f)
    for _ in range(60):
        u = rand_vector(rng, 2)
        assert f.eval(u) == min(v.eval(u) for v in vertices)
        # Convex combinations of vertices dominate the envelope.
        lam = Fraction(rng.randint(0, 4), 4)
        mixed = vertices[0].coeffs.scale(lam) + vertices[-1].coeffs.scale(1 - lam)
        assert LinearF(mixed).eval(u) >= f.eval(u)


def test_hahn_banach_witness():
    f = corner_min([vec(1, 0), vec(0, 1)])
    at_corner = hahn_banach_witness(f, vec(2, 0))
    assert at_corner.coeffs == vec(0, 1)
    tie = hahn_banach_witness(f, vec(1, 1))
    assert tie.coeffs == vec(1, 0)  # least index wins ties
    rng = random.Random(21)
    for _ in range(100):
        u = rand_vector(rng, 2)
        witness = hahn_banach_witness(f, u)
        assert witness.eval(u) == f.eval(u)
        v = rand_vector(rng, 2)
        assert witness.eval(v) >= f.eval(v)


def test_nml_examples():
    assert nml(LinearF(vec(2, 4)), vec(1, 1)).coeffs == vec("1/3", "2/3")
    interval = SuperlinF((expectation("1/4"), expectation("3/4")))
    assert nml(interval, vec(1, 1)) == interval
    u_o = vec(1, 1)
    f = corner_min([vec(1, 2), vec(3, 1)])
    g = nml(f, u_o)
    assert g.eval(u_o) == 1
    assert g.eval(-u_o) == -1


def test_nml_rejects_nonpositive_reference_value():
    with pytest.raises(ValueError):
        nml(LinearF(vec(1, -1)), vec(1, 1))
    with pytest.raises(ValueError):
        nml(corner_min([vec(1, 1), vec(-1, -1)]), vec(1, 1))


def _sup_bracket_by_bisection(f, u_o: Vector, u: Vector, iterations: int = 60):
    """Bracket sup{a : f(u - a*u_o) > 0} by pure bisection on the definition."""

    def g(alpha: Fraction) -> Fraction:
        return f.eval(u - u_o.scale(alpha))

    lo = Fraction(-1)
    while g(lo) <= 0:
        lo *= 2
    hi = Fraction(1)
    while g(hi) > 0:
        hi *= 2
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi, g


def test_nml_closed_form_matches_the_sup_definition():
    rng = random.Random(33)
    u_o = ones(2)
    for _ in range(40):
        pieces = [
            LinearF(rand_positive_vector(rng, 2)) for _ in range(rng.randint(1, 3))
        ]
        f = SuperlinF(tuple(pieces)) if len(pieces) > 1 else pieces[0]
        u = rand_vector(rng, 2)
        value = nml(f, u_o).eval(u)
        lo, hi, g = _sup_bracket_by_bisection(f, u_o, u)
        assert lo < value <= hi
        # Exact sup characterization: excluded at the value, included below it.
        assert g(value) <= 0
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 1000)):
            assert g(value - eps) > 0


def test_superlinear_calculus_inequalities():
    rng = random.Random(41)
    for _ in range(60):
        pieces = tuple(
            LinearF(rand_vector(rng, 2)) for _ in range(rng.randint(1, 3))
        )
        f = SuperlinF(pieces)
        u, v = rand_vector(rng, 2), rand_vector(rng, 2)
        lower_u, upper_u = f.eval(u), f.conjugate_eval(u)
        lower_v, upper_v = f.eval(v), f.conjugate_eval(v)
        assert lower_u <= upper_u
        assert lower_u + lower_v <= f.eval(u + v)
        assert f.eval(u + v) <= lower_u + upper_v
        assert lower_u + upper_v <= f.conjugate_eval(u + v)
        assert f.conjugate_eval(u + v) <= upper_u + upper_v
        diff = u - v
        assert abs(lower_u - lower_v) <= max(abs(f.eval(diff)), abs(f.conjugate_eval(diff)))
        lam = abs(rand_vector(rng, 1)[0])
        assert f.eval(u.scale(lam)) == lam * lower_u
        assert f.conjugate_eval(u.scale(lam)) == lam * upper_u
        bound = operator_norm_bound(f)
        assert abs(lower_u - lower_v) <= bound * diff.sup_norm()


def test_pieces_of():
    f = LinearF(vec(1, 2))
    assert pieces_of(f) == (f,)
    g = corner_min([vec(1, 0), vec(0, 1)])
    assert len(pieces_of(g)) == 2
    assert g.dim == 2
    with pytest.raises(ValueError, match="pieces must share one dimension"):
        corner_min([vec(1, 0), vec(0, 1, 0)])
