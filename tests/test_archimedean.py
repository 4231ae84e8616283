import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from conechoice import cone as cone_module
from conechoice import lp
from conechoice.archimedean import (
    SeparationWitness,
    archimedean_closure_member,
    archimedean_consistency_witness,
    archimedean_consistent,
    is_essentially_archimedean,
    lambda_o,
    lambda_o_functional,
    separate,
    separation_evidence,
    verify_separation_witness,
)
from conechoice.cone import (
    LexCone,
    OpenDualCone,
    PosiCone,
    combination_reaches,
    is_mixing,
    member,
    natural_extension,
)
from conechoice.functional import LinearF, SuperlinF, is_positive
from conechoice.numeric import Background, OptionSpace, Vector, unit_vector, vec, zero_vector

from conftest import expectation, rand_positive_vector, rand_vector
from oracles import cone2_member, grid_2d, hull_lambda_o_lp, separation_direction_2d, units_2d


def test_separate_from_a_single_bet_closure(pw2):
    cone, _ = natural_extension([vec(1, -1)], pw2)
    witness = separate(cone, vec(-1, 3))
    assert witness is not None
    assert verify_separation_witness(cone, witness, members=[vec(1, -1), vec(1, 0), vec(0, 1)])
    # The hand-checked functional (3,1) is itself a valid witness.
    hand = LinearF(vec(3, 1))
    assert hand.eval(vec(1, -1)) > 0 and hand.eval(vec(-1, 3)) <= 0


def test_lex_cone_admits_no_separation(d_lex):
    # No linear functional is strictly positive on the whole lexicographic cone.
    assert separate(d_lex, vec(-1, 0)) is None
    assert not archimedean_consistent(d_lex)


def test_boundary_point_of_a_half_space(d_half):
    witness = separate(d_half, vec(1, -1))
    assert witness is not None
    assert verify_separation_witness(d_half, witness, members=[vec(1, 0), vec(1, 1)])


def test_separate_rejects_members(d_half):
    with pytest.raises(ValueError):
        separate(d_half, vec(1, 1))


def test_archimedean_consistency_examples(pw2, st2, vacuous, d_interval):
    assert not archimedean_consistent(
        LexCone((LinearF(vec(1, 0)), LinearF(vec(0, 1))), pw2)
    )
    assert archimedean_consistent(OpenDualCone((LinearF(vec(1, 0)),), st2))
    witness = archimedean_consistency_witness(vacuous)
    assert witness is not None and is_positive(witness, pw2)
    assert archimedean_consistent(d_interval)


def test_lex_inconsistency_carries_an_lp_certificate(d_lex):
    evidence = separation_evidence(d_lex)
    assert isinstance(evidence, lp.Infeasible)
    assert evidence.certificate  # non-empty Farkas multipliers


def test_closure_member_examples(pw2):
    cone, _ = natural_extension([vec(1, -1)], pw2)
    assert archimedean_closure_member(cone, vec(1, -1))
    assert not archimedean_closure_member(cone, vec(2, Fraction(-2) - Fraction(1, 10)))
    assert archimedean_closure_member(cone, pw2.u_o)


def test_closure_member_requires_consistency(d_lex):
    with pytest.raises(ValueError):
        archimedean_closure_member(d_lex, vec(1, 1))


def test_sector_is_its_own_closure_but_not_open(d_sector):
    for v in grid_2d(Fraction(1), Fraction(1, 5)):
        assert archimedean_closure_member(d_sector, v) == member(d_sector, v)
    assert not is_essentially_archimedean(d_sector)


def test_essential_archimedeanity_examples(st2, d_interval, d_lex, d_sector):
    assert is_essentially_archimedean(d_interval)
    assert not is_essentially_archimedean(d_lex)
    assert not is_essentially_archimedean(d_sector)
    assert is_essentially_archimedean(OpenDualCone((LinearF(vec(1, 0)),), st2))
    assert is_essentially_archimedean(LexCone((LinearF(vec(1, 1)),), st2))


def test_one_dimensional_cones_are_open_under_both_backgrounds():
    # In one dimension the two background orders coincide: every coherent
    # PosiCone is the open ray {x > 0}, and generator (-1) with the background
    # reaches 0, so that cone is incoherent under both.
    for generators, coherent in (((), True), ((vec(2),), True), ((vec(-1),), False)):
        answers = {
            background: is_essentially_archimedean(
                PosiCone(generators, OptionSpace(1, background, vec(1)))
            )
            for background in Background
        }
        assert set(answers.values()) == {coherent}, (generators, answers)


def test_open_dual_cones_are_their_own_closures(d_interval, d_half):
    for cone in (d_interval, d_half):
        for v in grid_2d(Fraction(1), Fraction(1, 5)):
            assert archimedean_closure_member(cone, v) == member(cone, v)


def test_lambda_o_examples(d_interval, d_lex, d_half, d_sector, vacuous):
    assert lambda_o(d_lex, vec(3, -7)) == 3
    assert lambda_o(d_interval, vec(1, 0)) == Fraction(1, 4)
    for cone in (d_interval, d_lex, d_half, d_sector, vacuous):
        assert lambda_o(cone, cone.space.u_o) == 1
        assert lambda_o(cone, zero_vector(2)) == 0


def test_lambda_o_step_property(d_interval, d_lex, d_sector):
    rng = random.Random(55)
    for cone in (d_interval, d_lex, d_sector):
        for _ in range(15):
            u = vec(rng.randint(-3, 3), rng.randint(-3, 3))
            threshold = lambda_o(cone, u)
            u_o = cone.space.u_o
            for delta in (Fraction(1, 7), Fraction(1), Fraction(5)):
                assert member(cone, u - u_o.scale(threshold - delta))
                assert not member(cone, u - u_o.scale(threshold + delta))


def test_lambda_o_refuses_pieces_nonpositive_at_u_o(pw2):
    # At u_o = (1, 1) the piece or first level (1, -1) is 0 and (1, -2) is
    # negative; the ratio formula would divide by zero or, for
    # {u1 - 2 u2 > 0} at (1, 0), answer -1 though (1, 0) - 5 u_o is a member.
    for bad in (vec(1, -1), vec(1, -2)):
        for cone in (
            OpenDualCone((LinearF(bad), LinearF(vec(1, 0))), pw2),
            OpenDualCone((LinearF(bad),), pw2),
            LexCone((LinearF(bad), LinearF(vec(0, 1))), pw2),
        ):
            with pytest.raises(ValueError):
                lambda_o(cone, vec(1, 0))


def test_lambda_o_refuses_a_vector_of_the_wrong_length(pw2, d_interval, d_sector):
    # (1, 2, 99) used to be cut to (1, 2) and answer 1; (1,) raised IndexError.
    # cone.hull_lambda_o cut them too: on the sector (1, 2, 3) gave 5/4 and
    # (1,) gave 1/4.
    for cone in (PosiCone((vec(1, -1),), pw2), d_interval, d_sector):
        for u in (vec(1, 2, 3), vec(1, 2, 99), vec(1)):
            for query in (lambda_o, cone_module.hull_lambda_o):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    query(cone, u)


def test_lambda_o_functional_closed_forms(d_interval, d_half, d_lex):
    f_lex = lambda_o_functional(d_lex)
    assert isinstance(f_lex, LinearF) and f_lex.coeffs == vec(1, 0)
    f_half = lambda_o_functional(d_half)
    assert isinstance(f_half, LinearF) and f_half.coeffs == vec("1/2", "1/2")
    f_interval = lambda_o_functional(d_interval)
    assert set(p.coeffs for p in f_interval.pieces) == {
        vec("1/4", "3/4"),
        vec("3/4", "1/4"),
    }
    # {eval > 0} is the interior of the cone; for open cones, the cone itself.
    for v in grid_2d(Fraction(1), Fraction(1, 5)):
        assert (f_interval.eval(v) > 0) == member(d_interval, v)
        assert (f_half.eval(v) > 0) == member(d_half, v)


def test_lambda_o_functional_of_posi_cones_in_closed_form(d_sector, pw2, st2):
    # The sector's hull has the dual {f >= 0 : 3 f1 >= f2, 3 f2 >= f1}, whose
    # extreme rays (1, 3) and (3, 1), normalised at u_o = (1, 1), are the
    # pieces of the interval cone's Lambda_o.
    f_sector = lambda_o_functional(d_sector)
    assert isinstance(f_sector, SuperlinF)
    assert set(p.coeffs for p in f_sector.pieces) == {vec("1/4", "3/4"), vec("3/4", "1/4")}
    for v in grid_2d(Fraction(1), Fraction(1, 5)):
        assert f_sector.eval(v) == lambda_o(d_sector, v)
    # No generator: the hull is the orthant, whose dual rays are the units.
    for space in (pw2, st2):
        f_vacuous = lambda_o_functional(PosiCone((), space))
        assert set(p.coeffs for p in f_vacuous.pieces) == {vec(1, 0), vec(0, 1)}
    # (1, -1) and (-2, 2) span a line, which the units lift to the half-plane
    # {u1 + u2 >= 0}: one piece.
    for space in (pw2, st2):
        f_line = lambda_o_functional(PosiCone((vec(1, -1), vec(-2, 2)), space))
        assert isinstance(f_line, LinearF) and f_line.coeffs == vec("1/2", "1/2")
    # A hull that is all of V, under both backgrounds: -u_o is a generator,
    # or -e1 and a multiple of -e2 are.
    message = re.escape("lambda_o is +infinity: the closed hull of the cone is all of V")
    for generators in ((vec(-1, -1),), (vec(-1, 0), vec(0, -2))):
        for space in (pw2, st2):
            with pytest.raises(ValueError, match=message):
                lambda_o_functional(PosiCone(generators, space))


def _random_posi_cone(rng: random.Random) -> PosiCone:
    """A PosiCone in dims 1-5 under a random background and u_o, with 0-5
    generators drawn among zero vectors, negatives (g, -g pairs), repeats
    and positive multiples of earlier ones, and random vectors."""
    d = rng.randint(1, 5)
    space = OptionSpace(d, rng.choice(list(Background)), rand_positive_vector(rng, d, 2))
    generators: list[Vector] = []
    for _ in range(rng.randint(0, 5)):
        draw = rng.random()
        if draw < 0.1:
            generators.append(zero_vector(d))
        elif draw < 0.25 and generators:
            generators.append(-rng.choice(generators))
        elif draw < 0.4 and generators:
            generators.append(rng.choice(generators).scale(rng.randint(1, 3)))
        else:
            generators.append(rand_vector(rng, d, 2))
    return PosiCone(tuple(generators), space)


def test_lambda_o_of_posi_cones_agrees_with_the_hull_lp():
    # Lambda_o from the kept dual rays equals the LP over the closed hull on
    # 2,000 random cones, and raises "+infinity" exactly where that LP is
    # unbounded; the closed form, where there is one, agrees too.
    rng = random.Random(24)
    message = "lambda_o is +infinity: the closed hull of the cone is all of V"
    infinite = finite = 0
    for _ in range(2000):
        cone = _random_posi_cone(rng)
        d = cone.space.dim
        for u in (rand_vector(rng, d, 3), rand_vector(rng, d, 3), cone.space.u_o):
            reference = hull_lambda_o_lp(cone.generators, cone.space, u)
            if reference is None:
                infinite += 1
                with pytest.raises(ValueError, match=re.escape(message)):
                    lambda_o(cone, u)
                with pytest.raises(ValueError, match=re.escape(message)):
                    lambda_o_functional(cone)
            else:
                finite += 1
                assert lambda_o(cone, u) == reference, (cone, u)
                assert lambda_o_functional(cone).eval(u) == reference, (cone, u)
    assert min(infinite, finite) > 1000, (infinite, finite)


def test_lambda_o_of_a_posi_cone_below_the_cap_solves_no_hull_lp(monkeypatch, d_sector):
    # The hull's dual is found once per cone, with no LP.  Each value's
    # combination is one exact solve over the tight columns, and one
    # feasibility LP only where that solve has a negative coefficient.  A
    # cone whose hull is all of V keeps no ray, and its "+infinity" error is
    # confirmed once per cone by a combination reaching -u_o, found the same
    # way: of the 16 such cones, 9 need the LP.  Past
    # DD_RAY_CAP a cone keeps no rays and solves the hull LP for each option,
    # with the same values and the same "+infinity" error, except that a
    # cone whose hull is all of V keeps its first LP's ray, the combination
    # reaching -u_o, and solves nothing for its other two options.
    rng = random.Random(25)
    cones = [_random_posi_cone(rng) for _ in range(60)] + [d_sector]
    options = [[rand_vector(rng, c.space.dim, 3) for _ in range(3)] for c in cones]
    solves = _spy(monkeypatch, lp, "solve")
    below = [[_answer(lambda_o, cone, u) for u in us] for cone, us in zip(cones, options)]
    whole = sum(cone.kept("hull_dual") == () for cone in cones)
    assert whole == 16 and len(solves) == 27 + 9
    assert all(problem.objective is None for problem in solves)
    solves.clear()
    monkeypatch.setattr(cone_module, "DD_RAY_CAP", 0)
    fresh = [replace(cone) for cone in cones]
    past = [[_answer(lambda_o, cone, u) for u in us] for cone, us in zip(fresh, options)]
    assert past == below
    assert len(solves) == sum(map(len, options)) - 2 * whole
    assert all("hull_dual" in vars(cone) and cone.kept("hull_dual") is None for cone in fresh)
    with pytest.raises(ValueError, match="DD_RAY_CAP"):
        lambda_o_functional(fresh[-1])


def test_lambda_o_past_the_cap_solves_one_lp_per_option(monkeypatch):
    # A space of DD_RAY_CAP + 1 dimensions keeps no double description, whose
    # ray list would start with more rays than the cap: each option's
    # Lambda_o is one hull LP, equal to the oracle's, and there is no closed
    # form.  The option's record holds the LP's checked dual as r*: it is
    # nonnegative at every column of the closed hull, so it lies in the
    # hull's dual, with r*(u_o) = 1 and r*(u) = Lambda_o(u); and the LP's
    # witness as the combination reaching u - Lambda_o(u) u_o.
    rng = random.Random(26)
    d = cone_module.DD_RAY_CAP + 1
    space = OptionSpace(d, Background.POINTWISE, rand_positive_vector(rng, d, 2))
    cone = PosiCone((rand_vector(rng, d, 2), rand_vector(rng, d, 2)), space)
    options = [rand_vector(rng, d, 3), rand_vector(rng, d, 3), space.u_o]
    references = [hull_lambda_o_lp(cone.generators, space, u) for u in options]
    assert None not in references
    solves = _spy(monkeypatch, lp, "solve")
    columns = [*cone.generators, *(unit_vector(d, i) for i in range(d))]
    for u, reference in zip(options, references):
        assert lambda_o(cone, u) == reference
        record = cone.record(u)
        lam, ray = record.active
        assert lam == reference
        assert all(ray.eval(c) >= 0 for c in columns)
        assert ray.eval(space.u_o) == 1 and ray.eval(u) == lam
        assert all(c in columns for c, _ in record.combination)
        assert combination_reaches(record.combination, u - space.u_o.scale(lam))
    assert len(solves) == len(options)
    assert all(problem.objective is not None for problem in solves)
    assert "hull_dual" in vars(cone) and cone.kept("hull_dual") is None
    with pytest.raises(ValueError, match="DD_RAY_CAP"):
        lambda_o_functional(cone)


@pytest.mark.parametrize("background", [Background.POINTWISE, Background.STRICT])
def test_a_ray_list_past_the_cap_part_way_through_takes_the_lp_path(monkeypatch, background):
    # In 16 dims the generator (1, ..., 1, -1) leaves 30 rays, and the
    # alternating (1, -1, ..., 1, -1) then makes 72, past DD_RAY_CAP: the
    # double description gives up at its second row and keeps no rays.
    # member, separate and lambda_o then solve LPs, and agree with the
    # answers read from the full ray list, found with a larger cap.
    d = 16
    space = OptionSpace(d, background, vec(*([1] * d)))
    g1, g2 = vec(*([1] * (d - 1) + [-1])), vec(*[(-1) ** i for i in range(d)])
    capped = PosiCone((g1, g2), space)
    e = [vec(*[int(i == j) for j in range(d)]) for i in range(d)]
    options = [g1 + g2, g2, -g2, e[1] - e[0], e[0] - e[15], e[15] - e[0], space.u_o, -g1]

    def answers(cone):
        found = []
        for v in options:
            witness = _answer(separate, cone, v)
            if isinstance(witness, SeparationWitness):
                assert verify_separation_witness(cone, witness), v
                witness = "separated"
            found.append((member(cone, v), witness, _answer(lambda_o, cone, v)))
        return found

    solves = _spy(monkeypatch, lp, "solve")
    past = answers(capped)
    assert "hull_dual" in vars(capped) and capped.kept("hull_dual") is None
    # One hull LP per Lambda_o, and membership and separation LPs besides.
    assert sum(problem.objective is not None for problem in solves) == len(options)
    assert any(problem.objective is None for problem in solves)
    monkeypatch.setattr(cone_module, "DD_RAY_CAP", 128)
    uncapped = PosiCone((g1, g2), space)
    assert answers(uncapped) == past
    assert len(uncapped.kept("hull_dual")) == 72
    assert {member(capped, v) for v in options} == {True, False}


def test_witnesses_are_positive_on_members(pw2):
    cone, _ = natural_extension([vec(1, -1)], pw2)
    members = [
        v for v in grid_2d(Fraction(2), Fraction(1, 2)) if member(cone, v)
    ][:50]
    for v in (vec(-1, 3), vec(0, -1), vec(-2, 1)):
        witness = separate(cone, v)
        assert witness is not None
        assert all(witness.functional.eval(m) > 0 for m in members)


def test_a_witness_negative_or_zero_on_a_member_is_refused(pw2, st2, d_lex):
    # Each functional is background-positive and nonpositive at (-1, 0), and
    # at the member it is -4, -4, 0 and 0.  The last is a positive multiple
    # of the first level of a two-level cone.
    for cone, f, inside in (
        (OpenDualCone((LinearF(vec(1, 0)),), pw2), vec(1, 5), vec(1, -1)),
        (LexCone((LinearF(vec(1, 0)),), pw2), vec(1, 5), vec(1, -1)),
        (d_lex, vec(1, 1), vec(1, -1)),
        (replace(d_lex, space=st2), vec(2, 0), vec(0, 1)),
    ):
        assert member(cone, inside) and f.dot(inside) <= 0
        witness = SeparationWitness(LinearF(f), vec(-1, 0))
        assert not verify_separation_witness(cone, witness), cone


def test_an_accepted_witness_is_positive_on_every_member():
    # Random planar one-level lexicographic and open-dual cones, and random
    # functionals, half of them nonnegative combinations of the cone's rows
    # plus, at times, a small change: whenever the check accepts f against
    # an option, f is strictly positive at every member on the grid, by the
    # planar oracle.
    rng = random.Random(18)
    grid = grid_2d(Fraction(2), Fraction(1, 2))
    accepted = refused = 0
    while accepted < 150:
        space = OptionSpace(2, rng.choice(list(Background)), rand_positive_vector(rng, 2, 2))
        lex = rng.random() < 0.5
        rows = [rand_vector(rng, 2, 2) for _ in range(1 if lex else rng.randint(1, 3))]
        if any(row.is_zero() for row in rows):
            continue
        cone = LexCone((LinearF(rows[0]),), space) if lex else OpenDualCone(
            tuple(LinearF(row) for row in rows), space
        )
        if rng.random() < 0.5:
            f = rand_vector(rng, 2, 2)
        else:
            f = zero_vector(2)
            for row in rows:
                f = f + row.scale(rng.randint(0, 2))
            if rng.random() < 0.5:
                f = f + rand_vector(rng, 2, 1).scale(Fraction(1, 4))
        members = [u for u in grid if _planar_member(cone, u)]
        for v in rng.sample([u for u in grid if f.dot(u) <= 0], 3):
            if verify_separation_witness(cone, SeparationWitness(LinearF(f), v)):
                assert all(f.dot(u) > 0 for u in members), (cone, f)
                accepted += 1
            else:
                refused += 1
    assert refused > accepted


def test_mixing_equivalence_on_mixing_fixtures(d_half, d_lex):
    # For mixing cones: Archimedean-consistent, Archimedean (self-closure) and
    # essentially Archimedean stand or fall together.
    for cone in (d_half, d_lex):
        assert is_mixing(cone).status is True
        consistent = archimedean_consistent(cone)
        assert consistent == is_essentially_archimedean(cone)
        if consistent:
            functional = lambda_o_functional(cone)
            for v in grid_2d(Fraction(1), Fraction(1, 5)):
                assert archimedean_closure_member(cone, v) == member(cone, v)
                assert (functional.eval(v) > 0) == member(cone, v)


def _rot90(v: Vector) -> Vector:
    return vec(-v[1], v[0])


def _separation_system_2d(cone):
    """(strict, nonneg) rows on L in the plane: L background-positive and
    strictly positive on the cone.  Derived per class from the geometry, not
    from the engine's rows.

    * PosiCone: L > 0 on every generator.
    * OpenDualCone: L >= 0 on the closure {p_k >= 0}, which the boundary rays
      +-rot90(p_k) lying in it generate (with p for a half-plane, implied by
      the other rows), and L > 0 at an interior point; that is, L nonzero.
    * LexCone: L >= 0 on the closure {level_1 >= 0}, generated by level_1 and
      +-rot90(level_1), and L > 0 at each of those that is a member.
    """
    units = [vec(1, 0), vec(0, 1)]
    if cone.space.background is Background.POINTWISE:
        strict, nonneg = list(units), []
    else:
        strict, nonneg = [vec(1, 1)], list(units)
    if isinstance(cone, PosiCone):
        return strict + list(cone.generators), nonneg
    if isinstance(cone, OpenDualCone):
        pieces = [p.coeffs for p in cone.pieces]
        interior = separation_direction_2d(pieces)
        assert interior is not None  # every cone below is a nonempty open set
        rays = [
            r for p in pieces for r in (_rot90(p), -_rot90(p))
            if all(q.dot(r) >= 0 for q in pieces)
        ]
        return strict + [interior], nonneg + rays
    first = cone.levels[0].coeffs
    for ray in (first, _rot90(first), -_rot90(first)):
        (strict if member(cone, ray) else nonneg).append(ray)
    return strict, nonneg


def _two_d_cones(space):
    # Each class with a consistent and an inconsistent cone (under both
    # backgrounds), their boundary rays on the step 1/2 grid of [-1, 1]^2.
    linear = lambda *pieces: tuple(LinearF(vec(*p)) for p in pieces)  # noqa: E731
    return [
        PosiCone((vec(1, "-1/2"), vec("-1/2", 1)), space),
        PosiCone((vec(1, -1), vec(-1, 1)), space),
        PosiCone((), space),
        OpenDualCone(linear(("1/3", "2/3"), ("2/3", "1/3")), space),
        OpenDualCone(linear((1, -1)), space),
        OpenDualCone(linear((1, 0), (1, 2)), space),
        LexCone(linear((1, 2)), space),
        LexCone(linear((1, 0), (0, 1)), space),
    ]


def test_separate_and_closure_agree_with_the_planar_oracle(pw2, st2):
    # The grid meets the generator rays, the piece kernels and the level
    # kernels, so boundary points are among the options.
    options = grid_2d(Fraction(1), Fraction(1, 2))
    verdicts = set()
    for cone in _two_d_cones(pw2) + _two_d_cones(st2):
        strict, nonneg = _separation_system_2d(cone)
        consistent = separation_direction_2d(strict, [], nonneg) is not None
        for v in options:
            separable = separation_direction_2d(strict, [v], nonneg) is not None
            if member(cone, v):
                assert not separable
                with pytest.raises(ValueError, match="member"):
                    separate(cone, v)
            else:
                witness = separate(cone, v)
                assert (witness is not None) == separable
                if witness is not None:
                    f = witness.functional
                    assert verify_separation_witness(cone, witness)
                    assert all(f.eval(s) > 0 for s in strict)
                    assert all(f.eval(w) >= 0 for w in nonneg)
            if consistent:
                assert archimedean_closure_member(cone, v) == (not separable)
            else:
                with pytest.raises(ValueError, match="inconsistent"):
                    archimedean_closure_member(cone, v)
            verdicts.add((consistent, separable, member(cone, v)))
        for wrong in (vec(1), vec(1, 1, 1)):
            for query in (separate, archimedean_closure_member):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    query(cone, wrong)
    assert verdicts == {
        (True, True, False), (True, False, False), (True, False, True),
        (False, False, False), (False, False, True),
    }


def _random_cone(rng: random.Random):
    """A random cone of a random class, background and dimension 1-4.  Posi
    generators include zero vectors and g, -g pairs; a planar open-dual cone
    is nonempty, which the planar separation system needs."""
    d = rng.randint(1, 4)
    space = OptionSpace(d, rng.choice(list(Background)), rand_positive_vector(rng, d, 2))
    kind = rng.choice(("posi", "open_dual", "lex"))
    if kind == "posi":
        generators = [rand_vector(rng, d, 2) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.2:
            generators.append(zero_vector(d))
        if generators and rng.random() < 0.2:
            generators.append(-rng.choice(generators))
        return PosiCone(tuple(generators), space)
    while True:
        functionals = tuple(LinearF(rand_vector(rng, d, 2)) for _ in range(rng.randint(1, d)))
        if any(f.coeffs.is_zero() for f in functionals):
            continue
        if kind == "open_dual":
            planar_empty = d == 2 and separation_direction_2d([f.coeffs for f in functionals]) is None
            if not planar_empty:
                return OpenDualCone(functionals, space)
        else:
            try:
                return LexCone(functionals, space)
            except ValueError:  # dependent levels
                continue


def _answer(query, cone, v):
    """What a query returns, with a ValueError read as its message."""
    try:
        return query(cone, v)
    except ValueError as error:
        return ("ValueError", str(error))


def _planar_member(cone, v) -> bool:
    """Membership from the planar oracles and the cone's definition, not the engine."""
    if isinstance(cone, OpenDualCone):
        return all(p.coeffs.dot(v) > 0 for p in cone.pieces)
    if isinstance(cone, LexCone):
        values = [level.coeffs.dot(v) for level in cone.levels]
        return next((x > 0 for x in values if x != 0), False)
    gens = list(cone.generators)
    pointwise = cone.space.background is Background.POINTWISE
    spanning = gens + units_2d() if pointwise else gens
    if v.is_zero():
        # Pairwise Caratheodory misses a zero sum of three generators; by
        # Gordan, 0 is a positive combination iff no L is positive on them all.
        in_posi = bool(spanning) and separation_direction_2d(strict=spanning) is None
    else:
        in_posi = cone2_member(spanning, v)
    if pointwise:
        return in_posi
    # Strict dominance: posi(G), or posi(G) plus the open orthant (Motzkin).
    return in_posi or separation_direction_2d(
        strict=[vec(1, 1)], nonpos=[v], nonneg=units_2d() + gens
    ) is None


def test_kept_functional_answers_agree_with_a_fresh_cone():
    # A cone whose kept separation evidence is solved first answers member,
    # separate, archimedean_closure_member and lambda_o (whose kept dual
    # rays are found at the first option) as a fresh cone object does, errors
    # included; in the plane both agree with the oracles.  Of 150
    # cones, 51 have a kept functional, which decides 245 of their options.
    rng = random.Random(20)
    for _ in range(150):
        warm = _random_cone(rng)
        separation_evidence(warm)
        d = warm.space.dim
        options = [rand_vector(rng, d, 2) for _ in range(6)] + [zero_vector(d)]
        if isinstance(warm, PosiCone):
            options += list(warm.generators) + [-g for g in warm.generators[:1]]
        else:
            rows = warm.pieces if isinstance(warm, OpenDualCone) else warm.levels
            options += [rows[0].coeffs, -rows[0].coeffs]
        members = [v for v in options if member(replace(warm), v)]
        if d == 2:
            strict, nonneg = _separation_system_2d(warm)
            consistent = separation_direction_2d(strict, [], nonneg) is not None
        for v in options + [zero_vector(d + 1)] + ([zero_vector(d - 1)] if d > 1 else []):
            answers = {}
            for query in (member, separate, archimedean_closure_member, lambda_o):
                answer = _answer(query, warm, v)
                fresh_cone = replace(warm)
                fresh = _answer(query, fresh_cone, v)
                if query is member:  # member reads the kept evidence, never solves it
                    assert fresh_cone.kept("separation") is None
                if isinstance(answer, SeparationWitness):
                    assert isinstance(fresh, SeparationWitness), (warm, v)
                    for witness in (answer, fresh):
                        assert verify_separation_witness(warm, witness, members), (warm, v)
                    answer = fresh = True
                assert answer == fresh, (query.__name__, warm, v)
                answers[query.__name__] = answer
            if v.dim != d:
                assert set(answers.values()) == {("ValueError", "dimension mismatch")}
            elif d == 2:
                inside = _planar_member(warm, v)
                separable = separation_direction_2d(strict, [v], nonneg) is not None
                assert answers["member"] == inside, (warm, v)
                assert (answers["separate"] is True) == separable, (warm, v)
                if inside:
                    assert answers["separate"][0] == "ValueError"
                if not consistent:
                    assert answers["archimedean_closure_member"][0] == "ValueError"
                else:
                    assert answers["archimedean_closure_member"] == (not separable)


def test_posi_separation_does_not_depend_on_earlier_queries(monkeypatch):
    # A PosiCone keeps a record of the last option it was asked about.  Its
    # separate answer is the functional that a fresh cone object returns,
    # after member and archimedean_closure_member on that option and on
    # others; once the closure is answered, separate solves nothing.  Every
    # functional is a checked witness, and in the plane every verdict agrees
    # with the oracles.
    rng = random.Random(15)
    solves = _spy(monkeypatch, lp, "solve")
    witnesses = 0
    for _ in range(60):
        d = rng.randint(2, 4)
        for background in Background:
            space = OptionSpace(d, background, rand_positive_vector(rng, d, 2))
            generators = tuple(rand_vector(rng, d, 2) for _ in range(rng.randint(1, 3)))
            cone = PosiCone(generators, space)
            options = [rand_vector(rng, d, 2) for _ in range(5)]
            options += [generators[0], -generators[0], zero_vector(d)]
            members = [v for v in options if member(replace(cone), v)]
            warm = replace(cone)
            if d == 2:
                strict, nonneg = _separation_system_2d(cone)
                consistent = separation_direction_2d(strict, [], nonneg) is not None
            for v in options:
                fresh = _answer(separate, replace(cone), v)
                other = rng.choice(options)
                for query in (member, archimedean_closure_member):
                    _answer(query, warm, other)
                inside = member(warm, v)
                closure = _answer(archimedean_closure_member, warm, v)
                solves.clear()
                answer = _answer(separate, warm, v)
                assert solves == [], (cone, v)
                if isinstance(fresh, SeparationWitness):
                    assert isinstance(answer, SeparationWitness), (cone, v)
                    assert answer.functional == fresh.functional, (cone, v)
                    assert verify_separation_witness(cone, answer, members), (cone, v)
                    assert closure is False, (cone, v)
                    witnesses += 1
                else:
                    assert answer == fresh, (cone, v)
                if d == 2:
                    assert inside == _planar_member(cone, v), (cone, v)
                    separable = separation_direction_2d(strict, [v], nonneg) is not None
                    assert isinstance(fresh, SeparationWitness) == separable, (cone, v)
                    if not consistent:
                        assert closure[0] == "ValueError", (cone, v)
                    else:
                        assert closure == (not separable), (cone, v)
    assert witnesses == 417  # of the 960 options asked


def test_a_non_member_is_separated_with_no_lp(monkeypatch, d_sector, d_interval):
    # The cone's kept functional answers separate, and then the closure
    # query, with no LP: the sector's is the sum of its hull dual's rays,
    # the interval's the sum of its pieces.  A background-positive option,
    # which it does not decide, is a closure member with no LP, since
    # consistency reads the kept evidence.
    solves = []
    solve = lp.solve

    def counting(problem):
        solves.append(problem)
        return solve(problem)

    monkeypatch.setattr(lp, "solve", counting)
    for cone in (d_sector, d_interval):
        solves.clear()
        assert separate(cone, vec(-1, 0)) is not None
        assert len(solves) == 0
        solves.clear()
        assert archimedean_closure_member(cone, vec(-1, 0)) is False
        assert len(solves) == 0
    solves.clear()
    assert archimedean_closure_member(d_sector, vec(1, 0))
    assert len(solves) == 0


def _spy(monkeypatch, owner, name):
    """Record the first argument of every call of owner.name."""
    seen = []
    original = getattr(owner, name)

    def spy(first, *args):
        seen.append(first)
        return original(first, *args)

    monkeypatch.setattr(owner, name, spy)
    return seen


def test_consistency_evidence_is_solved_once_per_cone(monkeypatch, d_sector):
    # CLI check asks a posi cone for mixing and then for Archimedean
    # consistency; both read the one kept option-free separation, here the
    # sum of the hull dual's rays, and the mixing witness is decided from the
    # same rays, so neither solves an LP.
    solves = _spy(monkeypatch, lp, "solve")
    assert is_mixing(d_sector).status is False
    assert solves == [] and "separation" in vars(d_sector)
    assert archimedean_consistent(d_sector)
    assert solves == []
    assert separation_evidence(d_sector) is separation_evidence(d_sector)


@pytest.mark.parametrize("background", [Background.POINTWISE, Background.STRICT])
def test_repeat_queries_build_only_the_rows_of_their_data(monkeypatch, background):
    # The option is one that the cone's kept functional does not exclude.
    # With the hull dual's rays kept, its membership is read from them and
    # builds no row, and its separation is built from the active ray, with
    # no row either.  Past DD_RAY_CAP, rows that depend only on a size (sign
    # rows) are built once and shared, so a repeat query builds only the
    # equality rows of its Lambda_o LP, which hold its option, the cone's
    # generators, the units and u_o, and its separation is built from that
    # LP's dual, under either background order.
    g1, g2 = vec("3/4", "-1/4"), vec("-1/4", "3/4")
    space = OptionSpace(2, background, vec(1, 1))
    v = vec(2, -1)
    columns = [(g1[j], g2[j], Fraction(j == 0), Fraction(j == 1), space.u_o[j]) for j in range(2)]
    lp_rows = [lp.Constraint(Vector(c), lp.EQ, v[j]) for j, c in enumerate(columns)]
    built = _spy(monkeypatch, lp.Constraint, "__post_init__")
    for cap, member_rows in ((cone_module.DD_RAY_CAP, []), (0, lp_rows)):
        monkeypatch.setattr(cone_module, "DD_RAY_CAP", cap)
        cone = PosiCone((g1, g2), space)
        assert not member(cone, vec(-2, 1)) and separate(cone, vec(-2, 1)) is not None
        assert separation_evidence(cone).eval(v) > 0
        built.clear()
        assert not member(cone, v)
        assert built == member_rows
        built.clear()
        assert separate(cone, v) is not None
        assert built == []
        # An option that the kept functional excludes builds no row at all.
        assert separation_evidence(cone).eval(vec(-1, 0)) <= 0
        assert not member(cone, vec(-1, 0)) and separate(cone, vec(-1, 0)) is not None
        assert built == []
