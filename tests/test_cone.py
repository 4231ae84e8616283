import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from conechoice import archimedean as arch
from conechoice import choice, lp
from conechoice.archimedean import archimedean_consistency_witness, is_essentially_archimedean
from conechoice.cone import (
    LexCone,
    OpenDualCone,
    PosiCone,
    _membership_combination,
    background_generators,
    is_coherent,
    is_mixing,
    lex_sign,
    member,
    natural_extension,
    posi_member,
    separates,
    separation_evidence,
    strict_background_rows,
    verify_inconsistency_combination,
)
from conechoice.functional import LinearF, is_positive
from conechoice.numeric import (
    Background,
    OptionSpace,
    Vector,
    ones,
    rank_of,
    unit_vector,
    vec,
    zero_vector,
)

from conftest import expectation, rand_fraction, rand_positive_vector, rand_vector
from oracles import cone2_member, grid_2d, separation_direction_2d, units_2d


def test_posi_member_examples():
    assert posi_member([vec(1, 0), vec(0, 1)], vec(2, 3))
    assert not posi_member([vec(1, 0), vec(0, 1)], vec(-1, 0))
    assert posi_member([vec(1, -1), vec(-1, 1)], vec(0, 0))
    assert not posi_member([vec(1, 0), vec(0, 1)], vec(0, 0))


def test_interval_cone_membership(d_interval):
    # min over p in {1/4, 3/4} of E_p((1,-1)) = min(2p - 1) = -1/2 <= 0.
    assert not member(d_interval, vec(1, -1))
    assert member(d_interval, vec(1, "-1/4"))
    assert member(d_interval, vec(1, 1))


def test_lex_cone_membership(d_lex):
    assert member(d_lex, vec(0, 1))
    assert not member(d_lex, vec(0, -1))
    assert member(d_lex, vec(1, -100))
    assert not member(d_lex, zero_vector(2))


def test_sector_cone_contains_boundary_rays(d_sector):
    assert member(d_sector, vec("3/4", "-1/4"))
    assert member(d_sector, vec("-1/4", "3/4"))
    assert not member(d_sector, vec(1, -1))


def test_interior_member(st2):
    # The interior of the background cone is the strict-dominance positive set.
    assert st2.background_strictly_positive(vec(1, 1))
    assert not st2.background_strictly_positive(vec(1, 0))
    assert st2.background_strictly_positive(vec(2, "1/10"))


def test_lex_sign():
    assert lex_sign([Fraction(0), Fraction(2)]) == 1
    assert lex_sign([Fraction(0), Fraction(-1)]) == -1
    assert lex_sign([Fraction(0), Fraction(0)]) == 0


def test_vacuous_extension_is_consistent(pw2):
    cone, report = natural_extension([], pw2)
    assert report.consistent
    assert member(cone, vec(0, 1)) and member(cone, vec(2, 3))
    assert not member(cone, vec(1, -1))


def test_coin_joint_assessment_is_inconsistent(pw2):
    joint = [vec(1, 0), vec(1, -1), vec(0, 1), vec(-1, 1)]
    _, report = natural_extension(joint, pw2)
    assert not report.consistent
    assert report.combination is not None
    assert verify_inconsistency_combination(report.combination)


def test_single_bet_extension(pw2):
    cone, report = natural_extension([vec(1, -1)], pw2)
    assert report.consistent
    witness = archimedean_consistency_witness(cone)
    assert witness is not None
    assert witness.eval(vec(1, -1)) > 0 and is_positive(witness, pw2)
    assert member(cone, vec(1, 0))
    assert not member(cone, vec(-1, 3))


def test_coherence_examples(pw2, st2, vacuous, d_interval, d_lex, d_sector):
    half_space = OpenDualCone((LinearF(vec(1, 0)),), pw2)
    assert not is_coherent(half_space)  # (0,1) > 0 pointwise but maps to 0
    half_space_strict = OpenDualCone((LinearF(vec(1, 0)),), st2)
    assert is_coherent(half_space_strict)
    assert is_coherent(vacuous)
    assert is_coherent(d_interval)
    assert is_coherent(d_lex)
    assert is_coherent(d_sector)
    degenerate = PosiCone((vec(1, -1), vec(-1, 1)), pw2)
    assert not is_coherent(degenerate)  # the generators cancel to 0


def test_lex_coherence_under_strict_background(st2):
    assert is_coherent(LexCone((LinearF(vec(1, 0)), LinearF(vec(0, 1))), st2))
    # First level (1,-1) is negative at the strictly positive option (1,2).
    assert not is_coherent(LexCone((LinearF(vec(1, -1)), LinearF(vec(1, 1))), st2))


def test_strict_lex_coherence_is_a_sign_test(monkeypatch):
    # Under strict dominance a LexCone is coherent iff its first level is
    # background-positive, which needs no LP.  With entries in [-3, 3] and
    # d <= 5 the options with entries in {1, 100} decide it exactly: a
    # negative first-level entry at the 100 outweighs the rest (-100 + 3*4 < 0).
    solves = []
    solve = lp.solve

    def counting(problem):
        solves.append(problem)
        return solve(problem)

    monkeypatch.setattr(lp, "solve", counting)
    rng = random.Random(81)
    coherent = 0
    for _ in range(300):
        d = rng.randint(1, 5)
        space = OptionSpace(d, Background.STRICT, Vector((Fraction(1),) * d))
        levels = tuple(
            LinearF(Vector(tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))))
            for _ in range(rng.randint(1, d))
        )
        try:
            cone = LexCone(levels, space)
        except ValueError:
            continue  # dependent levels
        expected = all(member(cone, vec(*u)) for u in product((1, 100), repeat=d))
        assert is_coherent(cone) == expected, levels
        coherent += expected
    assert not solves
    assert coherent >= 20


def test_mixing_examples(d_half, d_interval, d_lex):
    assert is_mixing(d_half).status is True
    assert is_mixing(d_lex).status is True
    result = is_mixing(d_interval)
    assert result.status is False
    u, v = result.witness
    assert not member(d_interval, u)
    assert not member(d_interval, v)
    assert member(d_interval, u + v)


def test_vacuous_cone_is_not_mixing(vacuous):
    result = is_mixing(vacuous)
    assert result.status is False
    u, v = result.witness
    assert not member(vacuous, u) and not member(vacuous, v)
    assert member(vacuous, u + v)


def test_one_dimensional_posi_cone_is_mixing():
    line = OptionSpace(dim=1, background=Background.POINTWISE, u_o=vec(1))
    assert is_mixing(PosiCone((), line)).status is True


@pytest.mark.parametrize("background", list(Background))
def test_posi_mixing_agrees_with_the_planar_oracle(background):
    # A PosiCone that some background-positive functional separates is not
    # mixing, and its witness is built from that functional; without one the
    # answer stays Unknown.  The oracles decide separability (the rows of
    # cone._separation_rows) and membership: posi(G plus units) pointwise;
    # under strict dominance, as in test_grid_agreement_posi_strict, posi(G)
    # or no functional nonnegative on G and the units, positive on (1,1), is
    # nonpositive at v.
    rng = random.Random(31)
    units = units_2d()
    interior = [vec(1, 1)]
    pointwise = background is Background.POINTWISE

    def oracle_member(gens, v):
        closed = gens + units
        if pointwise:
            return cone2_member(closed, v)
        return cone2_member(gens, v) or (
            separation_direction_2d(strict=interior, nonpos=[v], nonneg=closed) is None
        )

    decided = 0
    for _ in range(60):
        space = OptionSpace(2, background, vec(rng.randint(1, 3), rng.randint(1, 3)))
        gens = []
        for _ in range(rng.randint(0, 4)):
            g = vec(rng.randint(-3, 3), rng.randint(-3, 3))
            if not g.is_zero():
                gens.append(g)
        cone = PosiCone(tuple(gens), space)
        if pointwise:
            separable = separation_direction_2d(strict=gens + units) is not None
        else:
            separable = separation_direction_2d(strict=gens + interior, nonneg=units) is not None
        assert separable == isinstance(separation_evidence(cone), LinearF), gens
        result = is_mixing(cone)
        if not separable:
            assert result.status is None, gens
            continue
        assert result.status is False, gens
        u, v = result.witness
        assert not oracle_member(gens, u), (gens, u)
        assert not oracle_member(gens, v), (gens, v)
        assert oracle_member(gens, u + v), (gens, u, v)
        decided += 1
    assert decided >= 25


def _grid():
    return grid_2d(Fraction(1), Fraction(1, 10))


def test_grid_agreement_open_dual(d_interval):
    pieces = [expectation("1/4"), expectation("3/4")]
    for v in _grid():
        expected = all(p.eval(v) > 0 for p in pieces)
        assert member(d_interval, v) == expected


def test_grid_agreement_lex(d_lex):
    for v in _grid():
        expected = lex_sign([v[0], v[1]]) > 0
        assert member(d_lex, v) == expected


def test_grid_agreement_posi_pointwise(d_sector):
    gens = list(d_sector.generators) + units_2d()
    for v in _grid():
        assert member(d_sector, v) == cone2_member(gens, v)


def test_strict_sector_equals_pointwise_sector(st2, d_sector):
    # This sector contains the closed positive orthant, so augmenting by the
    # open orthant adds nothing: both background orders give the same set.
    strict_sector = PosiCone(d_sector.generators, st2)
    for v in _grid():
        assert member(strict_sector, v) == member(d_sector, v)


def test_strict_posi_cone_open_orthant_residual(st2):
    cone = PosiCone((vec(1, -1),), st2)
    assert member(cone, vec(1, -1))  # the generator ray itself
    assert member(cone, vec(1, 1))  # open orthant
    assert member(cone, vec(2, 0))  # (1,-1) + (1,1)
    assert not member(cone, vec(0, 1))  # boundary of the orthant, not reachable
    assert not member(cone, vec(-1, 1))


def test_grid_agreement_posi_strict(st2):
    # Under strict dominance v is a member iff it is in posi(G), or no
    # functional nonnegative on G and the units, positive on (1,1), is
    # nonpositive at v (Motzkin): then v is posi(G) plus the open orthant.
    # The assessment G is consistent iff 0 is in neither part (Gordan for
    # posi(G), Motzkin for the rest).
    rng = random.Random(23)
    points = [v for v in grid_2d(Fraction(2), Fraction(1, 2)) if not v.is_zero()]
    interior = [vec(1, 1)]
    for _ in range(60):
        gens: list = []
        for _ in range(rng.randint(0, 4)):
            g = vec(rng.randint(-3, 3), rng.randint(-3, 3))
            while g.is_zero():
                g = vec(rng.randint(-3, 3), rng.randint(-3, 3))
            gens.append(g)
        cone, report = natural_extension(gens, st2)
        closed = units_2d() + gens
        assert report.consistent == (
            (not gens or separation_direction_2d(strict=gens) is not None)
            and separation_direction_2d(strict=interior, nonneg=closed) is not None
        ), gens
        for v in points:
            expected = cone2_member(gens, v) or (
                separation_direction_2d(strict=interior, nonpos=[v], nonneg=closed) is None
            )
            assert member(cone, v) == expected, (gens, v)


def _background_positive(rng: random.Random, space: OptionSpace) -> Vector:
    """A random option that is strictly positive in the space's background order."""
    d = space.dim
    if space.background is Background.STRICT:
        return rand_positive_vector(rng, d, 3)
    entries = [max(Fraction(0), rand_fraction(rng, 3)) for _ in range(d)]
    entries[rng.randrange(d)] = Fraction(rng.randint(1, 12), rng.randint(1, 4))
    return Vector(tuple(entries))


def test_background_positive_options_are_members_with_no_lp(monkeypatch):
    # Every background-positive option is a member of every PosiCone, even an
    # incoherent one, with no LP; the LP path reaches each such option too,
    # by a combination that substitution confirms.
    rng = random.Random(31)
    solves = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: solves.append(problem) or solve(problem))
    for _ in range(120):
        d = rng.randint(1, 4)
        space = OptionSpace(d, rng.choice(list(Background)), rand_positive_vector(rng, d, 2))
        generators = [rand_vector(rng, d, 2) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.25:
            generators.append(zero_vector(d))
        if generators and rng.random() < 0.25:
            generators.append(-rng.choice(generators))
        cone = PosiCone(tuple(generators), space)
        for v in [_background_positive(rng, space) for _ in range(4)] + [space.u_o]:
            assert space.background_strictly_positive(v)
            solves.clear()
            assert member(cone, v), (cone, v)
            assert solves == []
            combination = _membership_combination(cone, v)
            assert combination is not None, (cone, v)
            total = zero_vector(d)
            for vector, coeff in combination:
                assert coeff > 0
                reachable = vector in cone.generators or (
                    vector in background_generators(space)
                    if space.background is Background.POINTWISE
                    else coeff == 1 and space.background_strictly_positive(vector)
                )
                assert reachable, (cone, v, vector)
                total = total + vector.scale(coeff)
            assert total == v, (cone, v)


def _sparse_vector(rng: random.Random, d: int) -> Vector:
    """A random rational vector with about half its entries zero."""
    return Vector(tuple(
        Fraction(0) if rng.random() < 0.5 else rand_fraction(rng, 3) for _ in range(d)
    ))


def test_positivity_rules_agree_with_each_other_and_with_the_lp_rows():
    # (a) a positive functional is positive at every background-positive
    # option; (b) a functional that is not has a background-positive option
    # where it is <= 0; (c) the predicate is the LP's background rows read
    # homogeneously; (d) on PosiCones, is_essentially_archimedean agrees with
    # its former formula, which asked is_coherent for an LP.
    rng = random.Random(47)
    decided = {True: 0, False: 0}
    for _ in range(1500):
        d = rng.randint(1, 4)
        space = OptionSpace(d, rng.choice(list(Background)), rand_positive_vector(rng, d, 2))
        c = _sparse_vector(rng, d)
        positive = space.positive_functional(c)
        for u in (_sparse_vector(rng, d), _background_positive(rng, space)):
            if positive and space.background_strictly_positive(u):
                assert c.dot(u) > 0, (space, c, u)
        if not positive:
            if space.background is Background.POINTWISE:
                k = next(k for k in range(d) if c[k] <= 0)
                u = unit_vector(d, k)
            elif c.is_zero():
                u = ones(d)
            else:
                k = next(k for k in range(d) if c[k] < 0)
                u = ones(d) + unit_vector(d, k).scale(sum(map(abs, c)) / -c[k])
            assert space.background_strictly_positive(u) and c.dot(u) <= 0, (space, c, u)
        strict_rows, nonneg_rows = strict_background_rows(space)
        assert positive == (
            all(row.coeffs.dot(c) > 0 for row in strict_rows)
            and all(row.coeffs.dot(c) >= 0 for row in nonneg_rows)
        ), (space, c)
        generators = [
            rand_positive_vector(rng, d, 2) if rng.random() < 0.5 else _sparse_vector(rng, d)
            for _ in range(rng.randint(0, 3))
        ]
        cone = PosiCone(tuple(generators), space)
        former = (
            d == 1
            or (
                space.background is Background.STRICT
                and all(all(entry > 0 for entry in g.entries) for g in generators)
            )
        ) and is_coherent(cone)
        assert is_essentially_archimedean(cone) == former, cone
        decided[former] += 1
    assert min(decided.values()) >= 150, decided


def test_closure_is_extensive_and_monotone(pw2):
    rng = random.Random(11)
    for _ in range(20):
        assessment = [rand_vector(rng, 2) for _ in range(rng.randint(1, 3))]
        cone, report = natural_extension(assessment, pw2)
        if not report.consistent:
            continue
        for a in assessment:
            if not a.is_zero():
                assert member(cone, a)
        extra = rand_vector(rng, 2)
        bigger, bigger_report = natural_extension(assessment + [extra], pw2)
        if bigger_report.consistent:
            for probe in assessment + [vec(1, 0), vec(0, 1), extra]:
                if member(cone, probe):
                    assert member(bigger, probe)


def test_closure_is_idempotent_membership_wise(pw2):
    rng = random.Random(13)
    for _ in range(10):
        assessment = [rand_vector(rng, 2) for _ in range(2)]
        cone, report = natural_extension(assessment, pw2)
        if not report.consistent:
            continue
        regenerated, _ = natural_extension(
            list(cone.generators) + background_generators(pw2), pw2
        )
        for probe in [rand_vector(rng, 2) for _ in range(10)]:
            assert member(cone, probe) == member(regenerated, probe)


def test_members_are_closed_under_positive_combinations(
    d_interval, d_lex, d_sector, vacuous
):
    rng = random.Random(17)
    for cone in (d_interval, d_lex, d_sector, vacuous):
        members = [v for v in _grid() if member(cone, v)]
        for _ in range(25):
            u, v = rng.choice(members), rng.choice(members)
            lam = rand_fraction(rng, span=3)
            mu = rand_fraction(rng, span=3)
            if lam <= 0 or mu <= 0:
                continue
            assert member(cone, u.scale(lam) + v.scale(mu))


def test_coherent_fixtures_exclude_zero_and_include_background(
    d_interval, d_lex, d_sector, vacuous
):
    for cone in (d_interval, d_lex, d_sector, vacuous):
        assert not member(cone, zero_vector(2))
        for e in background_generators(cone.space):
            assert member(cone, e)


def test_cone_construction_validation(pw2):
    with pytest.raises(ValueError):
        OpenDualCone((), pw2)
    with pytest.raises(ValueError):
        LexCone((), pw2)
    with pytest.raises(ValueError):
        LexCone((LinearF(vec(1, 1)), LinearF(vec(2, 2))), pw2)  # dependent levels
    with pytest.raises(ValueError):
        member(PosiCone((), pw2), vec(1, 2, 3))
    with pytest.raises(ValueError, match="generator has wrong dimension"):
        PosiCone((vec(1, 2, 3),), pw2)
    with pytest.raises(ValueError, match="piece has wrong dimension"):
        OpenDualCone((LinearF(vec(1, 2, 3)),), pw2)
    with pytest.raises(ValueError, match="level has wrong dimension"):
        LexCone((LinearF(vec(1, 2, 3)),), pw2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        posi_member([vec(1, 0)], vec(1, 2, 3))
    assert not verify_inconsistency_combination(())
    assert not verify_inconsistency_combination(((vec(1, 0), Fraction(-1)), (vec(-1, 0), Fraction(-1))))
    assert not verify_inconsistency_combination(((vec(1, 0), Fraction(1)),))
    # Background-positive, but zero on the cone's generator.
    assert not separates(LinearF(vec(1, 1)), PosiCone((vec(1, -1),), pw2))


# The SHA-256 of the answers below, each the repr of what the engine returns
# or "ValueError: <message>": every verdict, witness and certificate the cone,
# Archimedean and choice layers give them.  A refactor keeps it; a change to
# an answer or a piece of evidence changes it on purpose and records the new one.
ENGINE_DIGEST = "820916af706270df8932671a22dd9a301dd85b06618e7bf796bc85b2334311d5"


def _answer(query, *args) -> str:
    try:
        return repr(query(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _random_cone(rng: random.Random, space: OptionSpace):
    d = space.dim
    kind = rng.randrange(3)
    if kind == 0:
        return PosiCone(tuple(rand_vector(rng, d, 2) for _ in range(rng.randint(0, 3))), space)
    if kind == 1:
        pieces = tuple(LinearF(rand_vector(rng, d, 2)) for _ in range(rng.randint(1, 3)))
        return OpenDualCone(pieces, space)
    while True:
        levels = tuple(LinearF(rand_vector(rng, d, 2)) for _ in range(rng.randint(1, d)))
        if rank_of([level.coeffs for level in levels]) == len(levels):
            return LexCone(levels, space)


def _random_set(rng: random.Random, d: int, low: int, high: int) -> choice.OptionSet:
    return choice.OptionSet(tuple(rand_vector(rng, d, 2) for _ in range(rng.randint(low, high))))


def engine_answers() -> list[str]:
    """The answers to every cone, Archimedean and assessment query on 400
    random draws in dims 1-4 under both backgrounds, each with a random u_o."""
    rng = random.Random(23)
    answers = []
    for _ in range(400):
        d = rng.randint(1, 4)
        space = OptionSpace(d, rng.choice(list(Background)), rand_positive_vector(rng, d, 2))
        cone = _random_cone(rng, space)
        answers += [_answer(q, cone) for q in (is_coherent, is_mixing, separation_evidence)]
        for _ in range(4):
            v = rand_vector(rng, d, 2)
            for query in (member, arch.separate, arch.archimedean_closure_member, arch.lambda_o):
                answers.append(_answer(query, cone, v))
        assessment = [rand_vector(rng, d, 2) for _ in range(rng.randint(1, 3))]
        answers.append(_answer(natural_extension, assessment, space))
        model = choice.AssessmentK(
            tuple(_random_set(rng, d, 1, 2) for _ in range(rng.randint(1, 3))), space
        )
        b, menu = _random_set(rng, d, 1, 2), _random_set(rng, d, 2, 3)
        answers += [
            _answer(choice.member, model, b),
            _answer(choice.consistent, model),
            _answer(choice.archimedean_member_evidence, model, b),
            _answer(choice.is_binary, model),
            _answer(choice.reject, model, menu),
        ]
    return answers


def test_engine_answers_keep_their_exact_evidence():
    digest = hashlib.sha256("\n".join(engine_answers()).encode()).hexdigest()
    assert digest == ENGINE_DIGEST
