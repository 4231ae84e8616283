import hashlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from conechoice import archimedean as arch
from conechoice import choice, lp
from conechoice import cone as cone_module
from conechoice.archimedean import archimedean_consistency_witness, is_essentially_archimedean
from conechoice.cone import (
    LexCone,
    MixingResult,
    OpenDualCone,
    PosiCone,
    background_generators,
    combination_reaches,
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
from oracles import (
    brute_force_lp,
    cone2_member,
    grid_2d,
    hull_lambda_o_lp,
    separation_direction_2d,
    units_2d,
)


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
    # incoherent one, with no LP.  Past DD_RAY_CAP the record of each such
    # option, from the Lambda_o LP, shows it too: Lambda_o >= 0, and the
    # combination of hull columns plus Lambda_o u_o reaches it, or the hull
    # is all of V, shown by the kept combination reaching -u_o.
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
            past = replace(cone)
            with monkeypatch.context() as m:
                m.setattr(cone_module, "DD_RAY_CAP", 0)
                record = past.record(v)
                assert cone_module._facet_membership(past, record), (cone, v)
            columns = cone_module._hull_columns(past)
            if record.active is None:
                combination, target = past.kept("all_of_v"), -space.u_o
            else:
                lam = record.active[0]
                assert lam >= 0, (cone, v)
                combination, target = record.combination, v - space.u_o.scale(lam)
            assert all(c in columns for c, _ in combination), (cone, v)
            assert combination_reaches(combination, target), (cone, v)


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
ENGINE_DIGEST = "fdbf77099d68a3749287e3e37df1161ea18bf9f63ed1cbc29d1da51aff9af01e"

# The SHA-256 of the same answers reduced to what they decide (``_verdict``):
# verdicts, values, rejection sets and error messages, with no evidence.  A
# change that moves only evidence keeps it.
ENGINE_VERDICT_DIGEST = "2bf645e9170d899b7a27dc7497c989d5ba7bf62e9f6455b0eaa90ee1912d4a95"


def _verdict(answer) -> str:
    """What an answer decides: a bool, a value or a rejection set as it is,
    a mixing answer's status, an extension's consistency, and otherwise only
    the kind of evidence (a functional, a certificate, or None)."""
    if isinstance(answer, (bool, Fraction, choice.OptionSet)):
        return repr(answer)
    if isinstance(answer, MixingResult):
        return f"MixingResult({answer.status})"
    if isinstance(answer, tuple):  # natural_extension's (cone, report)
        return f"consistent={answer[1].consistent}"
    return type(answer).__name__


def _answer(query, *args, view=repr) -> str:
    try:
        return view(query(*args))
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


def engine_answers(view=repr) -> list[str]:
    """The answers to every cone, Archimedean and assessment query on 400
    random draws in dims 1-4 under both backgrounds, each with a random u_o,
    each shown by view."""
    rng = random.Random(23)
    answers = []

    def answer(query, *args):
        answers.append(_answer(query, *args, view=view))

    for _ in range(400):
        d = rng.randint(1, 4)
        space = OptionSpace(d, rng.choice(list(Background)), rand_positive_vector(rng, d, 2))
        cone = _random_cone(rng, space)
        for query in (is_coherent, is_mixing, separation_evidence):
            answer(query, cone)
        for _ in range(4):
            v = rand_vector(rng, d, 2)
            for query in (member, arch.separate, arch.archimedean_closure_member, arch.lambda_o):
                answer(query, cone, v)
        answer(natural_extension, [rand_vector(rng, d, 2) for _ in range(rng.randint(1, 3))], space)
        model = choice.AssessmentK(
            tuple(_random_set(rng, d, 1, 2) for _ in range(rng.randint(1, 3))), space
        )
        b, menu = _random_set(rng, d, 1, 2), _random_set(rng, d, 2, 3)
        answer(choice.member, model, b)
        answer(choice.consistent, model)
        answer(choice.archimedean_member_evidence, model, b)
        answer(choice.is_binary, model)
        answer(choice.reject, model, menu)
    return answers


def _digest(answers: list[str]) -> str:
    return hashlib.sha256("\n".join(answers).encode()).hexdigest()


def test_engine_answers_keep_their_exact_evidence():
    assert _digest(engine_answers()) == ENGINE_DIGEST


def test_engine_answers_keep_their_verdicts():
    assert _digest(engine_answers(_verdict)) == ENGINE_VERDICT_DIGEST


# ---------------------------------------------------------------------------
# Membership and Lambda_o from the kept rays of a PosiCone's hull dual


def _oracle_member(cone: PosiCone, v: Vector) -> bool:
    """Semantic membership of a nonzero v by Farkas duality, each LP over the
    d coefficients of a functional and solved by ``oracles.brute_force_lp``.

    v is in posi(columns) iff ``min f(v)`` over the functionals nonnegative
    on the columns is 0, not unbounded.  Under strict dominance v - p is
    strictly positive for some p in posi(generators) iff every y >= 0
    nonnegative on the generators with ``sum y = 1`` has ``y(v) > 0``
    (Gordan), which holds when there is no such y."""
    d = v.dim
    units = [unit_vector(d, i) for i in range(d)]

    def least_at_v(columns, *rows):
        rows = tuple(lp.Constraint(c, lp.GE, Fraction(0)) for c in columns) + rows
        return brute_force_lp(lp.LpProblem(d, rows, lp.Objective("min", v)))

    if cone.space.background is Background.POINTWISE:
        return least_at_v([*cone.generators, *units])[0] == "optimal"
    if cone.generators and least_at_v(cone.generators)[0] == "optimal":
        return True
    status, least = least_at_v([*cone.generators, *units], lp.Constraint(ones(d), lp.EQ, Fraction(1)))
    return status == "infeasible" or least > 0


def test_facet_membership_and_lambda_o_agree_with_the_oracles(monkeypatch):
    # Random PosiCones in dims 2-5 under both backgrounds.  Each option u
    # gives one on a facet of the closed hull, w = u - Lambda_o(u) u_o with
    # Lambda_o(w) = 0, and w + u_o / 2 inside and w - u_o / 2 outside it;
    # membership agrees with the brute-force oracle and Lambda_o with the
    # hull LP.  The oracle's vertex enumeration grows fast with the
    # dimension, so 5 dims get one generator and the facet option alone.
    # Once a cone's rays are kept, an option inside or outside solves at
    # most the one LP of its combination, and one on a facet under strict
    # dominance at most the one LP over the generators tight on the active
    # ray; some of the options checked are of that last kind.
    rng = random.Random(26)
    solves = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: solves.append(problem) or solve(problem))
    checked = strict_facet = 0
    for d, m in ((2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)):
        for background in Background:
            space = OptionSpace(d, background, rand_positive_vector(rng, d, 2))
            generators = tuple(rand_vector(rng, d, 2) for _ in range(m))
            cone = PosiCone(generators, space)
            u = rand_vector(rng, d, 2)
            lam = hull_lambda_o_lp(generators, space, u)
            if lam is None:
                continue
            assert arch.lambda_o(cone, u) == lam
            w = u - space.u_o.scale(lam)
            for shift in (Fraction(0), Fraction(1, 2), Fraction(-1, 2))[: 1 if d == 5 else 3]:
                option = w + space.u_o.scale(shift)
                if option.is_zero():
                    continue
                solves.clear()
                verdict = member(cone, option)
                assert verdict == _oracle_member(cone, option), (cone, option)
                assert len(solves) <= 1, (cone, option)
                strict_facet += shift == 0 and background is Background.STRICT
                assert arch.lambda_o(cone, option) == hull_lambda_o_lp(generators, space, option)
                checked += 1
    assert checked >= 20 and strict_facet >= 1, (checked, strict_facet)


@pytest.mark.parametrize(
    "generators, option, verdict",
    [
        ((vec(0, "-3/2"), vec("3/2", 2)), vec(0, "5/4"), False),
        ((vec(1, "2/3"), vec(0, "-4/3")), vec(0, "-3/4"), True),
        ((vec(1, 0), vec(-1, 0)), vec(-2, 0), True),
    ],
)
def test_strict_boundary_membership_solves_at_most_one_lp(
    monkeypatch, st2, generators, option, verdict
):
    # Under strict dominance these options lie on a facet of the closed hull
    # (Lambda_o = 0), where no strictly positive residual can reach them.
    # The generators tight on the facet's ray decide them, where the two
    # systems of the LP path took two LPs: by one exact solve when it has no
    # negative coefficient (no LP), else by one LP over those generators.
    # In the first case the one tight generator reaches v only with a
    # negative coefficient; in the last the least-index basis of the tight
    # pair (1, 0), (-1, 0) is (1, 0), which reaches (-2, 0) only so.  Past
    # DD_RAY_CAP the Lambda_o LP gives the record, and its checked dual the
    # same tight generators, so membership takes that one LP more.
    lp_sizes = {vec(0, "5/4"): [1], vec(0, "-3/4"): [], vec(-2, 0): [2]}[option]
    cone = PosiCone(generators, st2)
    assert arch.lambda_o(cone, option) == 0
    solves = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: solves.append(problem) or solve(problem))
    assert member(cone, option) is verdict
    assert [problem.n_vars for problem in solves] == lp_sizes
    monkeypatch.setattr(cone_module, "DD_RAY_CAP", 0)
    solves.clear()
    assert member(PosiCone(generators, st2), option) is verdict
    assert len(solves) == 1 + len(lp_sizes)


def _active_ray_dropped(cone: PosiCone, u: Vector) -> bool:
    """Drop the ray attaining Lambda_o(u) from the cone's kept list when the
    min over the rest is larger, so the list misses that ray; False when no
    ray can be dropped so."""
    rays = cone_module.dual_generators(cone)
    u_o = cone.space.u_o
    active = min(rays, key=lambda r: r.eval(u) / r.eval(u_o))
    rest = tuple(r for r in rays if r != active)
    if rest and min(r.eval(u) / r.eval(u_o) for r in rest) == active.eval(u) / active.eval(u_o):
        return False
    vars(cone)["hull_dual"] = rest
    return True


def test_a_ray_missing_from_the_kept_list_is_refused(d_sector):
    # Mutation: with the ray that attains Lambda_o dropped from the kept
    # list, Lambda_o reads too large and member would answer True for a
    # non-member, but no combination reaches u - Lambda_o u_o and both
    # refuse through lp.verified.  This is a RuntimeError, not an assert,
    # so it holds under python -O.
    for u, verdict in ((vec(2, -1), False), (vec(2, "-1/2"), True)):
        assert member(replace(d_sector), u) is verdict
        for query in (member, arch.lambda_o):
            cone = replace(d_sector)
            assert _active_ray_dropped(cone, u)
            with pytest.raises(RuntimeError, match="Lambda_o combination"):
                query(cone, u)
    rng = random.Random(27)
    refused = 0
    for _ in range(200):
        d = rng.randint(2, 4)
        space = OptionSpace(d, rng.choice(list(Background)), rand_positive_vector(rng, d, 2))
        cone = PosiCone(tuple(rand_vector(rng, d, 2) for _ in range(rng.randint(1, 3))), space)
        u = rand_vector(rng, d, 2)
        if cone_module._kept_rays(cone) and _active_ray_dropped(cone, u):
            with pytest.raises(RuntimeError, match="combination"):
                arch.lambda_o(cone, u)
            refused += 1
    assert refused > 50, refused


def test_a_perturbed_combination_coefficient_is_refused(monkeypatch, d_sector):
    # Mutation: every kept Lambda_o combination passes its check, and each
    # one with a coefficient moved fails it.  A solve that returns a moved
    # coefficient makes the query refuse, under python -O too.
    rng = random.Random(28)
    perturbed = 0
    for _ in range(100):
        d = rng.randint(2, 4)
        space = OptionSpace(d, rng.choice(list(Background)), rand_positive_vector(rng, d, 2))
        cone = PosiCone(tuple(rand_vector(rng, d, 2) for _ in range(rng.randint(1, 3))), space)
        u = rand_vector(rng, d, 2)
        try:
            lam = arch.lambda_o(cone, u)
        except ValueError:
            continue
        combination = cone.record(u).combination
        w = u - space.u_o.scale(lam)
        assert combination_reaches(combination, w)
        for k, (column, coeff) in enumerate(combination):
            for moved in (coeff + Fraction(1, 7), coeff / 2, -coeff):
                terms = list(combination)
                terms[k] = (column, moved)
                assert not combination_reaches(terms, w), (cone, u, k)
                perturbed += 1
    assert perturbed > 100, perturbed
    solve_in_span = lp.solve_in_span

    def moved_solve(columns, target):
        x = solve_in_span(columns, target)
        return None if x is None else tuple(a * 2 for a in x)

    monkeypatch.setattr(lp, "solve_in_span", moved_solve)
    with pytest.raises(RuntimeError, match="Lambda_o combination"):
        arch.lambda_o(replace(d_sector), vec(2, "-1/2"))
    # A strict-dominance member on a facet of the closed hull, shown by the
    # exact solve over the generators tight there, and a hull that is all
    # of V, shown by the exact solve reaching -u_o = (-1, -1).
    strict = OptionSpace(2, Background.STRICT, vec(1, 1))
    boundary = PosiCone((vec(1, "2/3"), vec(0, "-4/3")), strict)
    with pytest.raises(RuntimeError, match="boundary combination"):
        member(boundary, vec(0, "-3/4"))
    whole = PosiCone((vec(-1, -1),), d_sector.space)
    with pytest.raises(RuntimeError, match="all-of-V combination"):
        member(whole, vec(-1, 0))


def test_reach_finds_a_combination_exactly_when_the_oracle_does(monkeypatch):
    # lp.positive_combination against oracles.brute_force_lp.  A nonzero
    # target, in dual form: it is in posi(columns) iff min f(target) over
    # the functionals f nonnegative on every column is 0, not unbounded.
    # The zero target, in primal form: sum x_k c_k = 0, sum x = 1, x >= 0
    # is feasible.  Columns in dims 1-4 include zero vectors, repeats and
    # g, -g pairs; the targets are positive combinations of all the
    # columns, of one or two of them (often on the boundary of their
    # positive hull), random vectors, and 0 over the first three columns
    # (the primal oracle enumerates C(3m + d + 1, m) bases, about 1 s at 5
    # columns).  Both the exact solve and the LP decide some nonzero
    # targets, and the zero target's LP both finds and refuses a
    # combination.
    rng = random.Random(29)
    solves = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: solves.append(problem) or solve(problem))
    branches = Counter()
    for _ in range(100):
        d = rng.randint(1, 4)
        columns: list[Vector] = []
        for _ in range(rng.randint(0, 5 if d < 4 else 3)):
            draw = rng.random()
            if draw < 0.1:
                columns.append(zero_vector(d))
            elif draw < 0.25 and columns:
                columns.append(rng.choice(columns))
            elif draw < 0.45 and columns:
                columns.append(-rng.choice(columns))
            else:
                columns.append(rand_vector(rng, d, 2))
        picks = [columns, rng.sample(columns, min(len(columns), rng.randint(1, 2)))]
        targets = [rand_vector(rng, d, 2)] + [
            sum((c.scale(a) for c, a in zip(pick, rand_positive_vector(rng, len(pick), 2))),
                zero_vector(d))
            for pick in picks
            if pick
        ]
        queries = [(columns, t) for t in targets if not t.is_zero()]
        for columns, target in queries + [(columns[:3], zero_vector(d))]:
            solves.clear()
            combination = lp.positive_combination(columns, target, "test combination")
            if target.is_zero():
                m = len(columns)
                found = bool(columns) and brute_force_lp(lp.LpProblem(m, (
                    *lp.combination_rows(columns, target), lp.sum_to_one_row(m),
                    *lp.nonneg_rows(m),
                )))[0] == "feasible"
                branch = "zero"
            else:
                rows = tuple(lp.Constraint(c, lp.GE, Fraction(0)) for c in columns)
                status, _ = brute_force_lp(lp.LpProblem(d, rows, lp.Objective("min", target)))
                found = status == "optimal"
                branch = "lp" if solves else "exact"
            assert (combination is not None) == found, (columns, target)
            if combination is not None:
                assert combination and all(c in columns and a > 0 for c, a in combination)
                assert combination_reaches(combination, target)
            branches[branch, combination is not None] += 1
    assert all(
        branches[key] for key in product(("exact", "lp", "zero"), (True, False))
    ), branches


# ---------------------------------------------------------------------------
# Separation answered from the cone's own data before any LP


def test_open_dual_separation_agrees_with_the_lp(monkeypatch):
    # Random open-dual cones with 1-4 pieces in dims 2-4, under both
    # backgrounds.  The option-free answer (the sum of the pieces, a single
    # piece, or the LP) and the answer for each option (the kept f, y + t f
    # from a piece nonpositive there, or the LP for the option) agree in
    # verdict with the separation LP itself, and every functional given is a
    # nonnegative combination of the pieces that passes ``separates``.
    rng = random.Random(30)
    lp_calls = []
    solve_separation = cone_module._solve_separation

    def spy(cone, options=()):
        lp_calls.append(options)
        return solve_separation(cone, options)

    monkeypatch.setattr(cone_module, "_solve_separation", spy)
    branches = Counter()
    for _ in range(150):
        d = rng.randint(2, 4)
        space = OptionSpace(d, rng.choice(list(Background)), rand_positive_vector(rng, d, 2))
        pieces = tuple(LinearF(rand_vector(rng, d, 2)) for _ in range(rng.randint(1, 4)))
        if any(p.coeffs.is_zero() for p in pieces):
            continue
        cone = OpenDualCone(pieces, space)
        columns = [p.coeffs for p in pieces]
        lp_calls.clear()
        f = separation_evidence(cone)
        expected = solve_separation(cone)
        assert isinstance(f, LinearF) == isinstance(expected, LinearF), cone
        if lp_calls:
            branches["lp"] += 1
        elif cone_module._positively_proportional(cone_module._combine(columns), f.coeffs):
            branches["sum"] += 1
        else:
            assert any(cone_module._positively_proportional(p, f.coeffs) for p in columns)
            branches["piece"] += 1
        if isinstance(f, LinearF):
            assert separates(f, cone) and posi_member(columns, f.coeffs), cone
        for _ in range(3):
            v = rand_vector(rng, d, 2)
            lp_calls.clear()
            made = cone_module.option_separation(cone, v)
            expected = solve_separation(cone, (v,))
            assert (made is None) == isinstance(expected, lp.Infeasible), (cone, v)
            if made is None:
                continue
            assert separates(made, cone, (v,)) and posi_member(columns, made.coeffs), (cone, v)
            if made is not f:
                branches["option lp" if lp_calls else "y + t f"] += 1
    assert all(branches[key] for key in ("sum", "piece", "lp", "y + t f", "option lp")), branches


@pytest.mark.parametrize("background", list(Background))
def test_a_hull_equal_to_v_separates_from_its_kept_combination(monkeypatch, background):
    # A PosiCone whose closed hull is all of V: after its first membership
    # the option-free system's Farkas certificate is read from the kept
    # combination reaching -u_o, with no LP, and it checks against the LP's
    # rows.  A moved coefficient of that combination makes the certificate
    # fail and the query refuse through lp.verified, under python -O too.
    space = OptionSpace(2, background, vec(1, 2))
    for generators in (
        (vec(-1, -1),),
        (vec(1, -3), vec(-2, 1)),
        (vec(-1, 0), vec(0, -1), vec(-1, 0)),
        (vec(1, 0), vec(-1, -1)),
    ):
        cone = PosiCone(generators, space)
        assert member(cone, vec(-1, 0))
        assert cone_module._kept_rays(cone) == ()
        solves = []
        solve = lp.solve
        monkeypatch.setattr(lp, "solve", lambda problem: solves.append(problem) or solve(problem))
        evidence = separation_evidence(cone)
        assert solves == [] and isinstance(evidence, lp.Infeasible)
        rows = cone_module._separation_rows(cone)[0]
        problem = lp.LpProblem(2, tuple(rows))
        assert lp.verify_infeasibility_certificate(problem, evidence.certificate)
        assert isinstance(solve(problem), lp.Infeasible)
        monkeypatch.setattr(lp, "solve", solve)
        combination = cone_module._all_of_v(cone)
        for k, (column, coeff) in enumerate(combination):
            moved = replace(cone)
            assert member(moved, vec(-1, 0))
            terms = list(combination)
            terms[k] = (column, coeff + Fraction(1, 7))
            vars(moved)["all_of_v"] = tuple(terms)
            with pytest.raises(RuntimeError, match="all-of-V certificate"):
                separation_evidence(moved)


def test_past_the_cap_a_hull_equal_to_v_separates_the_same_whatever_was_asked_first():
    # tests/golden/past_cap.json's hull_is_V cone: 65 dimensions, one past
    # DD_RAY_CAP, under strict dominance.  A membership query keeps the
    # Lambda_o LP's combination reaching -u_o, from which
    # _all_of_v_certificate would read a Farkas certificate with no LP, but
    # not the LP's: it weighs rows 0, 1, 3, 4 (by 2) and 5 onward, the LP's
    # rows 0, 1, 2 and 4.  Past the cap the option-free separation is the
    # LP's on a fresh object and after member alike, so an arch_consistent
    # certificate does not depend on what the object was asked before.
    d = cone_module.DD_RAY_CAP + 1
    space = OptionSpace(d, Background.STRICT, ones(d))
    generators = (
        Vector((Fraction(-1), Fraction(-1), *[Fraction(0)] * (d - 2))),
        Vector((Fraction(0), *[Fraction(-1)] * (d - 1))),
    )
    fresh = separation_evidence(PosiCone(generators, space))
    asked = PosiCone(generators, space)
    assert member(asked, -unit_vector(d, 0))
    assert asked.kept("all_of_v") is not None and cone_module._kept_rays(asked) is None
    assert isinstance(fresh, lp.Infeasible)
    assert separation_evidence(asked) == fresh
    assert [k for k, y in enumerate(fresh.certificate) if y] == [0, 1, 2, 4]
    assert cone_module._all_of_v_certificate(asked) != fresh
