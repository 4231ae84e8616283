import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from conechoice import choice
from conechoice.choice import (
    AssessmentK,
    BinaryK,
    CredalK,
    OptionSet,
    archimedean_consistent,
    archimedean_member_evidence,
    choose,
    consistent,
    displaced,
    is_binary,
    maximal,
    member,
    option_set,
    reject,
    selections,
)
from conechoice.cone import OpenDualCone, PosiCone, is_mixing, member as cone_member, natural_extension, posi_member
from conechoice.functional import LinearF, is_positive
from conechoice.numeric import Background, OptionSpace, vec, zero_vector

from conftest import expectation, mixing_instance, rand_positive_vector, rand_vector
from oracles import (
    cone2_member,
    e_admissible,
    maximal_by_definition,
    open_dual_member,
    separation_direction_2d,
    units_2d,
)


@pytest.fixture
def k_hot(pw2):
    """One of 'bet on heads' and 'bet on tails' is desirable."""
    return AssessmentK(
        (option_set(vec(1, 0), vec(0, 1)), option_set(vec(1, -1), vec(-1, 1))), pw2
    )


@pytest.fixture
def k_credal(pw2):
    return CredalK((expectation("1/3"), expectation("2/3")), pw2)


def test_option_set_deduplicates_and_orders():
    a = option_set(vec(1, 0), vec(0, 1), vec(1, 0))
    assert len(a) == 2
    assert a.options == (vec(0, 1), vec(1, 0))
    assert vec(1, 0) in a
    assert a.without_zero() == a.options
    assert option_set(zero_vector(2)).without_zero() == ()


def test_hot_model_membership(k_hot):
    assert member(k_hot, option_set(vec(1, -1), vec(-1, 1)))
    assert not member(k_hot, option_set(vec(1, -1)))
    assert not member(k_hot, option_set(vec(-1, 1)))
    assert member(k_hot, option_set(vec(1, 1)))
    with pytest.raises(ValueError, match="assessment option has wrong dimension"):
        AssessmentK((option_set(vec(1, 0, 0)),), k_hot.space)


def test_vacuous_model_membership(pw2):
    vacuous = AssessmentK((), pw2)
    assert member(vacuous, option_set(vec(1, 1)))
    assert not member(vacuous, option_set(vec(-1, -1)))
    assert consistent(vacuous)


def test_binary_model_membership(pw2, d_half):
    model = BinaryK(d_half)
    # Both options evaluate to exactly zero under the half-space functional.
    assert not member(model, option_set(vec(1, -1), vec(-1, 1)))
    assert member(model, option_set(vec(1, -1), vec(0, 1)))
    assert model.space is d_half.space


def test_membership_prunes_zero(k_hot, k_credal):
    for model in (k_hot, k_credal):
        b = option_set(vec(1, 1))
        with_zero = option_set(vec(1, 1), zero_vector(2))
        assert member(model, b) == member(model, with_zero)
        assert not member(model, option_set(zero_vector(2)))


def test_consistency_examples(pw2):
    assert consistent(AssessmentK((option_set(vec(1, -1), vec(-1, 1)),), pw2))
    assert not consistent(AssessmentK((option_set(vec(-1, -1)),), pw2))
    assert consistent(AssessmentK((), pw2))


def test_selection_cap(pw2, monkeypatch):
    sets = tuple(option_set(vec(1, 1), vec(1, 2)) for _ in range(3))
    model = AssessmentK(sets, pw2)
    assert len(list(selections(model))) == 8
    monkeypatch.setattr(choice, "SELECTION_CAP", 7)
    with pytest.raises(ValueError):
        list(selections(model))


def test_archimedean_consistency_examples(pw2, k_hot):
    assert archimedean_consistent(k_hot)
    forced = AssessmentK((option_set(vec(1, -1)), option_set(vec(-1, 1))), pw2)
    assert not archimedean_consistent(forced)
    assert archimedean_consistent(AssessmentK((), pw2))


def test_archimedean_membership_examples(pw2, k_hot):
    assert archimedean_member_evidence(k_hot, option_set(vec(1, 1))) is None
    single = AssessmentK((option_set(vec(1, -1)),), pw2)
    assert archimedean_member_evidence(single, option_set(vec(1, -1))) is None
    envelope = archimedean_member_evidence(single, option_set(vec(-2, 2)))
    assert envelope is not None
    assert is_positive(envelope, pw2)
    assert envelope.eval(vec(1, -1)) > 0
    assert envelope.eval(vec(-2, 2)) <= 0
    # The hand-checked witness (2,1) confirms the exclusion independently.
    hand = LinearF(vec(2, 1))
    assert hand.eval(vec(1, -1)) > 0 and hand.eval(vec(-2, 2)) <= 0


def test_archimedean_membership_requires_consistency(pw2):
    forced = AssessmentK((option_set(vec(1, -1)), option_set(vec(-1, 1))), pw2)
    with pytest.raises(ValueError):
        archimedean_member_evidence(forced, option_set(vec(1, 1)))


def test_binary_extraction(k_hot, pw2, d_half):
    assert not is_binary(k_hot)
    for v in (vec(1, 1), vec(1, -1), vec(0, 1), vec(-1, -1)):
        assert member(BinaryK(d_half), option_set(v)) == cone_member(d_half, v)
    singleton = AssessmentK((option_set(vec(1, 1)),), pw2)
    assert is_binary(singleton)


def test_km_check_examples(pw2, k_credal, d_interval):
    b = option_set(vec(1, -1), vec(-1, 1))
    # B2 = B is an instance, on which the axiom holds whatever the model.
    assert mixing_instance(b, b)
    rng = random.Random(61)
    for _ in range(100):
        base = [rand_vector(rng, 2) for _ in range(rng.randint(1, 3))]
        base = [v for v in base if not v.is_zero()] or [vec(1, 1)]
        b = OptionSet(tuple(base))
        extra = b.options[0].scale(2) + b.options[-1]
        b2 = OptionSet(b.options + (extra,))
        assert mixing_instance(b, b2)
        assert not (member(k_credal, b2) and not member(k_credal, b))

    mix = is_mixing(d_interval)
    u, v = mix.witness
    witness_b = option_set(u, v)
    witness_b2 = OptionSet(witness_b.options + (u + v,))
    assert mixing_instance(witness_b, witness_b2)
    model = BinaryK(d_interval)
    assert member(model, witness_b2) and not member(model, witness_b)


def test_km_check_preconditions():
    # B not inside B2, and B2 not inside posi(B): neither is an instance.
    assert not mixing_instance(option_set(vec(1, 0)), option_set(vec(0, 1)))
    assert not mixing_instance(option_set(vec(1, 0)), option_set(vec(1, 0), vec(-1, 0)))


def test_displacement():
    a = option_set(vec(1, 0), vec(0, 1), vec("1/2", "1/2"))
    shifted = displaced(a, vec("1/2", "1/2"))
    assert shifted.options == (vec("-1/2", "1/2"), vec("1/2", "-1/2"))


def test_reject_and_choose_examples(pw2, k_credal, vacuous):
    menu = option_set(vec(1, 0), vec(0, 1), vec("1/2", "1/2"))
    assert reject(k_credal, menu).options == (vec("1/2", "1/2"),)
    assert choose(k_credal, menu).options == (vec(0, 1), vec(1, 0))

    binary_vacuous = BinaryK(vacuous)
    both = option_set(vec(1, 1), zero_vector(2))
    assert reject(binary_vacuous, both).options == (zero_vector(2),)

    assert reject(k_credal, option_set(vec(1, 0))).options == ()
    with pytest.raises(ValueError, match="need a nonempty menu"):
        reject(k_credal, OptionSet(()))


def test_e_admissible_examples(k_credal):
    menu = option_set(vec(1, 0), vec(0, 1), vec("1/2", "1/2"))
    assert e_admissible(k_credal.functionals, menu).options == (vec(0, 1), vec(1, 0))
    single = [expectation("2/3")]
    assert e_admissible(single, menu).options == (vec(1, 0),)
    assert e_admissible(single, option_set(vec(5, 5))).options == (vec(5, 5),)
    # The engine's rule: E-admissibility is choose over a CredalK.
    assert choose(k_credal, menu).options == (vec(0, 1), vec(1, 0))
    assert choose(CredalK(tuple(single), k_credal.space), menu).options == (vec(1, 0),)
    with pytest.raises(ValueError, match="need a nonempty credal set"):
        e_admissible((), menu)
    with pytest.raises(ValueError, match="a credal set needs at least one functional"):
        CredalK((), k_credal.space)
    with pytest.raises(ValueError, match="credal functional has wrong dimension"):
        CredalK((LinearF(vec(1, 1, 1)),), k_credal.space)


def test_maximal_examples(pw2, vacuous):
    menu = option_set(vec(1, 0), vec(0, 1), vec("1/2", "1/2"))
    pair_cone = OpenDualCone((expectation("1/3"), expectation("2/3")), pw2)
    assert maximal(pair_cone, menu).options == menu.options
    assert maximal(vacuous, option_set(zero_vector(2), vec(1, 1))).options == (vec(1, 1),)
    chain = option_set(vec(1, 0), vec(2, 0), vec(3, 0))
    single_cone = OpenDualCone((expectation("2/3"),), pw2)
    assert maximal(single_cone, chain).options == (vec(3, 0),)


def test_maximal_of_an_empty_menu_raises(vacuous):
    # maximal is choose over BinaryK(cone), which refuses an empty menu as
    # reject does.
    with pytest.raises(ValueError, match="need a nonempty menu"):
        maximal(vacuous, OptionSet(()))


def test_rejection_bridge_and_rule_equivalences(pw2):
    rng = random.Random(77)
    for _ in range(60):
        functionals = tuple(
            LinearF(vec(Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5))))
            for _ in range(rng.randint(1, 3))
        )
        credal = CredalK(functionals, pw2)
        menu = OptionSet(tuple(rand_vector(rng, 2) for _ in range(rng.randint(1, 4))))
        if not menu.options:
            continue
        rejected = reject(credal, menu)
        for u in menu:
            assert (u in rejected) == member(credal, displaced(menu, u))
        eadm = e_admissible(credal.functionals, menu)
        assert choose(credal, menu) == eadm
        cone = OpenDualCone(credal.functionals, pw2)
        pieces = [f.coeffs for f in cone.pieces]
        assert maximal(cone, menu).options == maximal_by_definition(
            lambda w: open_dual_member(pieces, w), menu
        )
        assert all(u in maximal(cone, menu) for u in eadm)
    # Maximality relative to a 2-D PosiCone under pointwise dominance, whose
    # members are the positive combinations of its generators and the units.
    for _ in range(60):
        generators = tuple(rand_vector(rng, 2) for _ in range(rng.randint(1, 3)))
        cone = PosiCone(generators, pw2)
        menu = OptionSet(tuple(rand_vector(rng, 2) for _ in range(rng.randint(1, 4))))
        columns = [*generators, *units_2d()]
        assert maximal(cone, menu).options == maximal_by_definition(
            lambda w: cone2_member(columns, w), menu
        )


def test_k_axioms_on_fixtures(pw2, k_hot, k_credal, d_half):
    rng = random.Random(83)
    models = (k_hot, k_credal, BinaryK(d_half))
    for model in models:
        # K1: the zero singleton is never acceptable.
        assert not member(model, option_set(zero_vector(2)))
        # K4: background-positive singletons always are.
        for u in (vec(1, 0), vec(0, 1), vec(1, 1), vec("1/3", 2)):
            assert member(model, option_set(u))
        for _ in range(15):
            b = OptionSet(tuple(rand_vector(rng, 2) for _ in range(rng.randint(1, 3))))
            # K0: adjoining the zero option never changes membership.
            assert member(model, b) == member(
                model, OptionSet(b.options + (zero_vector(2),))
            )
            # K3: supersets of members stay members.
            if member(model, b):
                assert member(model, OptionSet(b.options + (rand_vector(rng, 2),)))
        # K2: positive pairwise combinations of two members form a member.
        b1 = option_set(vec(1, 0), vec(0, 1))
        b2 = option_set(vec(1, 1), vec(2, -1))
        if member(model, b1) and member(model, b2):
            for lam, mu in ((1, 1), (2, 1), (Fraction(1, 2), 3)):
                combined = OptionSet(
                    tuple(
                        u.scale(lam) + v.scale(mu)
                        for u, v in product(b1.options, b2.options)
                    )
                )
                assert member(model, combined)


def _k2_saturation_probes(assessment_sets, pool):
    """Option sets derivable from the assessment by axioms K2-K4 over a grid.

    Every derived set must belong to the coherent closure; this is the
    soundness half of the closure characterization, checked without LP.
    """
    known = [frozenset(a) for a in assessment_sets]
    for u in pool:
        if all(x >= 0 for x in u.entries) and any(x > 0 for x in u.entries):
            known.append(frozenset([u]))  # K4
    derived = list(known)
    for b1, b2 in product(known, repeat=2):
        for lam, mu in ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(1)), (Fraction(1, 2), Fraction(1, 2))):
            derived.append(
                frozenset(u.scale(lam) + v.scale(mu) for u in b1 for v in b2)
            )  # K2 with a constant coefficient table
    for b in list(derived):
        derived.append(b | {pool[0]})  # K3
    return derived


def _oracle_consistent_2d(selection) -> bool:
    """Pointwise, in the plane: does the selection's extension exclude 0?

    By Gordan's alternative, 0 is a nontrivial nonnegative combination of the
    generators exactly when no direction is strictly positive on all of them.
    (Pairwise Carathéodory does not apply to 0: three generators with no
    antiparallel pair can still combine to 0.)
    """
    return separation_direction_2d(list(selection) + units_2d()) is not None


def _oracle_member_2d(pruned, options) -> bool:
    """Pointwise, in the plane: is the option set in the closure, by the
    product of selections and the planar oracles?"""
    if not options:
        return False
    for selection in product(*pruned):
        gens = list(selection) + units_2d()
        if _oracle_consistent_2d(selection) and not any(cone2_member(gens, v) for v in options):
            return False
    return True


def test_selection_reduction_against_independent_oracle(pw2):
    rng = random.Random(91)
    units = units_2d()
    for _ in range(25):
        sets = tuple(
            OptionSet(
                tuple(
                    vec(rng.randint(-2, 2), rng.randint(-2, 2))
                    for _ in range(rng.randint(1, 3))
                )
            )
            for _ in range(rng.randint(1, 3))
        )
        sets = tuple(a for a in sets if a.without_zero())
        if not sets:
            continue
        model = AssessmentK(sets, pw2)
        pruned = [a.without_zero() for a in sets]
        oracle_consistent = any(_oracle_consistent_2d(s) for s in product(*pruned))
        assert consistent(model) == oracle_consistent
        for _ in range(4):
            b = OptionSet(
                tuple(vec(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3)))
            )
            assert member(model, b) == _oracle_member_2d(pruned, b.without_zero())
        if oracle_consistent:
            pool = [v for a in pruned for v in a] + units
            probes = list(dict.fromkeys(_k2_saturation_probes(pruned, pool)))
            if len(probes) > 25:
                probes = rng.sample(probes, 25)
            for probe in probes:
                assert member(model, OptionSet(tuple(probe)))


def test_archimedean_membership_against_separation_oracle(pw2):
    rng = random.Random(97)
    units = units_2d()
    checked = 0
    for _ in range(40):
        sets = tuple(
            OptionSet(
                tuple(
                    vec(rng.randint(-2, 2), rng.randint(-2, 2))
                    for _ in range(rng.randint(1, 2))
                )
            )
            for _ in range(rng.randint(1, 3))
        )
        sets = tuple(a for a in sets if a.without_zero())
        if not sets:
            continue
        model = AssessmentK(sets, pw2)
        pruned = [a.without_zero() for a in sets]
        oracle_consistent = any(
            separation_direction_2d(list(s) + units) is not None
            for s in product(*pruned)
        )
        assert archimedean_consistent(model) == oracle_consistent
        if not oracle_consistent:
            continue
        for _ in range(4):
            b = OptionSet(
                tuple(vec(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 2)))
            )
            options = b.without_zero()
            excluded = any(
                all(
                    separation_direction_2d(list(s) + units, nonpos=[v]) is not None
                    for v in options
                )
                for s in product(*pruned)
            ) if options else True
            assert (archimedean_member_evidence(model, b) is None) == (not excluded)
            checked += 1
    assert checked >= 40


def _random_assessment(rng: random.Random) -> AssessmentK:
    """A random assessment model on a random background in dimension 2 or 3.

    Some sets are all zero (no selection at all), and some pick -g for an
    option g of an earlier set, so that some selections are inconsistent.
    """
    d = rng.randint(2, 3)
    space = OptionSpace(d, rng.choice(list(Background)), rand_positive_vector(rng, d, 2))
    sets: list[OptionSet] = []
    for _ in range(rng.randint(1, 3)):
        options = [rand_vector(rng, d, 2) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            options.append(zero_vector(d))
        if sets and rng.random() < 0.3:
            options.append(-rng.choice(sets[-1].without_zero() or (vec(*[1] * d),)))
        sets.append(OptionSet(tuple(options)))
    if rng.random() < 0.1:
        sets.append(option_set(zero_vector(d)))
    return AssessmentK(tuple(sets), space)


def _ask(model: AssessmentK, query) -> object:
    """One query's answer, with a ValueError read as its message."""
    kind, arg = query
    try:
        if kind == "member":
            return member(model, arg)
        if kind == "consistent":
            return consistent(model)
        if kind == "is_binary":
            return is_binary(model)
        if kind == "reject":
            return reject(model, arg)
        if kind == "arch_witness":
            return choice.archimedean_consistency_witness(model)
        return archimedean_member_evidence(model, arg)
    except ValueError as error:
        return ("ValueError", str(error))


def test_kept_extensions_answer_as_a_fresh_model(monkeypatch):
    # One model object answers every query, in a shuffled order, as a fresh
    # object does, errors included, and solves each selection's natural
    # extension at most once; pointwise in the plane the answers match the
    # product-of-selections oracle.
    rng = random.Random(41)
    extended = []
    natural = choice.natural_extension

    def spy(assessment, space):
        extended.append(tuple(assessment))
        return natural(assessment, space)

    monkeypatch.setattr(choice, "natural_extension", spy)
    for _ in range(70):
        warm = _random_assessment(rng)
        d = warm.space.dim

        def option_set_of(size):
            return OptionSet(tuple(rand_vector(rng, d, 2) for _ in range(size)))

        queries = [("consistent", None), ("is_binary", None), ("arch_witness", None)]
        queries += [("member", option_set_of(rng.randint(1, 3))) for _ in range(3)]
        queries += [("member", OptionSet(warm.assessment[0].options[:1]))]
        queries += [("reject", option_set_of(rng.randint(1, 3))) for _ in range(2)]
        queries += [("arch_member", option_set_of(rng.randint(1, 2))) for _ in range(2)]
        queries += [("arch_member", option_set(zero_vector(d)))]
        rng.shuffle(queries)
        extended.clear()
        answers = {}
        for query in queries:
            answers[query] = _ask(warm, query)
        assert max(Counter(extended).values(), default=0) <= 1, warm
        for query in queries:
            extended.clear()
            assert _ask(AssessmentK(warm.assessment, warm.space), query) == answers[query], (
                warm, query
            )
            assert max(Counter(extended).values(), default=0) <= 1, warm
        witness = answers[("arch_witness", None)]
        if witness is not None:
            assert is_positive(witness, warm.space)
            assert any(
                all(witness.eval(u) > 0 for u in s) for s in selections(warm)
            ), warm
        if d != 2 or warm.space.background is not Background.POINTWISE:
            continue
        pruned = [a.without_zero() for a in warm.assessment]
        oracle_consistent = any(_oracle_consistent_2d(s) for s in product(*pruned))
        for query, answer in answers.items():
            kind, arg = query
            if kind == "member":
                assert answer == _oracle_member_2d(pruned, arg.without_zero()), (warm, arg)
            elif kind == "consistent":
                assert answer == oracle_consistent, warm
            elif kind == "is_binary":
                assert answer == all(
                    any(_oracle_member_2d(pruned, (u,)) for u in a) for a in pruned
                ), warm
            elif kind == "reject":
                assert answer == OptionSet(
                    tuple(
                        u for u in arg
                        if _oracle_member_2d(pruned, displaced(arg, u).without_zero())
                    )
                ), (warm, arg)
            elif kind == "arch_witness":
                assert (answer is not None) == oracle_consistent, warm
            elif not oracle_consistent:
                assert answer[0] == "ValueError", warm
            else:
                options = arg.without_zero()
                excluded = not options or any(
                    all(
                        separation_direction_2d(list(s) + units_2d(), nonpos=[v]) is not None
                        for v in options
                    )
                    for s in product(*pruned)
                )
                assert (answer is not None) == excluded, (warm, arg)
