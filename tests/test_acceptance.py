"""Acceptance battery: one test per headline guarantee of the engine.

Each test prints one pass/fail line under pytest -v.  Everything is exact
rational arithmetic; there are no tolerances anywhere.
"""

import random
from fractions import Fraction
from itertools import product

from conechoice import lp
from conechoice.archimedean import (
    archimedean_closure_member,
    archimedean_consistent,
    is_essentially_archimedean,
    separate,
    separation_evidence,
)
from conechoice.choice import (
    AssessmentK,
    BinaryK,
    CredalK,
    OptionSet,
    archimedean_consistent as k_archimedean_consistent,
    archimedean_member_evidence,
    choose,
    displaced,
    maximal,
    member as k_member,
    option_set,
    reject,
)
from conechoice.cone import (
    LexCone,
    OpenDualCone,
    PosiCone,
    _separation_rows,
    is_coherent,
    is_mixing,
    member,
    natural_extension,
    verify_inconsistency_combination,
)
from conechoice.functional import (
    LinearF,
    SuperlinF,
    is_positive,
    nml,
)
from conechoice.numeric import (
    Background,
    OptionSpace,
    Vector,
    ones,
    vec,
    zero_vector,
)

from conftest import expectation, mixing_instance, rand_positive_vector, rand_vector
from oracles import (
    brute_force_lp,
    e_admissible,
    grid_2d,
    hull_vertices,
    separation_direction_2d,
    units_2d,
)
from test_lp import _random_problem

PW2 = OptionSpace(dim=2, background=Background.POINTWISE, u_o=vec(1, 1))
ST2 = OptionSpace(dim=2, background=Background.STRICT, u_o=vec(1, 1))

GRID_41 = grid_2d(Fraction(1), Fraction(1, 20))

A_HEADS = [vec(1, 0), vec(1, -1)]
A_TAILS = [vec(0, 1), vec(-1, 1)]


def test_criterion_01_coin_assessment_inconsistency():
    _, joint = natural_extension(A_HEADS + A_TAILS, PW2)
    assert not joint.consistent
    assert joint.combination is not None
    assert verify_inconsistency_combination(joint.combination)
    for side in (A_HEADS, A_TAILS):
        _, report = natural_extension(side, PW2)
        assert report.consistent


def test_criterion_02_interval_cone_grid_semantics():
    pieces = (expectation("1/4"), expectation("3/4"))
    for space in (PW2, ST2):
        cone = OpenDualCone(pieces, space)
        for v in GRID_41:
            expected = min(p.eval(v) for p in pieces) > 0
            assert member(cone, v) == expected


def test_criterion_03_mixing_iff_degenerate_interval():
    pairs = [
        ("1/2", "1/2"),
        ("1/4", "3/4"),
        ("1/3", "2/3"),
        ("1/4", "1/4"),
        ("2/5", "3/5"),
        ("1/10", "9/10"),
        ("3/4", "3/4"),
        ("1/5", "4/5"),
        ("9/20", "11/20"),
        ("1/3", "1/3"),
    ]
    assert len(pairs) == 10
    for lo, hi in pairs:
        cone = OpenDualCone((expectation(lo), expectation(hi)), PW2)
        result = is_mixing(cone)
        assert result.status == (Fraction(lo) == Fraction(hi))
        if result.status is False:
            u, v = result.witness
            assert not member(cone, u)
            assert not member(cone, v)
            assert member(cone, u + v)


def test_criterion_04_archimedeanity_split_of_the_lexicographic_model():
    strict_form = OpenDualCone((LinearF(vec(1, 0)),), ST2)
    assert is_coherent(strict_form)
    assert is_essentially_archimedean(strict_form)
    assert archimedean_consistent(strict_form)

    lex_form = LexCone((LinearF(vec(1, 0)), LinearF(vec(0, 1))), PW2)
    assert is_coherent(lex_form)
    assert is_mixing(lex_form).status is True
    assert not archimedean_consistent(lex_form)
    evidence = separation_evidence(lex_form)
    assert isinstance(evidence, lp.Infeasible)
    rows, _ = _separation_rows(lex_form)
    system = lp.LpProblem(2, tuple(rows))
    assert lp.verify_infeasibility_certificate(system, evidence.certificate)


def test_criterion_05_closed_sector_is_archimedean_but_not_open():
    cone = PosiCone((vec("3/4", "-1/4"), vec("-1/4", "3/4")), PW2)
    assert not is_essentially_archimedean(cone)
    assert archimedean_consistent(cone)
    for v in GRID_41:
        inside = member(cone, v)
        closure = inside or separate(cone, v) is None
        assert closure == inside
    # Spot-check that the public closure query matches the decomposition above.
    for v in (vec("3/4", "-1/4"), vec(1, -1), vec(0, 1), vec("-1/20", "3/20")):
        assert archimedean_closure_member(cone, v) == member(cone, v)


def test_criterion_06_normalisation_suite():
    rng = random.Random(106)
    u_o = ones(2)
    for _ in range(100):
        pieces = [
            LinearF(rand_positive_vector(rng, 2)) for _ in range(rng.randint(1, 3))
        ]
        f = SuperlinF(tuple(pieces)) if len(pieces) > 1 else pieces[0]
        g = nml(f, u_o)
        assert g.eval(u_o) == 1
        assert g.eval(-u_o) == -1
        for _ in range(8):
            u = rand_vector(rng, 2)
            assert (f.eval(u) > 0) == (g.eval(u) > 0)
            mu = rand_vector(rng, 1)[0]
            assert g.eval(u + u_o.scale(mu)) == g.eval(u) + mu
        assert nml(g, u_o) == g
        if isinstance(f, LinearF):
            assert g.coeffs == f.coeffs.scale(1 / f.eval(u_o))


def test_criterion_07_superlinear_calculus():
    def conjugate(f, u):
        # The conjugate -f(-u): the max over the pieces.
        return max(p.eval(u) for p in f.pieces)

    rng = random.Random(107)
    for _ in range(200):
        f = SuperlinF(
            tuple(LinearF(rand_vector(rng, 2)) for _ in range(rng.randint(1, 3)))
        )
        u, v = rand_vector(rng, 2), rand_vector(rng, 2)
        lam = abs(rand_vector(rng, 1)[0])
        assert f.eval(u) <= conjugate(f, u)
        assert f.eval(u) + f.eval(v) <= f.eval(u + v)
        assert f.eval(u + v) <= f.eval(u) + conjugate(f, v)
        assert f.eval(u) + conjugate(f, v) <= conjugate(f, u + v)
        assert conjugate(f, u + v) <= conjugate(f, u) + conjugate(f, v)
        diff = u - v
        assert abs(f.eval(u) - f.eval(v)) <= max(
            abs(f.eval(diff)), abs(conjugate(f, diff))
        )
        assert f.eval(u.scale(lam)) == lam * f.eval(u)
        assert conjugate(f, u.scale(lam)) == lam * conjugate(f, u)
        bound = max(
            sum((abs(c) for c in p.coeffs.entries), Fraction(0)) for p in f.pieces
        )
        assert abs(f.eval(u) - f.eval(v)) <= bound * diff.sup_norm()


def test_criterion_08_lower_envelope_of_the_interval_functional():
    envelope = SuperlinF((expectation("1/4"), expectation("3/4")))
    vertices = [LinearF(p) for p in hull_vertices([q.coeffs for q in envelope.pieces])]
    assert {v.coeffs for v in vertices} == {vec("1/4", "3/4"), vec("3/4", "1/4")}
    rng = random.Random(108)
    for _ in range(100):
        u = rand_vector(rng, 2)
        assert envelope.eval(u) == min(v.eval(u) for v in vertices)
        lam = Fraction(rng.randint(0, 8), 8)
        hull_point = LinearF(
            vertices[0].coeffs.scale(lam) + vertices[1].coeffs.scale(1 - lam)
        )
        assert hull_point.eval(u) >= envelope.eval(u)


def test_criterion_09_heads_or_tails_closure_is_a_binary_conjunction():
    model = AssessmentK(
        (option_set(vec(1, 0), vec(0, 1)), option_set(vec(1, -1), vec(-1, 1))), PW2
    )
    heads_cone, _ = natural_extension(A_HEADS, PW2)
    tails_cone, _ = natural_extension(A_TAILS, PW2)
    binary_heads = BinaryK(heads_cone)
    binary_tails = BinaryK(tails_cone)
    rng = random.Random(109)
    for _ in range(50):
        b = OptionSet(
            tuple(
                vec(Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2))
                for _ in range(rng.randint(1, 3))
            )
        )
        conjunction = k_member(binary_heads, b) and k_member(binary_tails, b)
        assert k_member(model, b) == conjunction


def test_criterion_10_rejection_bridge_and_e_admissibility():
    rng = random.Random(110)
    for _ in range(200):
        credal = CredalK(
            tuple(
                LinearF(rand_positive_vector(rng, 2))
                for _ in range(rng.randint(1, 3))
            ),
            PW2,
        )
        menu = OptionSet(tuple(rand_vector(rng, 2) for _ in range(rng.randint(1, 4))))
        rejected = reject(credal, menu)
        for u in menu:
            assert (u in rejected) == k_member(credal, displaced(menu, u))
        assert choose(credal, menu) == e_admissible(credal.functionals, menu)


def test_criterion_11_e_admissibility_vs_maximality_gap():
    credal = CredalK((expectation("1/3"), expectation("2/3")), PW2)
    menu = option_set(vec(1, 0), vec(0, 1), vec("1/2", "1/2"))
    assert choose(credal, menu).options == (vec(0, 1), vec(1, 0))
    cone = OpenDualCone(credal.functionals, PW2)
    assert maximal(cone, menu).options == (vec(0, 1), vec("1/2", "1/2"), vec(1, 0))


def _background_positive_samples(space):
    return [v for v in grid_2d(Fraction(1), Fraction(1, 4))
            if space.background_strictly_positive(v)]


def _binary_coherence_probe(cone) -> bool:
    """Behavioral K0-K4 check of K_D = {A : A meets D} on sample sets."""
    model = BinaryK(cone)
    # K1: {0} is never a member (option sets are pruned of 0, so this holds by
    # construction; an incoherent 0-containing cone instead surfaces through
    # K2 below, where member singletons combine to the pruned-empty set {0}).
    if k_member(model, option_set(zero_vector(2))):
        return False
    if not all(
        k_member(model, option_set(v)) for v in _background_positive_samples(cone.space)
    ):
        return False  # K4
    samples = grid_2d(Fraction(1), Fraction(1, 2))
    for u in samples[::7]:
        b = option_set(u)
        if k_member(model, b) != k_member(model, option_set(u, zero_vector(2))):
            return False  # K0
        if k_member(model, b) and not k_member(model, option_set(u, -u)):
            return False  # K3
    members = [u for u in samples if k_member(model, option_set(u))]
    probe = members[:6]
    # Make sure an antipodal member pair (if any exists) lands in the probe
    # set: combining u with -u is where 0-containing cones break K2.
    for u in members:
        if -u in members:
            probe.extend(w for w in (u, -u) if w not in probe)
            break
    for u, v in product(probe, repeat=2):
        for combined in (option_set(u + v), option_set(u + v, u.scale(2) + v)):
            if not k_member(model, combined):
                return False  # K2 (singleton members, constant coefficients)
    return True


def test_criterion_12_binary_embedding_flag_agreement():
    fixtures = [
        OpenDualCone((expectation("1/4"), expectation("3/4")), PW2),
        OpenDualCone((expectation("1/2"),), PW2),
        LexCone((LinearF(vec(1, 0)), LinearF(vec(0, 1))), PW2),
        OpenDualCone((LinearF(vec(1, 0)),), PW2),  # incoherent: kills e_2
        OpenDualCone((LinearF(vec(1, 0)),), ST2),
        PosiCone((vec("3/4", "-1/4"), vec("-1/4", "3/4")), PW2),
        PosiCone((), PW2),
        PosiCone((vec(1, -1), vec(-1, 1)), PW2),  # incoherent: generators cancel
    ]
    grid = grid_2d(Fraction(1), Fraction(1, 4))
    for cone in fixtures:
        model = BinaryK(cone)
        # The embedded model answers nonzero singletons exactly like the cone;
        # {0} is never a member regardless of the cone.
        assert not k_member(model, option_set(zero_vector(2)))
        for v in grid:
            if not v.is_zero():
                assert k_member(model, option_set(v)) == member(cone, v)
        # K_D passes the coherence axiom battery exactly when D is coherent.
        assert _binary_coherence_probe(cone) == is_coherent(cone)
        if not is_coherent(cone):
            continue
        # K_D violates the mixing axiom exactly when D is not mixing.
        mixing = is_mixing(cone)
        assert mixing.status is not None
        if mixing.status:
            for b_options in (
                (vec(1, 1), vec(2, 1)),
                (vec(1, 0), vec(0, 1)),
            ):
                b = option_set(*b_options)
                b2 = OptionSet(b.options + (b_options[0] + b_options[1],))
                assert mixing_instance(b, b2)
                assert not (k_member(model, b2) and not k_member(model, b))
        else:
            u, v = mixing.witness
            b = option_set(u, v)
            b2 = OptionSet(b.options + (u + v,))
            assert mixing_instance(b, b2)
            assert k_member(model, b2) and not k_member(model, b)
        # K_D is Archimedean exactly when D is: every non-member singleton of
        # K_D carries a separating functional that stays positive on the
        # singleton members of K_D.  All coherent fixtures here are
        # Archimedean-consistent with self-closed cones, so every grid
        # non-member must be separable.
        if archimedean_consistent(cone):
            sample_members = [v for v in grid if member(cone, v)][:10]
            for v in grid:
                if member(cone, v):
                    continue
                witness = separate(cone, v)
                assert witness is not None
                assert witness.functional.eval(v) <= 0
                assert all(
                    witness.functional.eval(m) > 0 for m in sample_members
                )


def test_criterion_13_archimedean_k_closure_soundness():
    rng = random.Random(113)
    units = units_2d()

    def verify_negative(model, b, envelope):
        assert is_positive(envelope, model.space)
        for a in model.assessment:  # the model lies inside K_envelope
            assert any(envelope.eval(u) > 0 for u in a.without_zero())
        for v in b.without_zero():
            assert envelope.eval(v) <= 0

    def oracle_excludes(pruned, options):
        if not options:
            return True
        return any(
            all(
                separation_direction_2d(list(s) + units, nonpos=[v]) is not None
                for v in options
            )
            for s in product(*pruned)
        )

    # Hand-picked fixtures first.
    single = AssessmentK((option_set(vec(1, -1)),), PW2)
    assert archimedean_member_evidence(single, option_set(vec(1, -1))) is None
    evidence = archimedean_member_evidence(single, option_set(vec(-2, 2)))
    assert evidence is not None
    verify_negative(single, option_set(vec(-2, 2)), evidence)

    checked = 0
    for _ in range(40):
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
        model = AssessmentK(sets, PW2)
        pruned = [a.without_zero() for a in sets]
        if not k_archimedean_consistent(model):
            continue
        for _ in range(3):
            b = OptionSet(
                tuple(
                    vec(rng.randint(-2, 2), rng.randint(-2, 2))
                    for _ in range(rng.randint(1, 2))
                )
            )
            envelope = archimedean_member_evidence(model, b)
            if envelope is None:
                assert not oracle_excludes(pruned, b.without_zero())
            else:
                verify_negative(model, b, envelope)
                assert oracle_excludes(pruned, b.without_zero())
            checked += 1
    assert checked >= 60


def test_criterion_14_lp_oracle_trust():
    rng = random.Random(114)
    for _ in range(500):
        problem = _random_problem(rng)
        result = lp.solve(problem)
        status, value = brute_force_lp(problem)
        if isinstance(result, lp.Optimal):
            assert status == "optimal" and result.value == value
            assert lp.verify_witness(problem, result.witness)
        elif isinstance(result, lp.Feasible):
            assert status == "feasible"
            assert lp.verify_witness(problem, result.witness)
        elif isinstance(result, lp.Infeasible):
            assert status == "infeasible"
            assert lp.verify_infeasibility_certificate(problem, result.certificate)
        else:
            assert status == "unbounded"
            assert lp.verify_ray(problem, result.ray)
