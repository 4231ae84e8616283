import random
from fractions import Fraction

import pytest

from conechoice.lottery import (
    DiffOption,
    HorseLottery,
    embed_pref,
    from_vector,
    mix,
    mixture_independence_check,
    to_vector,
)
from conechoice.numeric import vec


COIN = ("H", "T")
BETS = ("top", "bot")


def point_up_on_heads() -> HorseLottery:
    return HorseLottery(COIN, BETS, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))


def uniform() -> HorseLottery:
    half = Fraction(1, 2)
    return HorseLottery(COIN, BETS, ((half, half), (half, half)))


def rand_lottery(rng: random.Random, states=COIN, rewards=BETS) -> HorseLottery:
    table = []
    for _ in states:
        cuts = sorted(Fraction(rng.randint(0, 12), 12) for _ in range(len(rewards) - 1))
        masses = []
        prev = Fraction(0)
        for c in cuts:
            masses.append(c - prev)
            prev = c
        masses.append(1 - prev)
        table.append(tuple(masses))
    return HorseLottery(tuple(states), tuple(rewards), tuple(table))


def test_lottery_validation():
    with pytest.raises(ValueError):
        HorseLottery(COIN, BETS, ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))
    with pytest.raises(ValueError):
        HorseLottery(COIN, BETS, ((Fraction(2), Fraction(-1)), (Fraction(0), Fraction(1))))
    with pytest.raises(ValueError):
        HorseLottery(("H", "H"), BETS, ((Fraction(1), Fraction(0)),) * 2)
    # Rational rows over mixed denominators: one sums to one, one to 5/6, and
    # one sums to one with a negative mass.
    rewards = ("a", "b", "c")
    good = (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))
    assert HorseLottery(COIN, rewards, (good, good)).mass("T", "c") == Fraction(1, 2)
    for row, error in (((Fraction(1, 3), Fraction(1, 6), Fraction(1, 3)), "sum to one"),
                       ((Fraction(-1, 6), Fraction(2, 3), Fraction(1, 2)), "nonnegative")):
        with pytest.raises(ValueError, match=error):
            HorseLottery(COIN, rewards, (good, row))


def test_diff_option_rows_sum_to_zero():
    with pytest.raises(ValueError):
        DiffOption(COIN, BETS, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))))
    # The only constant difference table is the zero one.
    with pytest.raises(ValueError):
        DiffOption(COIN, BETS, ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
    zero = DiffOption(COIN, BETS, ((Fraction(0),) * 2,) * 2)
    assert zero.is_zero()
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    DiffOption(COIN, BETS, ((third, -third), (-sixth, sixth)))
    with pytest.raises(ValueError):
        DiffOption(COIN, BETS, ((third, -third), (sixth, -third)))


def test_coin_embedding():
    diff = embed_pref(point_up_on_heads(), uniform(), Fraction(1))
    assert diff.value("H", "top") == Fraction(1, 2)
    assert diff.value("T", "top") == Fraction(-1, 2)
    assert to_vector(diff, "bot") == vec("1/2", "-1/2")


def test_embedding_edge_cases():
    h = point_up_on_heads()
    assert embed_pref(h, h, Fraction(1)).is_zero()
    doubled = embed_pref(h, uniform(), Fraction(2))
    single = embed_pref(h, uniform(), Fraction(1))
    assert doubled == single.scale(Fraction(2))
    with pytest.raises(ValueError):
        embed_pref(h, uniform(), Fraction(0))
    with pytest.raises(ValueError):
        embed_pref(h, HorseLottery(("A",), BETS, ((Fraction(1), Fraction(0)),)), Fraction(1))


def test_vector_round_trip():
    rng = random.Random(19)
    rewards = ("win", "draw", "lose")
    states = ("x1", "x2")
    # The reference reward first, in the middle and last.
    for r, reference in enumerate(rewards):
        for _ in range(30):
            h, g = rand_lottery(rng, states, rewards), rand_lottery(rng, states, rewards)
            diff = embed_pref(h, g, Fraction(3, 2))
            v = to_vector(diff, reference)
            assert list(v.entries) == [row[c] for row in diff.table for c in range(3) if c != r]
            assert from_vector(v, states, rewards, reference) == diff
    zero = embed_pref(point_up_on_heads(), point_up_on_heads(), Fraction(1))
    assert to_vector(zero, "bot").is_zero()


def test_to_vector_rejects_unknown_reference():
    diff = embed_pref(point_up_on_heads(), uniform(), Fraction(1))
    with pytest.raises(ValueError):
        to_vector(diff, "nope")
    with pytest.raises(ValueError, match="unknown reward"):
        from_vector(vec(1, -1), COIN, BETS, "nope")
    with pytest.raises(ValueError, match="dimension"):
        from_vector(vec(1, -1, 1), COIN, BETS, "bot")


def test_mixture_independence():
    rng = random.Random(23)
    for _ in range(40):
        h, g, z = (rand_lottery(rng) for _ in range(3))
        alpha = Fraction(rng.randint(1, 8), 8)
        assert mixture_independence_check(h, g, z, alpha)
    # The coin triple at alpha = 1/3 scales the embedding by exactly 1/3.
    h, g, z = point_up_on_heads(), uniform(), uniform()
    third = Fraction(1, 3)
    mixed = embed_pref(mix(h, z, third), mix(g, z, third), Fraction(1))
    assert mixed == embed_pref(h, g, Fraction(1)).scale(third)


def test_embedding_linearity():
    rng = random.Random(29)
    for _ in range(20):
        h, g, k = (rand_lottery(rng) for _ in range(3))
        alpha = Fraction(rng.randint(1, 4))
        assert embed_pref(h, g, alpha) + embed_pref(g, k, alpha) == embed_pref(h, k, alpha)


def test_mix_validation():
    with pytest.raises(ValueError):
        mix(point_up_on_heads(), uniform(), Fraction(3, 2))
    assert mix(point_up_on_heads(), uniform(), Fraction(1)) == point_up_on_heads()
