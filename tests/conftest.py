"""Shared fixtures: the coin-flip option space and its standard models."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conechoice.choice import OptionSet
from conechoice.cone import LexCone, OpenDualCone, PosiCone, posi_member
from conechoice.functional import LinearF
from conechoice.numeric import Background, OptionSpace, Vector, vec


def expectation(p) -> LinearF:
    """The coin expectation functional u -> p*u_heads + (1-p)*u_tails."""
    p = Fraction(p)
    return LinearF(vec(p, 1 - p))


def mixing_instance(b: OptionSet, b2: OptionSet) -> bool:
    """Is (B, B2) an instance of the mixing axiom, B in B2 in posi(B)?  The
    axiom asks that B2 in the model puts B in it too."""
    base = list(b.options)
    return all(u in b2 for u in b) and all(u in b or posi_member(base, u) for u in b2)


def rand_fraction(rng: random.Random, span: int = 4, max_den: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * den, span * den), den)


def rand_vector(rng: random.Random, dim: int, span: int = 4) -> Vector:
    return Vector(tuple(rand_fraction(rng, span) for _ in range(dim)))


def rand_positive_fraction(rng: random.Random, span: int = 4, max_den: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(1, span * den), den)


def rand_positive_vector(rng: random.Random, dim: int, span: int = 4) -> Vector:
    return Vector(tuple(rand_positive_fraction(rng, span) for _ in range(dim)))


@pytest.fixture
def pw2() -> OptionSpace:
    return OptionSpace(dim=2, background=Background.POINTWISE, u_o=vec(1, 1))


@pytest.fixture
def st2() -> OptionSpace:
    return OptionSpace(dim=2, background=Background.STRICT, u_o=vec(1, 1))


@pytest.fixture
def d_interval(pw2) -> OpenDualCone:
    return OpenDualCone((expectation("1/4"), expectation("3/4")), pw2)


@pytest.fixture
def d_half(pw2) -> OpenDualCone:
    return OpenDualCone((expectation("1/2"),), pw2)


@pytest.fixture
def d_lex(pw2) -> LexCone:
    return LexCone((LinearF(vec(1, 0)), LinearF(vec(0, 1))), pw2)


@pytest.fixture
def d_sector(pw2) -> PosiCone:
    return PosiCone((vec("3/4", "-1/4"), vec("-1/4", "3/4")), pw2)


@pytest.fixture
def vacuous(pw2) -> PosiCone:
    return PosiCone((), pw2)
