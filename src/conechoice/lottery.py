"""Horse-lottery ingestion into the difference option space.

A horse lottery assigns each state a probability mass function over rewards.
Preference statements "h is preferred to g" embed as options alpha * (h - g)
in the linear span of lottery differences, whose tables have zero row sums.

The engine works in this difference space directly; a reference reward enters
only as a coordinate convention in :func:`to_vector`.  For more than two
rewards the induced background order on coordinates is the coordinate-wise
order under that convention; other generalizations exist, and this one is the
engine's documented choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .numeric import Vector, as_rational

Table = tuple[tuple[Fraction, ...], ...]


def _check_support(states: Sequence[str], rewards: Sequence[str], table: Table) -> None:
    if len(set(states)) != len(states) or len(set(rewards)) != len(rewards):
        raise ValueError("state and reward labels must be unique")
    if len(table) != len(states) or any(len(row) != len(rewards) for row in table):
        raise ValueError("table shape does not match the labels")


def _row_sums(table: Table) -> tuple[list[int], int]:
    """Each row's sum as an integer numerator over one common denominator of
    the whole table, so that no Fraction is summed."""
    den = lcm(*(v.denominator for row in table for v in row))
    return [sum(v.numerator * (den // v.denominator) for v in row) for row in table], den


@dataclass(frozen=True)
class HorseLottery:
    states: tuple[str, ...]
    rewards: tuple[str, ...]
    table: Table  # table[x][r] = mass of reward r in state x

    def __post_init__(self) -> None:
        _check_support(self.states, self.rewards, self.table)
        sums, den = _row_sums(self.table)
        for row, row_sum in zip(self.table, sums):
            if any(p.numerator < 0 for p in row):
                raise ValueError("lottery masses must be nonnegative")
            if row_sum != den:
                raise ValueError("each state's masses must sum to one")

    def mass(self, state: str, reward: str) -> Fraction:
        return self.table[self.states.index(state)][self.rewards.index(reward)]


@dataclass(frozen=True)
class DiffOption:
    states: tuple[str, ...]
    rewards: tuple[str, ...]
    table: Table

    def __post_init__(self) -> None:
        _check_support(self.states, self.rewards, self.table)
        if any(_row_sums(self.table)[0]):
            raise ValueError("difference tables must have zero row sums")

    def value(self, state: str, reward: str) -> Fraction:
        return self.table[self.states.index(state)][self.rewards.index(reward)]

    def scale(self, factor: Fraction) -> "DiffOption":
        factor = as_rational(factor)
        return DiffOption(
            self.states,
            self.rewards,
            tuple(tuple(factor * v for v in row) for row in self.table),
        )

    def __add__(self, other: "DiffOption") -> "DiffOption":
        _check_same_support(self, other)
        return DiffOption(
            self.states,
            self.rewards,
            tuple(
                tuple(a + b for a, b in zip(row_a, row_b))
                for row_a, row_b in zip(self.table, other.table)
            ),
        )

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.table for v in row)


def _check_same_support(a, b) -> None:
    if a.states != b.states or a.rewards != b.rewards:
        raise ValueError("mismatched state/reward supports")


def embed_pref(h: HorseLottery, g: HorseLottery, alpha: Fraction) -> DiffOption:
    """The option alpha * (h - g) expressing a strict preference of h over g."""
    alpha = as_rational(alpha)
    if alpha <= 0:
        raise ValueError("the embedding scale must be positive")
    _check_same_support(h, g)
    return DiffOption(
        h.states,
        h.rewards,
        tuple(
            tuple(alpha * (a - b) for a, b in zip(row_h, row_g))
            for row_h, row_g in zip(h.table, g.table)
        ),
    )


def mix(h: HorseLottery, z: HorseLottery, alpha: Fraction) -> HorseLottery:
    """The state-wise mixture alpha * h + (1 - alpha) * z."""
    alpha = as_rational(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError("mixture coefficient must lie in [0, 1]")
    _check_same_support(h, z)
    return HorseLottery(
        h.states,
        h.rewards,
        tuple(
            tuple(alpha * a + (1 - alpha) * b for a, b in zip(row_h, row_z))
            for row_h, row_z in zip(h.table, z.table)
        ),
    )


def to_vector(d: DiffOption, reference_reward: str) -> Vector:
    """Coordinates d(x, r) for every state x and reward r except the reference.

    States iterate in their given order, rewards in theirs with the reference
    dropped; the zero-row-sum invariant makes this a bijection onto the
    difference space, dimension |states| * (|rewards| - 1).
    """
    if reference_reward not in d.rewards:
        raise ValueError(f"unknown reward label {reference_reward!r}")
    entries = []
    for row in d.table:
        for reward, value in zip(d.rewards, row):
            if reward != reference_reward:
                entries.append(value)
    return Vector(tuple(entries))


def from_vector(
    v: Vector,
    states: Sequence[str],
    rewards: Sequence[str],
    reference_reward: str,
) -> DiffOption:
    if reference_reward not in rewards:
        raise ValueError(f"unknown reward label {reference_reward!r}")
    per_state = len(rewards) - 1
    if v.dim != len(states) * per_state:
        raise ValueError("vector dimension does not match the support")
    table = []
    idx = 0
    for _ in states:
        row = []
        row_sum = Fraction(0)
        for reward in rewards:
            if reward == reference_reward:
                row.append(None)  # placeholder, fixed below
            else:
                row.append(v[idx])
                row_sum += v[idx]
                idx += 1
        row[list(rewards).index(reference_reward)] = -row_sum
        table.append(tuple(row))
    return DiffOption(tuple(states), tuple(rewards), tuple(table))


def mixture_independence_check(
    h: HorseLottery, g: HorseLottery, z: HorseLottery, alpha: Fraction
) -> bool:
    """Embedding the mixed preference equals scaling the plain one by alpha.

    This collinearity is what makes the preference-to-option correspondence
    independent of the mixing level.
    """
    alpha = as_rational(alpha)
    if not 0 < alpha <= 1:
        raise ValueError("mixture coefficient must lie in (0, 1]")
    mixed = embed_pref(mix(h, z, alpha), mix(g, z, alpha), Fraction(1))
    plain = embed_pref(h, g, Fraction(1)).scale(alpha)
    return mixed == plain
