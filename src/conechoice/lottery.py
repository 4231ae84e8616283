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

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _check_support(states: Sequence[str], rewards: Sequence[str], table: Table) -> None:
    if len(set(states)) != len(states) or len(set(rewards)) != len(rewards):
        raise ValueError("state and reward labels must be unique")
    if len(table) != len(states) or any(len(row) != len(rewards) for row in table):
        raise ValueError("table shape does not match the labels")


def _combine(a: Fraction, ta: Table, b: Fraction, tb: Table) -> Table:
    """The table a * ta + b * tb, entry by entry."""
    return tuple(
        tuple(a * x + b * y for x, y in zip(row_a, row_b)) for row_a, row_b in zip(ta, tb)
    )


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
        table = _combine(as_rational(factor), self.table, _ZERO, self.table)
        return DiffOption(self.states, self.rewards, table)

    def __add__(self, other: "DiffOption") -> "DiffOption":
        _check_same_support(self, other)
        table = _combine(_ONE, self.table, _ONE, other.table)
        return DiffOption(self.states, self.rewards, table)

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
    return DiffOption(h.states, h.rewards, _combine(alpha, h.table, -alpha, g.table))


def _reference_column(rewards: Sequence[str], reference_reward: str) -> int:
    if reference_reward not in rewards:
        raise ValueError(f"unknown reward label {reference_reward!r}")
    return list(rewards).index(reference_reward)


def to_vector(d: DiffOption, reference_reward: str) -> Vector:
    """Coordinates d(x, r) for every state x and reward r except the reference.

    States iterate in their given order, rewards in theirs with the reference
    dropped; the zero-row-sum invariant makes this a bijection onto the
    difference space, dimension |states| * (|rewards| - 1).
    """
    r = _reference_column(d.rewards, reference_reward)
    return Vector(tuple(v for row in d.table for v in row[:r] + row[r + 1 :]))


def from_vector(
    v: Vector,
    states: Sequence[str],
    rewards: Sequence[str],
    reference_reward: str,
) -> DiffOption:
    """The difference option with coordinates v (:func:`to_vector`): each
    state's reference entry is minus the sum of its other entries."""
    r = _reference_column(rewards, reference_reward)
    per_state = len(rewards) - 1
    if v.dim != len(states) * per_state:
        raise ValueError("vector dimension does not match the support")
    table = []
    for start in range(0, v.dim, per_state):
        rest = v.entries[start : start + per_state]
        table.append(rest[:r] + (-sum(rest, _ZERO),) + rest[r:])
    return DiffOption(tuple(states), tuple(rewards), tuple(table))
