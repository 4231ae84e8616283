"""Independent brute-force oracles used to cross-check the engine.

Nothing in this module calls the engine's cone machinery, and all but one
oracle work by exhaustive enumeration (vertices, candidate directions,
generator pairs) over exact rationals, so disagreement with the engine always
means a real bug on one side.  The exception is ``hull_lambda_o_lp``: Lambda_o
of a posi-generated cone posed as the LP over its closed hull, which the
engine solved before it read Lambda_o off the dual's extreme rays.  It calls
the engine's simplex, a different algorithm from the double description it
checks.

``hull_vertices`` decides each point by ``brute_force_lp``, and ``mix``
builds a state-wise mixture of horse lotteries entry by entry.

The choice oracles decide by definition: ``e_admissible`` compares expected
values under each credal functional, and ``maximal_by_definition`` asks, for
every ordered pair of menu options, whether their difference lies in the cone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence

from conechoice.choice import OptionSet
from conechoice.functional import LinearF
from conechoice.lottery import HorseLottery
from conechoice.lp import EQ, GE, LE, Constraint, LpProblem, Objective, Optimal, solve
from conechoice.numeric import OptionSpace, Vector, unit_vector


def solve_square(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve a square linear system exactly; None when singular."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def rank_by_fractions(rows: Sequence[Vector]) -> int:
    """The rank of the rows, by Gauss-Jordan elimination over Fractions."""
    matrix = [list(row.entries) for row in rows]
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot_row = next((r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None)
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot = matrix[rank]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col] / pivot[col]
                matrix[r] = [x - factor * y for x, y in zip(matrix[r], pivot)]
        rank += 1
    return rank


def _satisfies(constraints, x: Sequence[Fraction]) -> bool:
    for coeffs, relation, rhs in constraints:
        value = sum((c * v for c, v in zip(coeffs, x)), Fraction(0))
        if relation == LE and value > rhs:
            return False
        if relation == GE and value < rhs:
            return False
        if relation == EQ and value != rhs:
            return False
    return True


def _vertices_in_box(constraints, n: int, box: Fraction):
    """Feasible vertices of the constraint set intersected with |x_i| <= box."""
    rows = list(constraints)
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        rows.append((tuple(e), LE, box))
        rows.append((tuple(e), GE, -box))
    vertices = []
    for subset in combinations(range(len(rows)), n):
        solution = solve_square(
            [rows[i][0] for i in subset], [rows[i][2] for i in subset]
        )
        if solution is not None and _satisfies(rows, solution):
            vertices.append(solution)
    return vertices


def brute_force_lp(
    problem: LpProblem,
    boxes: tuple[Fraction, Fraction] = (Fraction(2**16), Fraction(2**24)),
) -> tuple[str, Optional[Fraction]]:
    """Status and optimal value by vertex enumeration inside two huge boxes.

    With the feasible region clipped to a box, feasibility means some vertex is
    feasible and the optimum is attained at a vertex.  A strictly better value
    in the larger box exposes unboundedness.  Sound for problems whose data is
    tiny compared to the boxes, which the random test instances guarantee.
    """
    constraints = [
        (tuple(c.coeffs.entries), c.relation, c.rhs) for c in problem.constraints
    ]
    n, objective = problem.n_vars, problem.objective

    def best_in_box(box: Fraction):
        vertices = _vertices_in_box(constraints, n, box)
        if not vertices:
            return None
        if objective is None:
            return "feasible"
        sign = 1 if objective.direction == "max" else -1
        values = [
            sign * sum((c * v for c, v in zip(objective.coeffs, x)), Fraction(0))
            for x in vertices
        ]
        return sign * max(values)

    small = best_in_box(boxes[0])
    large = best_in_box(boxes[1])
    if small is None and large is None:
        return "infeasible", None
    if objective is None:
        return "feasible", None
    assert small is not None and large is not None
    if small == large:
        return "optimal", small
    return "unbounded", None


def hull_vertices(points: Sequence[Vector]) -> list[Vector]:
    """The vertices of the convex hull of the points, distinct, in first-seen
    order.  A point p is a vertex iff it is not a convex combination of the
    others, that is iff ``(p, 1)`` is not a nonnegative combination of their
    ``(q, 1)``: an infeasible system for ``brute_force_lp``."""
    distinct = list(dict.fromkeys(points))
    if len(distinct) == 1:
        return distinct
    vertices = []
    for p in distinct:
        lifted = [(*q.entries, Fraction(1)) for q in distinct if q != p]
        n = len(lifted)
        rows = [
            Constraint(Vector(tuple(column[i] for column in lifted)), EQ, target)
            for i, target in enumerate((*p.entries, Fraction(1)))
        ]
        rows += [Constraint(unit_vector(n, k), GE, Fraction(0)) for k in range(n)]
        if brute_force_lp(LpProblem(n, tuple(rows)))[0] == "infeasible":
            vertices.append(p)
    return vertices


def _rot90(v: Vector) -> Vector:
    return Vector((-v[1], v[0]))


def separation_direction_2d(
    strict: Sequence[Vector],
    nonpos: Sequence[Vector] = (),
    nonneg: Sequence[Vector] = (),
) -> Optional[Vector]:
    """Find L with L.s > 0, L.t <= 0, L.w >= 0 in the plane, by candidate sweep.

    The feasible directions form an angular interval cut out by half-planes
    through the origin; if nonempty it contains one of: a constraint vector or
    its negation, a perpendicular of one, or a sum of two such candidates.
    Exhaustively testing those finitely many directions decides feasibility.
    """
    base: list[Vector] = []
    for w in (*strict, *nonpos, *nonneg):
        if not w.is_zero():
            base.extend([w, -w, _rot90(w), -_rot90(w)])
    base.extend([Vector((Fraction(1), Fraction(0))), Vector((Fraction(0), Fraction(1)))])
    # Equal candidates need testing once; the first occurrence keeps its place.
    base = list(dict.fromkeys(base))
    candidates = dict.fromkeys([*base, *(a + b for a, b in combinations(base, 2))])

    def ok(direction: Vector) -> bool:
        if direction.is_zero():
            return False
        return (
            all(direction.dot(s) > 0 for s in strict)
            and all(direction.dot(t) <= 0 for t in nonpos)
            and all(direction.dot(w) >= 0 for w in nonneg)
        )

    return next((c for c in candidates if ok(c)), None)


def _cross(a: Vector, b: Vector) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def cone2_member(generators: Sequence[Vector], v: Vector) -> bool:
    """Is v a positive combination of 2-D generators?  Pairwise Caratheodory.

    Every member of a planar cone is a nonnegative combination of at most two
    generators; antiparallel generator pairs span their whole line.
    """
    for s in generators:
        if s.is_zero():
            if v.is_zero():
                return True
            continue
        if _cross(s, v) == 0 and s.dot(v) > 0:
            return True
    for s, t in combinations([g for g in generators if not g.is_zero()], 2):
        det = _cross(s, t)
        if det == 0:
            if s.dot(t) < 0 and _cross(s, v) == 0:
                return True  # opposite rays cover the full line through s
            continue
        a = _cross(v, t) / det
        b = _cross(s, v) / det
        if a >= 0 and b >= 0 and (a > 0 or b > 0) and v == s.scale(a) + t.scale(b):
            return True
    return False


def grid_2d(radius: Fraction, step: Fraction):
    """Rational grid points of [-radius, radius]^2 with the given step."""
    count = int(2 * radius / step)
    points = []
    for i in range(count + 1):
        for j in range(count + 1):
            points.append(Vector((-radius + i * step, -radius + j * step)))
    return points


def units_2d() -> list[Vector]:
    return [unit_vector(2, 0), unit_vector(2, 1)]


def hull_lambda_o_lp(
    generators: Sequence[Vector], space: OptionSpace, u: Vector
) -> Optional[Fraction]:
    """max alpha with u = sum_k lambda_k h_k + alpha u_o and lambda >= 0, over
    the hull's columns h: the generators, then the units.  None when the LP
    is unbounded, i.e. when the closed hull is all of V."""
    d = space.dim
    hull = [*generators, *(unit_vector(d, i) for i in range(d))]
    n = len(hull) + 1
    rows = [
        Constraint(Vector(tuple(h[i] for h in hull) + (space.u_o[i],)), EQ, u[i])
        for i in range(d)
    ]
    rows += [Constraint(unit_vector(n, k), GE, Fraction(0)) for k in range(n - 1)]
    result = solve(LpProblem(n, tuple(rows), Objective("max", unit_vector(n, n - 1))))
    return result.value if isinstance(result, Optimal) else None


def e_admissible(credal: Sequence[LinearF], a: OptionSet) -> OptionSet:
    """Options maximizing expected value under at least one credal functional."""
    if not credal:
        raise ValueError("need a nonempty credal set")
    chosen = []
    for u in a:
        for f in credal:
            value = f.eval(u)
            if all(value >= f.eval(v) for v in a):
                chosen.append(u)
                break
    return OptionSet(tuple(chosen))


def maximal_by_definition(in_cone: Callable[[Vector], bool], a: OptionSet) -> tuple[Vector, ...]:
    """The options u of A, in A's order, for which no other v in A has
    ``in_cone(v - u)``."""
    return tuple(u for u in a if not any(v != u and in_cone(v - u) for v in a))


def open_dual_member(pieces: Sequence[Vector], v: Vector) -> bool:
    """Is v in the open cone {v : p.v > 0 for every piece p}?"""
    return all(p.dot(v) > 0 for p in pieces)


def mix(h: HorseLottery, z: HorseLottery, alpha: Fraction) -> HorseLottery:
    """The state-wise mixture alpha * h + (1 - alpha) * z; ``HorseLottery``
    refuses it when a mass comes out negative."""
    table = tuple(
        tuple(alpha * x + (1 - alpha) * y for x, y in zip(row_h, row_z))
        for row_h, row_z in zip(h.table, z.table)
    )
    return HorseLottery(h.states, h.rewards, table)
