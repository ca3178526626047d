"""Reference routes kept only as test oracles: each computes something the
package computes (or once computed) another way, on `Point`s and scalars."""

from __future__ import annotations

from typing import Optional, Tuple

from outerbilliards.dynamics import IndexedPoint, pinwheel_step, section
from outerbilliards.errors import BudgetExceededError
from outerbilliards.geometry import Line, Point
from outerbilliards.quasirational import necklace_shift


def line_intersection(first: Line, second: Line) -> Optional[Point]:
    """The meeting point of two lines, None when they are parallel."""
    det = first.a * second.b - second.a * first.b
    if det == 0:
        return None
    x = (first.c * second.b - second.c * first.b) / det
    y = (first.a * second.c - second.a * first.c) / det
    return Point(x, y)


def overlap_area_determinant(system, j: int):
    """Overlap area of strips j and j+1 as W_j * W_{j+1} / |det of the two
    strip normals|, independent of the region kernel."""
    a, b = system.pair(j), system.pair(j + 1)
    det = a.line.a * b.line.b - b.line.a * a.line.b
    return abs(a.width * b.width / det)


def transfer_ratio(system, j: int):
    """Signed ratio lambda with shift_j - V_{j+1} = lambda * shift_{j+1}.

    |lambda| always equals A_j / A_{j+1}; the sign says on which side of the
    polygon the carried ring lands.  The cycle product of the signs is -1.
    """
    lhs = necklace_shift(system, j) - system.pair(j + 1).V
    rhs = necklace_shift(system, (j + 1) % system.n)
    lam = lhs.x / rhs.x if rhs.x != 0 else lhs.y / rhs.y
    assert lhs.x == lam * rhs.x and lhs.y == lam * rhs.y
    return lam


def point_route_theorem_step(model, p: Point) -> Tuple[Point, int, int]:
    """`dynamics.pinwheel_theorem_step` on `Point`s: the indexed-plane map
    from (p, a-1), one `pinwheel_step` at a time, until it reaches the
    section of psi(p)."""
    n = model.n
    tile = model.partition.classify(p)
    q = p + tile.translation
    a = model.path_of_tile(tile).start
    state = IndexedPoint(p, (a - 1) % n)
    target = section(model, q)
    budget = 3 * n
    for used in range(1, budget + 1):
        state = pinwheel_step(model.system, state)
        if state.point == target.point and state.index == target.index:
            return q, used, a
    raise BudgetExceededError(budget, f"pinwheel budget {budget} exceeded at {p}")
