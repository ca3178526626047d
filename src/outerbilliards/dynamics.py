"""Pinwheel dynamics: the indexed-plane map, section, returns and orbits.

The pinwheel map acts on R^2 x {0..n-1}: try the next strip map; if it fixes
the point, advance the index, otherwise translate and hold the index.  One
loop, `pinwheel_walk`, applies that rule; the other pinwheel routines read
its states.  The section drops a plane point into the indexed plane at index
a-1, where a is the start spoke of the tile's admissible path.  All step
budgets are explicit and every undefined-point condition is a distinct
exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, List, NamedTuple, Optional, Tuple

from .billiards import psi_walk
from .errors import BudgetExceededError, MapUndefinedError
from .geometry import Point, point_of
from .model import BilliardModel
from .scalars import floor_div, primitive
from .strips import PinwheelSystem, strip_jump, strip_map


@dataclass(frozen=True)
class IndexedPoint:
    """A point of the indexed plane; the index is always reduced mod n."""

    point: Point
    index: int


def pinwheel_walk(system: PinwheelSystem, here, index: int) -> Iterator[Tuple]:
    """The pinwheel orbit of (here, index), `here` a lattice triple as for
    `strip_map`: each next state (here, index) over the same L, without end.
    A step tries strip map j = index + 1 once; where it fixes the point
    (returns it as is) the index advances to j, otherwise it holds.  The
    index comes out reduced mod n."""
    n = system.n
    pairs = system.pairs
    index %= n
    while True:
        j = (index + 1) % n
        there = strip_map(pairs[j], here)
        if there is here:
            index = j
        here = there
        yield here, index


def pinwheel_step(system: PinwheelSystem, x: IndexedPoint) -> IndexedPoint:
    """One application of the pinwheel map: the first state of the walk."""
    here, index = next(pinwheel_walk(system, system.polygon.homogeneous(x.point), x.index))
    return IndexedPoint(point_of(here), index)


def section(model: BilliardModel, p: Point) -> IndexedPoint:
    """iota(p) = (p, a-1) for p interior to a tile of the path a -> b."""
    a = model.path_of_tile(model.partition.classify(model.polygon.homogeneous(p))).start
    return IndexedPoint(p, (a - 1) % model.n)


def pinwheel_theorem_step(model: BilliardModel, here) -> Tuple[Tuple, List[Tuple], int]:
    """Follow the pinwheel orbit of iota(p), p the lattice triple `here`
    (`NicePolygon.homogeneous`), until it reaches (psi(p), c-1).

    Returns (psi(p), orbit, a), all over p's L: orbit lists the walk's
    states, the last one (psi(p), c-1), so the step count k is its length; a
    is the start spoke of the path a -> b owning p's tile.  p's tile and
    psi(p)'s are the first two of one `Partition.walk`.  BudgetExceededError
    after 3n steps signals a violation of the theorem; a strip-boundary hit
    is reported distinctly as OnStripBoundaryError.
    """
    n = model.n
    (_, tile), (there, landing) = islice(model.partition.walk(here), 2)
    a = model.path_of_tile(tile).start
    goal = there, (model.path_of_tile(landing).start - 1) % n  # psi(p) on a path c -> d
    budget = 3 * n
    orbit = []
    for state in pinwheel_walk(model.system, here, a - 1):
        orbit.append(state)
        if state == goal:
            return there, orbit, a
        if len(orbit) == budget:
            raise BudgetExceededError(
                budget, f"pinwheel budget {budget} exceeded at {point_of(here)}")


def exit_map(model: BilliardModel, here, budget: int) -> Tuple[Tuple, int]:
    """Iterate the square map from the lattice triple `here` until the tile
    label changes; returns the landing triple and the steps taken: the last
    state of the walk's first run, and 1 + its k.  The next run is still
    asked for, so a landing on a wall raises as the stepwise map does."""
    walk = psi_walk(model.polygon, here)
    (X, Y, L), _, k, (dx, dy) = next(walk)
    if k >= budget:
        raise BudgetExceededError(budget, f"no tile exit within {budget} steps of {point_of(here)}")
    next(walk)
    return (X + k * dx, Y + k * dy, L), k + 1


def first_return_psi(model: BilliardModel, here, budget: int) -> Tuple[Tuple, int]:
    """psi^k of the lattice triple `here`, k >= 1 least with it strictly
    inside strip 0, and k.  Along a run of the walk strip 0's offset t moves
    by the same T a step, so the run's only candidate is its first state j
    past the bound of 0 < t < w that T moves toward: one floor per run, as in
    `strip_jump`."""
    pair, steps = model.system.pair(0), 0
    a, b = pair.form[:2]
    walk = psi_walk(model.polygon, here)
    while steps < budget:
        q, _, k, (dx, dy) = next(walk)
        t, w = pair.offsets(q)
        T = a * dx + b * dy
        j = 0 if T == 0 else max(0, floor_div(-t if T > 0 else w - t, T) + 1)
        if j <= k and 0 < t + j * T < w and steps + j < budget:
            X, Y, L = q
            return (X + j * dx, Y + j * dy, L), steps + j + 1
        steps += k + 1
    raise BudgetExceededError(
        budget, f"no return to strip 0 within {budget} steps of {point_of(here)}")


def strip_system_return(system: PinwheelSystem, here, index: int,
                        budget: int) -> Tuple[Tuple, int]:
    """One step of the accelerated strip system: from the state (here, index),
    `here` a lattice triple inside strip `index`, iterate the pinwheel map
    until the index advances to j; geometrically, apply strip map j until the
    point settles inside strip j.  Returns ((there, j), steps), over one L.

    Uses the exact closed-form jump (`strip_jump`); the reported step count
    equals the number of pinwheel-map applications the stepwise route takes,
    which the budget bounds.
    """
    j = (index + 1) % system.n
    q, translations = strip_jump(system.pair(j), here)
    steps = translations + 1  # the final application fixes q and shifts the index
    if steps > budget:
        raise BudgetExceededError(budget, "no strip-system return within budget")
    return (q, j), steps


def far_radius(model: BilliardModel, factor: int = 8) -> tuple:
    """Radius beyond which the far-field statements are exercised: a crude
    c * n * (diameter + max strip width) bound, as a (num, den) pair in
    lowest terms on the polygon's lattice and the strips' forms."""
    poly = model.polygon
    xs, ys = zip(*poly.lattice)
    wn, wq = model.system.max_width()
    den = math.lcm(poly.den, wq)
    extent = (max(xs) - min(xs)) + (max(ys) - min(ys))
    den, num = primitive(den, factor * poly.n * (extent * (den // poly.den) + wn * (den // wq)))
    return num, den


# ---------------------------------------------------------------------------
# orbit iteration with event logging


class OrbitEvent(NamedTuple):
    step: int
    point: Point
    index: Optional[int]
    label: Optional[Tuple[int, int]]
    tag: str


@dataclass
class OrbitRecord:
    selector: str
    events: List[OrbitEvent] = field(default_factory=list)
    period: Optional[int] = None  # a psi orbit's least period, where it returned

    @property
    def final(self) -> OrbitEvent:
        return self.events[-1]

    def points(self) -> List[Point]:
        return [e.point for e in self.events]


# each orbit map's selector by command-line name; the maps started on the section
ORBIT_MAPS = {"psi": "psi", "psistar": "psi_star", "exit": "exit",
              "return": "first_return", "stripreturn": "strip_return"}
SECTION_SELECTORS = ("psi_star", "strip_return")


def _beyond(here, p, q) -> bool:
    """Whether the lattice triple (X, Y, L) lies beyond radius sqrt(p/q):
    q*(X^2 + Y^2) - p*L^2 > 0."""
    X, Y, L = here
    return q * (X * X + Y * Y) - p * L * L > 0


def orbit(model: BilliardModel, start, selector: str, budget: int,
          escape_radius=None) -> OrbitRecord:
    """Iterate the selected map with a full event log.

    `start` is a Point for the plane maps (psi, exit, first_return) and an
    IndexedPoint for psi_star / strip_return.  Iteration stops at the budget,
    on an undefined point (recorded, not raised), or beyond escape_radius;
    the closing event repeats the last state's point and index.  Every
    selector loops on the start's lattice triple, over one L: a state or a
    return costs its step, `point_of` (two Fractions, a Point) and an event by
    `tuple.__new__`, with no Python-level constructor; a replay, the event alone.

    The psi selector expands the walk's label runs into events and notes its
    period P in `period`: once the second run's first state, at step s,
    starts a run again, at step s + P, every later event j is event j - P
    again.  That is exact:
    - every run after the first is a maximal block of equal labels, so its
      first state is a label change of the state sequence;
    - ψ is injective, so a state that recurs after P steps has ψ^P(p) = p
      for the start p, and each later state recurs P steps on;
    - hence the first recurrence of the second run's first state falls on a
      run start, and P is the start's least period;
    - with an escape radius each expanded state is checked by `_beyond`; a
      periodic orbit that did not escape within its period never escapes.
    """
    if selector not in ORBIT_MAPS.values():
        raise ValueError(f"unknown selector {selector!r}")
    rec = OrbitRecord(selector=selector)
    ev, log, event = rec.events, rec.events.append, tuple.__new__
    # the escape radius squared, p/q, from its integer ratio: no field arithmetic
    esc = None if escape_radius is None else tuple(x * x for x in escape_radius.as_integer_ratio())
    indexed = selector in SECTION_SELECTORS
    point, index = (start.point, start.index % model.n) if indexed else (start, None)
    log(event(OrbitEvent, (0, point, index, None, "start" if budget else "budget-exhausted")))
    if not budget:
        return rec
    here = model.polygon.homogeneous(point)
    try:
        if selector == "psi":
            step, mark, s = 0, (), 0  # the second run's first state, and its step s
            for (X, Y, L), label, k, (dx, dy) in psi_walk(model.polygon, here):
                if (X, Y) == mark:
                    rec.period = P = step + 1 - s
                    for j in range(step + 1, budget + 1):
                        e = ev[j - P]
                        log(event(OrbitEvent, (j, e.point, None, e.label, "translated")))
                    break
                if step and not mark:
                    mark, s = (X, Y), step + 1
                for step in range(step + 1, min(step + k + 1, budget) + 1):
                    here = X, Y, L
                    log(event(OrbitEvent, (step, point_of(here), None, label, "translated")))
                    if esc is not None and _beyond(here, *esc):
                        break
                    X, Y = X + dx, Y + dy
                if step == budget or esc is not None and _beyond(here, *esc):
                    break
        elif selector == "psi_star":
            walk = pinwheel_walk(model.system, here, index)
            for step, (here, i) in zip(range(1, budget + 1), walk):
                log(event(OrbitEvent, (step, point_of(here), i, None,
                                       "translated" if i == index else "index-shifted")))
                index = i
                if esc is not None and _beyond(here, *esc):
                    break
        else:
            steps = 0
            while steps < budget:
                if indexed:
                    (here, index), used = strip_system_return(model.system, here, index,
                                                              budget - steps)
                else:
                    returns = exit_map if selector == "exit" else first_return_psi
                    here, used = returns(model, here, budget - steps)
                steps += used
                log(event(OrbitEvent, (steps, point_of(here), index, None, "returned")))
                if esc is not None and _beyond(here, *esc):
                    break
    except (BudgetExceededError, MapUndefinedError) as exc:
        tag = "budget-exhausted" if isinstance(exc, BudgetExceededError) else "undefined"
        log(rec.final._replace(step=rec.final.step + 1, label=None, tag=tag))
        return rec
    escaped = esc is not None and _beyond(here, *esc)
    log(rec.final._replace(label=None, tag="escaped" if escaped else "budget-exhausted"))
    return rec
