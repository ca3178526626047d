"""Pinwheel dynamics: steps, section, returns, orbits."""

import dataclasses
import hashlib
import inspect
import math
import pickle
import textwrap
from fractions import Fraction
from itertools import islice

import pytest

from fm_oracle import fm_canonical, fm_recession_direction, fm_vertices
from oracles import (add, direction, dot, halved, line, normal, parallel_offset,
                     oracle_psi_walk, point_route_theorem_step, pt, scale, stepwise_first_return,
                     stepwise_psi_orbit, strip_region, sub)
from test_billiards import CORPUS, DIRECTIONS, ROOT5, corpus_polygon
from outerbilliards import dynamics, geometry, strips
from outerbilliards.billiards import psi_walk, square_map
from outerbilliards.dynamics import (
    ORBIT_MAPS,
    SECTION_SELECTORS,
    IndexedPoint,
    OrbitEvent,
    exit_map,
    far_radius,
    first_return_psi,
    orbit,
    pinwheel_step,
    pinwheel_theorem_step,
    section,
    strip_system_return,
)
from outerbilliards.errors import (
    BudgetExceededError,
    MapUndefinedError,
    OnStripBoundaryError,
    UndefinedOnWallError,
)
from outerbilliards.generate import random_nice_polygon
from outerbilliards.geometry import HalfPlane, Point, Sense, Vec, homogeneous, point_of, vec_of
from outerbilliards.model import BilliardModel
from outerbilliards.polygon import NicePolygon
from outerbilliards.rng import Rng
from outerbilliards.scalars import quadext, ratio
from outerbilliards.strips import PinwheelSystem, strip_jump, strip_map
from outerbilliards.verify import tile_samples

TRIANGLE = NicePolygon.from_points([pt(0, 0), pt(1, 3), pt(4, 0)])
PENTAGON = NicePolygon.from_points(
    [pt(0, 0), pt(-1, 3), pt(2, 5), pt(5, 2), pt(4, -1)])


def test_pinwheel_step_cases():
    m = BilliardModel(TRIANGLE)
    # interior of the next strip: the index advances
    inside = IndexedPoint(pt(1, 3), m.n - 1)  # strip 0 = {0 <= y <= 6}
    assert pinwheel_step(m.system, inside) == IndexedPoint(pt(1, 3), 0)
    # outside: the point moves by one V, the index holds
    out = IndexedPoint(pt(0, -1), m.n - 1)
    nxt = pinwheel_step(m.system, out)
    assert nxt == IndexedPoint(pt(2, 5), m.n - 1)
    # then the settled point advances the index
    assert pinwheel_step(m.system, nxt) == IndexedPoint(pt(2, 5), 0)
    with pytest.raises(OnStripBoundaryError):
        pinwheel_step(m.system, IndexedPoint(pt(5, 0), m.n - 1))


class _CountedForm(tuple):
    """A strip form that notes each time it is unpacked, as a strip read
    unpacks it to evaluate it at a triple."""

    reads = []

    def __iter__(self):
        self.reads.append(self)
        return super().__iter__()


def test_pinwheel_step_locates_the_point_once():
    """A step is one strip map: one strip-form read (t and t - w) locates the
    point in the strip, and the sign of t also picks the translate when it
    moves."""
    system = BilliardModel(random_nice_polygon(7, 3)).system
    system = PinwheelSystem(system.polygon, tuple(
        dataclasses.replace(pair, form=_CountedForm(pair.form)) for pair in system.pairs))
    reads = _CountedForm.reads
    x = IndexedPoint(pt(1000, Fraction(1, 3)), 0)
    seen = set()
    for _ in range(40):
        reads.clear()
        nxt = pinwheel_step(system, x)
        moved = nxt.index == x.index
        assert len(reads) == 1
        seen.add(moved)
        x = nxt
    assert seen == {True, False}


def test_section_projects_back():
    m = BilliardModel(PENTAGON)
    for p in (pt(20, 1), pt(-9, 14), pt(Fraction(31, 7), Fraction(-22, 5))):
        x = section(m, p)
        assert x.point == p
        tile = m.partition.classify(m.polygon.homogeneous(p))
        a = m.paths.path_for_label(tile.label).start
        assert x.index == (a - 1) % m.n


def test_section_wall_error():
    m = BilliardModel(TRIANGLE)
    with pytest.raises(UndefinedOnWallError):
        section(m, pt(6, 0))


def test_theorem_step_worked_far_field_cases():
    m = BilliardModel(TRIANGLE)
    R = ratio(*far_radius(m))
    found = {1: 0, 2: 0}
    rng = Rng(4).split(2)
    i = 0
    while (found[1] < 5 or found[2] < 2) and i < 4000:
        i += 1
        ux, uy = rng.int_range(2 * i, -99, 99), rng.int_range(2 * i + 1, -99, 99)
        if ux == 0 and uy == 0:
            continue
        s = abs(ux) + abs(uy)
        p = Point(Fraction(2 * R * ux, s), Fraction(2 * R * uy, s))
        try:
            q, orbit, _ = pinwheel_theorem_step(m, m.polygon.homogeneous(p))
        except MapUndefinedError:
            continue
        k = len(orbit)
        assert k in (1, 2)
        in_strip = any(m.system.pair(j).location(q) == 1
                       for j in range(m.n))
        assert (k == 2) == in_strip
        found[k] += 1
    assert found[1] >= 5 and found[2] >= 2


def test_theorem_step_bounded_tiles_within_3n():
    m = BilliardModel(PENTAGON)
    for tile in m.partition.tiles:
        if tile.unbounded:
            continue
        for p in map(point_of, tile.region.sample_points(5, seed=9)):
            try:
                q, orbit, _ = pinwheel_theorem_step(m, m.polygon.homogeneous(p))
            except MapUndefinedError:
                continue
            assert len(orbit) <= 3 * m.n
            assert point_of(q) == square_map(m.polygon, p)[0]


def test_exit_map_bounded_tile_is_one_step():
    m = BilliardModel(PENTAGON)
    tile = next(t for t in m.partition.tiles if not t.unbounded)
    for p in map(point_of, tile.region.sample_points(5, seed=1)):
        try:
            q, steps = exit_map(m, m.polygon.homogeneous(p), 1000)
        except MapUndefinedError:
            continue
        assert steps == 1
        assert point_of(q) == square_map(m.polygon, p)[0]


def test_exit_map_far_field_counts_match_strip_jump():
    m = BilliardModel(PENTAGON)
    R = ratio(*far_radius(m))
    rng = Rng(12).split(7)
    checked = 0
    for j in range(m.n):
        pair = m.system.pair(j)
        d = direction(pair.line)
        for sgn in (1, -1):
            off = pair.width * rng.unit(2 * j + (sgn > 0))
            nrm = normal(pair.line)
            n2 = dot(nrm, nrm)
            base = Point(pair.line.a * pair.line.c / n2,
                         pair.line.b * pair.line.c / n2)
            p = add(add(base, scale(d, sgn * 3 * R / (abs(d.x) + abs(d.y)))), scale(nrm, off / n2))
            here = m.polygon.homogeneous(p)
            assert pair.location(here) == 1
            try:
                _, jump_steps = strip_jump(m.system.pair(j + 1), here)
                _, exit_steps = exit_map(m, here, budget=jump_steps + 8)
            except (MapUndefinedError, BudgetExceededError):
                continue
            # far away, leaving the tile takes exactly the jump translations
            assert exit_steps == jump_steps
            checked += 1
    assert checked >= 6


# Starts whose first label run ends on a wall, with the wall's stage, as the
# exit map raised it when it walked state by state.
EXIT_WALL_STARTS = [
    ("triangle", pt(Fraction(-24200, 7), Fraction(-55800, 7)), 1),
    ("triangle", pt(Fraction(24256, 7), Fraction(55800, 7)), 2),
    ("penrose_kite", Point(quadext(Fraction(38600, 7), Fraction(-20007, 7), 5),
                           Fraction(-18600, 7)), 2),
]


def _assert_exit_walls_raise():
    for poly_key, start, stage in EXIT_WALL_STARTS:
        m = BilliardModel(corpus_polygon(poly_key))
        here = m.polygon.homogeneous(start)
        labels = []
        with pytest.raises(UndefinedOnWallError) as want:
            for _, label in oracle_psi_walk(m.polygon, here):
                labels.append(label)
        assert len(labels) > 1 and len(set(labels)) == 1  # one run, up to the wall
        with pytest.raises(UndefinedOnWallError) as hit:
            dynamics.exit_map(m, here, 10 ** 6)
        assert (hit.value.point, hit.value.stage) == (want.value.point, stage)


def test_exit_map_landing_on_a_wall_raises():
    """Where the first label run ends on a wall, the exit map raises the
    stepwise walk's UndefinedOnWallError, at its stage, over Q and Q(sqrt 5)."""
    _assert_exit_walls_raise()


def test_exit_wall_test_catches_an_exit_map_that_stops_at_its_run(monkeypatch):
    """Negative control: an exit map that returns the first run's last state
    without asking for the next run must fail the wall test."""
    source = textwrap.dedent(inspect.getsource(dynamics.exit_map))
    assert source.count("    next(walk)\n") == 1
    namespace = dict(vars(dynamics))
    exec(source.replace("    next(walk)\n", ""), namespace)
    monkeypatch.setattr(dynamics, "exit_map", namespace["exit_map"])
    with pytest.raises(pytest.fail.Exception):
        _assert_exit_walls_raise()


def _return_outcome(returns, m, here, budget):
    """(point, steps) of a first return to strip 0, or the error's class,
    point and stage."""
    try:
        q, k = returns(m, here, budget)
        return point_of(q), k
    except (MapUndefinedError, BudgetExceededError) as exc:
        return type(exc).__name__, getattr(exc, "point", None), getattr(exc, "stage", None)


def _stepwise_first_return_psi(m, here, budget):
    """first_return_psi state by state over `oracle_psi_walk`."""
    pair = m.system.pair(0)
    for k, (q, _) in zip(range(1, budget + 1), oracle_psi_walk(m.polygon, here)):
        if pair.location(q) == 1:
            return q, k
    raise BudgetExceededError(budget, "no return")


@pytest.mark.parametrize("poly_key", ["triangle", "n5", "n7", "sqrt5_kite", "penrose_kite"])
def test_first_return_psi_matches_stepwise(poly_key):
    """The closed form per run equals the state-by-state first return to
    strip 0 on near, far and Q(sqrt 5) starts and on the returns, which
    start inside strip 0; a budget one short of the return exhausts it, and
    a wall is raised as the stepwise walk raises it."""
    m = BilliardModel(corpus_polygon(poly_key))
    extent = max(math.floor(abs(c)) for v in m.polygon.vertices for c in (v.x, v.y)) + 1
    starts = [pt(r * extent * ux, r * extent * uy)
              for r in (2, 5, 40) for ux, uy in DIRECTIONS]
    starts += [Point(p.x + ROOT5 / 7, p.y) for p in starts[::4]]
    seen = set()

    def check(p):
        here = m.polygon.homogeneous(p)
        want = _return_outcome(_stepwise_first_return_psi, m, here, 3000)
        assert _return_outcome(first_return_psi, m, here, 3000) == want, p
        if len(want) == 2:
            k = want[1]
            assert _return_outcome(first_return_psi, m, here, k) == want, p
            assert _return_outcome(first_return_psi, m, here, k - 1)[0] == "BudgetExceededError"
            seen.add("returned" if k > 1 else "first")
        else:
            seen.add(want[0])
        return want

    for want in list(map(check, starts)):
        if len(want) == 2:
            check(want[0])  # a start inside strip 0
    assert "returned" in seen, seen


def test_first_return_postconditions():
    m = BilliardModel(PENTAGON)
    pair = m.system.pair(0)
    R = ratio(*far_radius(m))
    d = direction(pair.line)
    base = add(pt(0, 0), scale(d, 3 * R / (abs(d.x) + abs(d.y))))
    nrm = normal(pair.line)
    n2 = dot(nrm, nrm)
    p = add(base, scale(nrm, (pair.width * Fraction(3, 7) + pair.line.c) / n2))
    here = m.polygon.homogeneous(p)
    assert pair.location(here) == 1
    q, steps = first_return_psi(m, here, budget=10_000)
    assert pair.location(q) == 1
    assert steps >= 1
    with pytest.raises(BudgetExceededError):
        first_return_psi(m, here, budget=0)


def test_far_field_first_return_equals_strip_system_return_cycle():
    """Away from the polygon the billiards return to strip 0 agrees with the
    full cycle of the accelerated strip system."""
    m = BilliardModel(PENTAGON)
    pair = m.system.pair(0)
    R = ratio(*far_radius(m))
    d = direction(pair.line)
    nrm = normal(pair.line)
    n2 = dot(nrm, nrm)
    rng = Rng(3).split(1)
    checked = 0
    for i in range(8):
        t = 2 * R * (1 + rng.unit(2 * i))
        off = pair.width * rng.unit(2 * i + 1)
        p = add(add(pt(0, 0), scale(d, t / (abs(d.x) + abs(d.y)))),
                scale(nrm, (off + pair.line.c) / n2))
        here = m.polygon.homogeneous(p)
        if pair.location(here) != 1:
            continue
        try:
            q1, _ = first_return_psi(m, here, budget=100_000)
        except (BudgetExceededError, MapUndefinedError):
            continue
        state = here, 0
        try:
            for _ in range(m.n):
                state, _ = strip_system_return(m.system, *state, 10 ** 6)
        except MapUndefinedError:
            continue
        assert state[1] == 0
        assert point_of(state[0]) == point_of(q1)
        checked += 1
    assert checked >= 4


def test_strip_return_point_lies_on_exit_map_orbit():
    """Far from the origin, points of the billiards orbit that re-enter a
    strip appear on the accelerated (tile-exit) orbit."""
    m = BilliardModel(PENTAGON)
    pair = m.system.pair(0)
    R = ratio(*far_radius(m))
    d = direction(pair.line)
    nrm = normal(pair.line)
    n2 = dot(nrm, nrm)
    rng = Rng(21).split(9)
    checked = 0
    for i in range(6):
        off = pair.width * rng.unit(2 * i)
        t = 2 * R * (1 + rng.unit(2 * i + 1))
        p = add(add(pt(0, 0), scale(d, t / (abs(d.x) + abs(d.y)))),
                scale(nrm, (off + pair.line.c) / n2))
        x = m.polygon.homogeneous(p)
        if pair.location(x) != 1:
            continue
        try:
            q, _ = first_return_psi(m, x, budget=100_000)
        except (BudgetExceededError, MapUndefinedError):
            continue
        hops = [x]
        try:
            for _ in range(4 * m.n):
                x, _ = exit_map(m, x, budget=100_000)
                hops.append(x)
                if x == q:
                    break
        except (BudgetExceededError, MapUndefinedError):
            continue
        assert q in hops, "strip return missing from the exit-map orbit"
        checked += 1
    assert checked >= 3


def test_strip_system_return_advances_one_strip():
    m = BilliardModel(PENTAGON)
    rng = Rng(8).split(4)
    for j in range(m.n):
        pts = strip_region(m.system.pair(j)).intersect(_bigbox()).sample_points(
            4, seed=rng.u64(j) & 0xFFFF)
        for p in map(point_of, pts):
            try:
                (q, index), steps = strip_system_return(m.system, m.polygon.homogeneous(p), j,
                                                        10 ** 6)
            except MapUndefinedError:
                continue
            assert index == (j + 1) % m.n
            assert m.system.pair(j + 1).location(q) == 1
            assert steps >= 1


def _bigbox():
    from outerbilliards.geometry import box_region

    return box_region(-300, -300, 300, 300)


def test_strip_system_return_matches_stepwise_pinwheel():
    m = BilliardModel(PENTAGON)
    p = pt(Fraction(200, 3), Fraction(41, 7))
    for j in range(m.n):
        if m.system.pair(j).location(m.polygon.homogeneous(p)) != 1:
            continue
        (q, k), fast_steps = strip_system_return(m.system, m.polygon.homogeneous(p), j, 10 ** 6)
        fast = IndexedPoint(point_of(q), k)
        state = IndexedPoint(p, j)
        slow_steps = 0
        while True:
            nxt = pinwheel_step(m.system, state)
            slow_steps += 1
            if nxt.index != state.index:
                state = nxt
                break
            state = nxt
        assert (state, slow_steps) == (fast, fast_steps)


def test_psi_orbit_matches_pinwheel_projection_far_out():
    """Finite-segment orbit correspondence: at far radius the planar points
    of the billiards orbit appear, in order, in the pinwheel orbit's
    projection."""
    m = BilliardModel(PENTAGON)
    R = ratio(*far_radius(m))
    p = pt(2 * R + Fraction(1, 3), Fraction(5, 7))
    k_steps = 12
    psi_points = [p]
    q = p
    for _ in range(k_steps):
        q, _ = square_map(m.polygon, q)
        psi_points.append(q)
    rec = orbit(m, section(m, p), "psi_star", budget=6 * k_steps * m.n)
    proj = []
    for e in rec.events:
        if not proj or proj[-1] != e.point:
            proj.append(e.point)
    idx = 0
    for target in psi_points:
        while idx < len(proj) and proj[idx] != target:
            idx += 1
        assert idx < len(proj), f"psi point {target} missing from projection"


def test_orbit_budget_zero_single_entry():
    m = BilliardModel(TRIANGLE)
    rec = orbit(m, pt(8, -2), "psi", budget=0)
    assert len(rec.events) == 1
    assert rec.events[0].tag == "budget-exhausted"


def test_orbit_escape_radius():
    m = BilliardModel(TRIANGLE)
    rec = orbit(m, pt(8, -2), "psi", budget=10_000, escape_radius=Fraction(100))
    assert rec.final.tag in ("escaped", "budget-exhausted")
    if rec.final.tag == "escaped":
        x, y = rec.final.point.x, rec.final.point.y
        assert x * x + y * y > 100 * 100


def test_orbit_wall_hit_recorded_not_raised():
    m = BilliardModel(TRIANGLE)
    rec = orbit(m, pt(6, 0), "psi", budget=5)
    assert rec.final.tag == "undefined"


def test_orbit_selector_validation():
    m = BilliardModel(TRIANGLE)
    with pytest.raises(ValueError):
        orbit(m, pt(8, -2), "nonsense", budget=1)


def test_orbit_psi_star_tags():
    m = BilliardModel(TRIANGLE)
    rec = orbit(m, section(m, pt(8, -2)), "psi_star", budget=12)
    tags = {e.tag for e in rec.events}
    assert "index-shifted" in tags or "translated" in tags


def test_psi_star_orbit_converts_the_start_once(monkeypatch):
    """A psi_star orbit iterates one pinwheel walk on the start's lattice
    triple: 200 steps take one `NicePolygon.homogeneous` call and visit the
    states that 200 `pinwheel_step`s visit."""
    m = BilliardModel(random_nice_polygon(7, 7))
    x = IndexedPoint(pt(Fraction(1001, 3), Fraction(-77, 5)), 0)
    expect = [x]
    for _ in range(200):
        expect.append(pinwheel_step(m.system, expect[-1]))
    calls = []
    real = NicePolygon.homogeneous
    monkeypatch.setattr(NicePolygon, "homogeneous",
                        lambda poly, p: calls.append(p) or real(poly, p))
    rec = orbit(m, x, "psi_star", budget=200)
    assert len(calls) == 1
    assert [IndexedPoint(e.point, e.index) for e in rec.events[:201]] == expect
    assert rec.final.tag == "budget-exhausted"


@pytest.mark.parametrize("radius", [1005, 10 ** 4])
@pytest.mark.parametrize("selector", ["exit", "first_return", "strip_return"])
def test_return_orbits_convert_the_start_once(monkeypatch, selector, radius):
    """A return-map orbit loops on the start's lattice triple: one
    `NicePolygon.homogeneous` call for the whole orbit and no
    `geometry.homogeneous` call, the escape tests included, whether the
    orbit escapes or exhausts its budget."""
    m = BilliardModel(TRIANGLE)
    p = pt(1000, Fraction(1, 3))
    start = section(m, p) if selector == "strip_return" else p
    calls, converted = [], []
    real = NicePolygon.homogeneous
    monkeypatch.setattr(NicePolygon, "homogeneous",
                        lambda poly, q: calls.append(q) or real(poly, q))
    monkeypatch.setattr(dynamics, "homogeneous",
                        lambda *args: converted.append(args) or homogeneous(*args),
                        raising=False)
    rec = orbit(m, start, selector, 3000, escape_radius=Fraction(radius))
    assert len(calls) == 1 and not converted
    assert sum(e.tag == "returned" for e in rec.events) >= 2
    x, y = rec.final.point.x, rec.final.point.y
    escaped = x * x + y * y > radius * radius
    assert rec.final.tag == ("escaped" if escaped else "budget-exhausted")


def _square_map_states(polygon, p, steps):
    """(step, point, label) of the start and `steps` iterated `square_map`s."""
    states = [(0, p, None)]
    for k in range(1, steps + 1):
        p, label = square_map(polygon, p)
        states.append((k, p, label))
    return states


@pytest.mark.parametrize("poly_key, start", [
    ("n7", pt(70, Fraction(-17, 5))),
    ("n7", pt(180013, Fraction(-52001, 3))),
    ("penrose_kite", Point(ROOT5 / 7 + 3, Fraction(1, 3))),
    ("penrose_kite", pt(-30007, Fraction(10001, 7))),
])
def test_psi_orbit_converts_the_start_once(monkeypatch, poly_key, start):
    """A psi orbit iterates one ψ walk on the start's lattice triple: 200
    steps take one `NicePolygon.homogeneous` call and log each state of 200
    iterated `square_map`s once, in order and with its label, near and far
    out; `budget-exhausted` repeats the last state, not the start."""
    m = BilliardModel(corpus_polygon(poly_key))
    expect = _square_map_states(m.polygon, start, 200)
    calls = []
    real = NicePolygon.homogeneous
    monkeypatch.setattr(NicePolygon, "homogeneous",
                        lambda poly, p: calls.append(p) or real(poly, p))
    rec = orbit(m, start, "psi", budget=200)
    assert len(calls) == 1
    assert [(e.step, e.point, e.label) for e in rec.events[:-1]] == expect
    assert [e.tag for e in rec.events] == ["start"] + ["translated"] * 200 + ["budget-exhausted"]
    assert rec.final == OrbitEvent(200, expect[-1][1], None, None, "budget-exhausted")


# Starts of `FAR_ORBIT_GOLDEN` that meet a wall at step 121, and the last
# state before it, as the stepwise `orbit` loop recorded them.
@pytest.mark.parametrize("poly_key, start, last", [
    ("n7", pt(Fraction(-76620, 49), Fraction(-190591, 49)),
     pt(Fraction(208042, 49), Fraction(-152735, 49))),
    ("triangle", pt(Fraction(7096, 7), Fraction(960, 7)), pt(Fraction(2056, 7), Fraction(6000, 7))),
])
def test_psi_orbit_ends_undefined_at_a_mid_orbit_wall(poly_key, start, last):
    m = BilliardModel(corpus_polygon(poly_key))
    rec = orbit(m, start, "psi", budget=200)
    expect = _square_map_states(m.polygon, start, 120)
    assert [(e.step, e.point, e.label) for e in rec.events[:-1]] == expect
    assert expect[-1][1] == last
    assert rec.final == OrbitEvent(121, last, None, None, "undefined")


# The psi orbit's period and replay against `oracles.stepwise_psi_orbit`, the
# state-by-state loop over the oracle walk.  A periodic start near each
# polygon, with its least period P; s is the step of its second label run.
PERIODIC_STARTS = {
    "triangle": (pt(-10, Fraction(-50, 11)), 15),
    "n3": (pt(20, 20), 21),
    "n4": (pt(55, 55), 19),
    "n5": (pt(50, Fraction(50, 3)), 11),
    "n6": (pt(32, 32), 9),
    "n7": (pt(90, 90), 192),
    "n8": (pt(Fraction(-80, 7), 40), 33),
    "n9": (pt(60, 20), 35),
    "n10": (pt(100, Fraction(100, 3)), 11),
    "n11": (pt(60, -100), 33),
    "n12": (pt(-40, Fraction(40, 9)), 13),
    "sqrt5_kite": (pt(15, 15), 171),
    "penrose_kite": (pt(10, Fraction(10, 3)), 247),
    "regular_pentagon": (pt(10, Fraction(10, 3)), 305),
}


def _second_run_step(rec) -> int:
    """The step of the first event whose label differs from the last one's."""
    labels = [e.label for e in rec.events]
    return next(i for i in range(2, len(labels)) if labels[i] != labels[i - 1])


def _assert_replay_matches_stepwise(poly_key):
    """`dynamics.orbit`'s psi events equal the stepwise orbit's, every one,
    at budgets s + P - 1, s + P, s + P + 1 and 3(s + P), with no escape
    radius, with one no state passes (the orbit's largest L1 norm, rounded
    up to an int over Q(sqrt 5)) and with half of it, which the orbit passes
    within its period; `period` is P exactly where the orbit reached step
    s + P."""
    p, P = PERIODIC_STARTS[poly_key]
    m = BilliardModel(corpus_polygon(poly_key))
    assert stepwise_first_return(m.polygon, p, 10 * P) == P
    probe = stepwise_psi_orbit(m, p, 2 * P)
    s = _second_run_step(probe)
    top = max(abs(e.point.x) + abs(e.point.y) for e in probe.events)
    top = top if isinstance(top, Fraction) else Fraction(math.floor(top) + 1)  # rational radii
    for budget in (s + P - 1, s + P, s + P + 1, 3 * (s + P)):
        for radius in (None, top, top / 2):
            rec = dynamics.orbit(m, p, "psi", budget, radius)
            want = stepwise_psi_orbit(m, p, budget, radius)
            assert rec.events == want.events, (poly_key, budget, radius)
            returned = budget >= s + P and rec.final.tag == "budget-exhausted"
            assert rec.period == (P if returned else None), (poly_key, budget, radius)


@pytest.mark.parametrize("poly_key", sorted(PERIODIC_STARTS))
def test_psi_orbit_replay_matches_stepwise_orbit(poly_key):
    _assert_replay_matches_stepwise(poly_key)


@pytest.mark.parametrize("poly_key, start, period", [
    ("triangle", pt(8, -2), 9),
    ("n7", pt(-540, Fraction(-2700, 11)), 2418),
])
def test_psi_orbit_period_is_the_stepwise_first_return(poly_key, start, period):
    """`period` is the start's first return, walked state by state, on the
    triangle and on an n = 7 start of period 2,418, and the replayed orbit
    equals the stepwise one past it."""
    m = BilliardModel(corpus_polygon(poly_key))
    assert stepwise_first_return(m.polygon, start, 10 ** 5) == period
    rec = orbit(m, start, "psi", period + 30)
    assert rec.period == period
    assert rec.events == stepwise_psi_orbit(m, start, period + 30).events


@pytest.mark.parametrize("mutant", [
    ("P = step + 1 - s", "P = step + 2 - s"),
    ("if (X, Y) == mark:", "if (X, Y)[:1] == mark[:1]:"),
    ("e = ev[j - P]", "e = ev[j - P + 1]")],
    ids=["period-off-by-one", "mark-compares-x-only", "replay-one-ahead"])
def test_replay_parity_catches_wrong_periods(monkeypatch, mutant):
    """Negative controls: an orbit that replays with a period one too long,
    that takes a run start with the mark's X alone for the mark, or that
    copies event j - P + 1 to step j must fail the replay test."""
    source = textwrap.dedent(inspect.getsource(dynamics.orbit))
    old, new = mutant
    assert source.count(old) == 1
    namespace = dict(vars(dynamics))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(dynamics, "orbit", namespace["orbit"])
    with pytest.raises(AssertionError):
        for poly_key in sorted(PERIODIC_STARTS):
            _assert_replay_matches_stepwise(poly_key)


def test_penrose_kite_orbit_passes_a_fixed_radius():
    """The Penrose kite's ψ orbit of ((1 + sqrt 5)/2, 1), where Schwartz's
    unbounded orbits live, passes L1 radius 1,000 within 10**4 label runs:
    read at run ends, it passes 100 at run 270 (step 2,850) and 1,000 at
    run 4,482 (step 430,607).  Cross-check: over the first 100 runs the
    largest L1 norm at run ends is that of every state walked stepwise."""
    from test_verify import penrose_kite

    poly = penrose_kite()
    here = poly.homogeneous(Point(quadext(Fraction(1, 2), Fraction(1, 2), 5), Fraction(1)))
    L, steps, passed = here[2], 0, []
    for runs, ((X, Y, _), _, k, (dx, dy)) in enumerate(psi_walk(poly, here), 1):
        steps += k + 1
        r = max(max(x, -x) + max(y, -y) for x, y in ((X, Y), (X + k * dx, Y + k * dy)))
        top = r if runs == 1 else max(top, r)
        if runs == 100:
            prefix = ratio(top, L), steps
        while len(passed) < 2 and r > (100, 1000)[len(passed)] * L:
            passed.append((runs, steps))
        if len(passed) == 2 or runs == 10 ** 4:
            break
    assert passed == [(270, 2850), (4482, 430607)]
    top, steps = prefix
    points = [point_of(q) for q, _ in islice(oracle_psi_walk(poly, here), steps)]
    assert top == max(abs(q.x) + abs(q.y) for q in points)


def test_orbit_event_contract():
    """`OrbitEvent` keeps its five fields in order, refuses assignment and
    prints as recorded when it was a frozen dataclass, over Q and Q(sqrt 5);
    `points()` and `final` read the event log."""
    fields = ("step", "point", "index", "label", "tag")
    assert tuple(inspect.signature(OrbitEvent).parameters) == fields
    m = BilliardModel(TRIANGLE)
    rec = orbit(m, pt(8, -2), "psi", 6)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec.events[1], name, None)
    assert repr(rec.events[1]) == (
        "OrbitEvent(step=1, point=Point(x=Fraction(10, 1), y=Fraction(4, 1)), "
        "index=None, label=(0, 1), tag='translated')")
    assert rec.points() == [pt(8, -2), pt(10, 4), pt(4, 10), pt(-4, 10), pt(-12, 10),
                            pt(-14, 4), pt(-8, -2), pt(-8, -2)]
    assert rec.final is rec.events[-1] and rec.final.tag == "budget-exhausted"
    star = orbit(m, section(m, pt(8, -2)), "psi_star", 3)
    assert repr(star.events[2]) == (
        "OrbitEvent(step=2, point=Point(x=Fraction(10, 1), y=Fraction(4, 1)), "
        "index=0, label=None, tag='index-shifted')")
    kite = BilliardModel(corpus_polygon("sqrt5_kite"))
    start = Point(ROOT5 / 7 + 30011, Fraction(-10007, 3))
    rec = orbit(kite, start, "psi", 3)
    assert repr(rec.events[2]) == (
        "OrbitEvent(step=2, point=Point(x=QuadExt(Fraction(30011, 1), Fraction(1, 7), 5), "
        "y=Fraction(-9983, 3)), index=None, label=(3, 1), tag='translated')")
    assert rec.points() == [Point(start.x, Fraction(y, 3)) for y in (-10007, -9995, -9983, -9971)] + [
        Point(start.x, Fraction(-9971, 3))]
    assert rec.final == OrbitEvent(3, Point(start.x, Fraction(-9971, 3)), None, None, "budget-exhausted")


def test_far_radius_scales_with_polygon():
    small = BilliardModel(TRIANGLE)
    big = BilliardModel(random_nice_polygon(7, 3, bound=40))
    assert ratio(*far_radius(big)) > ratio(*far_radius(small))


# Event logs of `orbit` recorded as literals, one case per selector and end
# tag: (step, x, y, index, label, tag), coordinates as `str` of the scalar.
_A = (Fraction(41, 3), Fraction(2, 7))
_ON_STRIP_1 = IndexedPoint(pt(-2, -6), 0)  # on the boundary line of strip 1

ORBIT_GOLDEN = {
    "psi": ("triangle", pt(8, -2), "psi", 6, None, [
        (0, "8", "-2", None, None, "start"),
        (1, "10", "4", None, (0, 1), "translated"),
        (2, "4", "10", None, (2, 1), "translated"),
        (3, "-4", "10", None, (2, 0), "translated"),
        (4, "-12", "10", None, (2, 0), "translated"),
        (5, "-14", "4", None, (1, 0), "translated"),
        (6, "-8", "-2", None, (1, 2), "translated"),
        (6, "-8", "-2", None, None, "budget-exhausted")]),
    "psi-undefined": ("triangle", pt(6, 0), "psi", 5, None, [
        (0, "6", "0", None, None, "start"),
        (1, "6", "0", None, None, "undefined")]),
    "psi-escaped": ("triangle", pt(8, -2), "psi", 20, 12, [
        (0, "8", "-2", None, None, "start"),
        (1, "10", "4", None, (0, 1), "translated"),
        (2, "4", "10", None, (2, 1), "translated"),
        (3, "-4", "10", None, (2, 0), "translated"),
        (4, "-12", "10", None, (2, 0), "translated"),
        (4, "-12", "10", None, None, "escaped")]),
    "psi-budget-zero": ("triangle", pt(8, -2), "psi", 0, None, [
        (0, "8", "-2", None, None, "budget-exhausted")]),
    "psi_star": ("triangle", "section", "psi_star", 12, None, [
        (0, "8", "-2", 2, None, "start"),
        (1, "10", "4", 2, None, "translated"),
        (2, "10", "4", 0, None, "index-shifted"),
        (3, "4", "10", 0, None, "translated"),
        (4, "4", "10", 1, None, "index-shifted"),
        (5, "-4", "10", 1, None, "translated"),
        (6, "-12", "10", 1, None, "translated"),
        (7, "-12", "10", 2, None, "index-shifted"),
        (8, "-14", "4", 2, None, "translated"),
        (9, "-14", "4", 0, None, "index-shifted"),
        (10, "-8", "-2", 0, None, "translated"),
        (11, "-2", "-8", 0, None, "translated"),
        (12, "-2", "-8", 1, None, "index-shifted"),
        (12, "-2", "-8", 1, None, "budget-exhausted")]),
    "psi_star-escaped": ("triangle", "section", "psi_star", 40, 12, [
        (0, "8", "-2", 2, None, "start"),
        (1, "10", "4", 2, None, "translated"),
        (2, "10", "4", 0, None, "index-shifted"),
        (3, "4", "10", 0, None, "translated"),
        (4, "4", "10", 1, None, "index-shifted"),
        (5, "-4", "10", 1, None, "translated"),
        (6, "-12", "10", 1, None, "translated"),
        (6, "-12", "10", 1, None, "escaped")]),
    "psi_star-undefined": ("triangle", _ON_STRIP_1, "psi_star", 5, None, [
        (0, "-2", "-6", 0, None, "start"),
        (1, "-2", "-6", 0, None, "undefined")]),
    "strip_return": ("triangle", "section-a", "strip_return", 7, None, [
        (0, "41/3", "2/7", 0, None, "start"),
        (2, "23/3", "44/7", 1, None, "returned"),
        (5, "-25/3", "44/7", 2, None, "returned"),
        (7, "-31/3", "2/7", 0, None, "returned"),
        (7, "-31/3", "2/7", 0, None, "budget-exhausted")]),
    "strip_return-over-budget": ("triangle", "section-a", "strip_return", 8, None, [
        (0, "41/3", "2/7", 0, None, "start"),
        (2, "23/3", "44/7", 1, None, "returned"),
        (5, "-25/3", "44/7", 2, None, "returned"),
        (7, "-31/3", "2/7", 0, None, "returned"),
        (8, "-31/3", "2/7", 0, None, "budget-exhausted")]),
    "strip_return-escaped": ("triangle", "section-a", "strip_return", 30, 10, [
        (0, "41/3", "2/7", 0, None, "start"),
        (2, "23/3", "44/7", 1, None, "returned"),
        (5, "-25/3", "44/7", 2, None, "returned"),
        (5, "-25/3", "44/7", 2, None, "escaped")]),
    "strip_return-undefined": ("triangle", _ON_STRIP_1, "strip_return", 5, None, [
        (0, "-2", "-6", 0, None, "start"),
        (1, "-2", "-6", 0, None, "undefined")]),
    "exit": ("triangle", pt(*_A), "exit", 12, None, [
        (0, "41/3", "2/7", None, None, "start"),
        (1, "23/3", "44/7", None, None, "returned"),
        (3, "-25/3", "44/7", None, None, "returned"),
        (4, "-31/3", "2/7", None, None, "returned"),
        (6, "5/3", "-82/7", None, None, "returned"),
        (7, "29/3", "-82/7", None, None, "returned"),
        (9, "41/3", "2/7", None, None, "returned"),
        (10, "23/3", "44/7", None, None, "returned"),
        (12, "-25/3", "44/7", None, None, "returned"),
        (12, "-25/3", "44/7", None, None, "budget-exhausted")]),
    "exit-over-budget": ("triangle", pt(10000, Fraction(1, 3)), "exit", 5, None, [
        (0, "10000", "1/3", None, None, "start"),
        (1, "10000", "1/3", None, None, "budget-exhausted")]),
    "exit-undefined": ("triangle", pt(6, 0), "exit", 5, None, [
        (0, "6", "0", None, None, "start"),
        (1, "6", "0", None, None, "undefined")]),
    "first_return": ("triangle", pt(*_A), "first_return", 10, None, [
        (0, "41/3", "2/7", None, None, "start"),
        (4, "-31/3", "2/7", None, None, "returned"),
        (9, "41/3", "2/7", None, None, "returned"),
        (10, "41/3", "2/7", None, None, "budget-exhausted")]),
    "first_return-escaped": ("triangle", pt(*_A), "first_return", 30, 10, [
        (0, "41/3", "2/7", None, None, "start"),
        (4, "-31/3", "2/7", None, None, "returned"),
        (4, "-31/3", "2/7", None, None, "escaped")]),
    "first_return-undefined": ("triangle", pt(6, 0), "first_return", 5, None, [
        (0, "6", "0", None, None, "start"),
        (1, "6", "0", None, None, "undefined")]),
    "psi-sqrt5-kite": ("sqrt5_kite", pt(Fraction(7, 2), Fraction(1, 3)), "psi", 6, None, [
        (0, "7/2", "1/3", None, None, "start"),
        (1, "7/2", "13/3", None, (3, 1), "translated"),
        (2, "(3/2 + -2*sqrt(5))", "13/3", None, (2, 0), "translated"),
        (3, "(3/2 + -4*sqrt(5))", "7/3", None, (2, 3), "translated"),
        (4, "(3/2 + -4*sqrt(5))", "-5/3", None, (1, 3), "translated"),
        (5, "(3/2 + -2*sqrt(5))", "-11/3", None, (1, 2), "translated"),
        (6, "7/2", "-11/3", None, (0, 2), "translated"),
        (6, "7/2", "-11/3", None, None, "budget-exhausted")]),
}


@pytest.mark.parametrize("case", sorted(ORBIT_GOLDEN))
def test_orbit_golden_event_log(case):
    from test_quasirational import sqrt5_kite

    poly, start, selector, budget, escape, want = ORBIT_GOLDEN[case]
    m = BilliardModel(TRIANGLE if poly == "triangle" else sqrt5_kite())
    if start == "section":
        start = section(m, pt(8, -2))
    elif start == "section-a":
        start = section(m, pt(*_A))
    rec = orbit(m, start, selector, budget,
                None if escape is None else Fraction(escape))
    got = [(e.step, str(e.point.x), str(e.point.y), e.index, e.label, e.tag)
           for e in rec.events]
    assert got == want


# Truncated sha256 of `far_orbit_text`: 5000-step ψ orbits whose steps are
# almost all inside label runs, recorded with the stepwise walk, before runs
# went in closed form.  (polygon, start, wall stage or None, digest); each
# wall start meets its wall at step 121, at the end of a run of 72 (stage 1)
# or 120 (stage 2) steps.
FAR_ORBIT_GOLDEN = {
    "triangle": ("triangle", pt(1000, Fraction(1, 3)), None, "4f6e5910930025cf"),
    "n7": ("n7", pt(180013, Fraction(-52001, 3)), None, "e2c786e69b2ec5d0"),
    "n12": ("n12", pt(Fraction(-61001, 7), 200003), None, "0a48284b6aafabf2"),
    "sqrt5_kite": ("sqrt5_kite", Point(ROOT5 / 7 + 30011, Fraction(-10007, 3)), None,
                   "7508d20f64744965"),
    "penrose_kite": ("penrose_kite", pt(-30007, Fraction(10001, 7)), None, "cc85f9287a72ad38"),
    "wall-stage1": ("n7", pt(Fraction(-76620, 49), Fraction(-190591, 49)), 1, "3bca0d8f546e4a5e"),
    "wall-stage2": ("triangle", pt(Fraction(7096, 7), Fraction(960, 7)), 2, "36ea95e734fdb399"),
}


def far_orbit_text(poly_key, start) -> str:
    rec = orbit(BilliardModel(corpus_polygon(poly_key)), start, "psi", 5000)
    return "\n".join(f"{e.step} {e.tag} {e.label} {e.point.x} {e.point.y}"
                     for e in rec.events)


@pytest.mark.parametrize("case", sorted(FAR_ORBIT_GOLDEN))
def test_far_orbit_golden_digest(case):
    poly_key, start, stage, digest = FAR_ORBIT_GOLDEN[case]
    text = far_orbit_text(poly_key, start)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    if stage is None:
        assert text.count("translated") == 5000
        return
    poly = corpus_polygon(poly_key)
    with pytest.raises(UndefinedOnWallError) as hit:
        for _ in psi_walk(poly, poly.homogeneous(start)):
            pass
    assert hit.value.stage == stage
    wall = hit.value.point
    assert text.endswith(f"undefined None {wall.x} {wall.y}")


def test_orbit_golden_covers_every_selector_and_end_tag():
    selectors = {c[2] for c in ORBIT_GOLDEN.values()}
    tags = {e[-1] for c in ORBIT_GOLDEN.values() for e in c[-1]}
    assert selectors == {"psi", "psi_star", "exit", "first_return", "strip_return"}
    assert tags == {"start", "translated", "index-shifted", "returned",
                    "undefined", "budget-exhausted", "escaped"}


# Events are built by `tuple.__new__` and their Points by `point_of`'s slot
# filling: no constructor runs on the event path.


def event_path_cases():
    """(model, start, selector, budget, escape) on the triangle and the
    Penrose kite, models and section starts built first: every selector from
    a near and a far start, with and without an escape radius, a psi start
    replayed past its period and a psi start on a wall."""
    from test_verify import penrose_kite

    cases = []
    for poly, near, periodic in (
            (TRIANGLE, pt(*_A), pt(8, -2)),
            (penrose_kite(), pt(3, Fraction(1, 3)), pt(Fraction(3, 2), Fraction(1, 3)))):
        m = BilliardModel(poly)
        m.system, m.paths, m.partition
        for p in (near, pt(1000, Fraction(1, 3))):
            for selector in ORBIT_MAPS.values():
                start = section(m, p) if selector in SECTION_SELECTORS else p
                cases += [(m, start, selector, 300, escape) for escape in (None, Fraction(20))]
        cases.append((m, periodic, "psi", 100, None))
    cases.append((cases[0][0], pt(6, 0), "psi", 5, None))
    return cases


def test_orbit_events_are_constructed_events():
    """Every selector's events, replayed and closing ones included, are
    `OrbitEvent`s equal to the same events built by `OrbitEvent(...)`, in
    hash, repr and pickle too, and `_replace` and `_asdict` work on them."""
    tags, periods = set(), set()
    for case in event_path_cases():
        rec = orbit(*case)
        periods.add(rec.period)
        for e in rec.events:
            built = OrbitEvent(*e)
            assert type(e) is OrbitEvent and e == built and hash(e) == hash(built)
            assert repr(e) == repr(built) and pickle.dumps(e) == pickle.dumps(built)
            assert e._asdict() == built._asdict() == dict(zip(OrbitEvent._fields, built))
            moved_on = e._replace(step=e.step + 1, tag="moved")
            assert type(moved_on) is OrbitEvent
            assert moved_on == OrbitEvent(e.step + 1, e.point, e.index, e.label, "moved")
            tags.add(e.tag)
    assert tags == {"start", "translated", "index-shifted", "returned",
                    "undefined", "budget-exhausted", "escaped"}
    assert {9, 3} <= periods


def guarded_event_logs(monkeypatch, cases) -> list:
    """Each case's event log with `Point.__init__` and `OrbitEvent.__new__`
    raising, so that a constructor on the event path fails the run."""
    def refuse(*args, **kwargs):
        raise AssertionError("a constructor on the orbit event path")

    with monkeypatch.context() as guard:
        guard.setattr(Point, "__init__", refuse)
        guard.setattr(OrbitEvent, "__new__", refuse)
        return [dynamics.orbit(*case).events for case in cases]


def test_orbit_event_path_runs_no_constructor(monkeypatch):
    cases = event_path_cases()
    want = [orbit(*case).events for case in cases]
    assert guarded_event_logs(monkeypatch, cases) == want


def test_constructor_guard_trips_on_each_constructor(monkeypatch):
    """Negative control: a `point_of` that builds its Point by `Point(...)`
    fails the guard above, and so does an `orbit` that builds its events by
    `OrbitEvent(...)` at any one of its five sites (the start, the psi run
    loop, the psi replay, psi_star and the returns)."""
    cases = event_path_cases()

    def constructed_point_of(p):
        q = geometry.point_of(p)
        return Point(q.x, q.y)

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "point_of", constructed_point_of)
        with pytest.raises(AssertionError, match="constructor"):
            guarded_event_logs(monkeypatch, cases)
    site = "event(OrbitEvent, ("
    source = textwrap.dedent(inspect.getsource(dynamics.orbit))
    parts = source.split(site)
    assert len(parts) == 6
    for i in range(1, 6):
        namespace = dict(vars(dynamics))
        exec(site.join(parts[:i]) + "OrbitEvent(*(" + site.join(parts[i:]), namespace)
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "orbit", namespace["orbit"])
            with pytest.raises(AssertionError, match="constructor"):
                guarded_event_logs(monkeypatch, cases)


# pinwheel_theorem_step on the lattice against the Point route
# (`oracles.point_route_theorem_step`)


def _lattice_theorem_step(model, p):
    """pinwheel_theorem_step on p's triple, its orbit read as the step count."""
    q, orbit, a = pinwheel_theorem_step(model, model.polygon.homogeneous(p))
    return point_of(q), len(orbit), a


def _theorem_outcome(step, model, p):
    """repr of (psi(p), steps used, a), so that Fraction and QuadExt
    coordinates must agree in type too, or the error's class, point and
    stage."""
    try:
        return repr(step(model, p))
    except (MapUndefinedError, BudgetExceededError) as exc:
        return (type(exc).__name__, getattr(exc, "point", None), getattr(exc, "stage", None))


def _theorem_starts(model):
    """Two samples of every tile, and far starts over both fields."""
    rng = Rng(5).split(model.n)
    starts = []
    for t_i, tile in enumerate(model.partition.tiles):
        starts += map(point_of, tile_samples(model, tile, 2, rng.split(t_i)))
    R = ratio(*far_radius(model))
    for ux, uy in DIRECTIONS:
        p = Point(2 * R * ux / (abs(ux) + abs(uy)), 2 * R * uy / (abs(ux) + abs(uy)))
        starts += [p, Point(p.x + ROOT5 / 7, p.y)]
    return starts


def _halved_strip_model(model):
    """The model with strip 0 at half its width, as the halved-strip
    negative control builds it."""
    pair, *rest = model.system.pairs
    hacked = halved(pair)
    broken = BilliardModel(model.polygon)
    broken.system = PinwheelSystem(model.polygon, (hacked, *rest))
    return broken


def _boundary_starts(model):
    """Starts whose pinwheel orbit hits the far line of strip 0 at stage 0:
    in a tile whose path starts at spoke 0, strip 0 first moves p by +-V
    into the strip and is applied again there, so p on that line -+ V is a
    hit.  With the true strip the line is a wall and the tiles miss it.
    Each tile meets a translated line in a set without interior, which is
    no region: the Fourier-Motzkin oracle finds its ends and its ray."""
    pair = model.system.pair(0)
    a, b, c = (getattr(parallel_offset(pair.line, pair.width), k) for k in "abc")
    V = vec_of(pair.V)
    out = []
    for tile in model.partition.tiles:
        if model.path_of_tile(tile).start != 0:
            continue
        for v in (V, scale(V, -1)):
            shifted = line(a, b, c + dot(Vec(a, b), v))  # the far line moved by v
            empty, kept = fm_canonical(tile.region.constraints + (
                HalfPlane(shifted, Sense.GE), HalfPlane(shifted, Sense.LE)))
            ends = () if empty else fm_vertices(kept)
            if len(ends) == 2:
                out.append(add(ends[0], scale(sub(ends[1], ends[0]), Fraction(1, 3))))
            elif len(ends) == 1:
                out.append(add(ends[0], fm_recession_direction(kept)))
    return out


@pytest.mark.parametrize("poly_key", CORPUS)
def test_theorem_step_lattice_matches_point_route(poly_key):
    """pinwheel_theorem_step on lattice triples equals the Point route: the
    same (psi(p), steps, a) on tile and far samples over both fields and,
    with strip 0 halved (so its pair, not the polygon, must give the far
    line), the same strip-boundary hits and exceeded budgets."""
    model = BilliardModel(corpus_polygon(poly_key))
    halved = _halved_strip_model(model)
    seen = set()
    for m, starts in ((model, _theorem_starts(model)),
                      (halved, _theorem_starts(halved) + _boundary_starts(halved))):
        for p in starts:
            got = _theorem_outcome(_lattice_theorem_step, m, p)
            assert got == _theorem_outcome(point_route_theorem_step, m, p), p
            seen.add(got[0] if isinstance(got, tuple) else "mapped")
    assert {"mapped", "OnStripBoundaryError"} <= seen, seen


def test_theorem_parity_catches_dropped_rescale(monkeypatch):
    """Negative control: strip maps whose translate adds V's numerators
    without rescaling them from V's denominator q to L must fail the parity
    test."""
    real = strips.strip_map
    source = textwrap.dedent(inspect.getsource(real))
    rescale = "k = L // q"
    assert source.count(rescale) == 1
    namespace = dict(vars(strips))
    exec(source.replace(rescale, "k = 1"), namespace)
    for module in (strips, dynamics):
        assert vars(module)["strip_map"] is real
        monkeypatch.setattr(module, "strip_map", namespace["strip_map"])
    with pytest.raises(AssertionError):
        test_theorem_step_lattice_matches_point_route("n7")
