"""Geometry kernel tests: lines, half-planes, convex regions, sampling."""

import inspect
import math
import textwrap
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fm_oracle import (
    fm_canonical,
    fm_has_interior,
    fm_interior_point,
    fm_recession_direction,
    fm_sample_points,
    fm_vertices,
)
from oracles import (add, half_plane, hp_key, line, line_intersection,
                     parallel_offset, per_call_key, per_call_region_key, pt, region_area, scale,
                     side, signed_offset, strip_region, vec)
from test_billiards import CORPUS, corpus_polygon
from outerbilliards import geometry, scalars
from outerbilliards.errors import EmptyRegionError
from outerbilliards.geometry import (
    ConvexRegion,
    HalfPlane,
    Line,
    Point,
    Sense,
    Vec,
    box_region,
    homogeneous,
    lifted,
    moved,
    point_of,
    polygon_region,
    region,
)
from outerbilliards.model import BilliardModel
from outerbilliards.rng import Rng
from outerbilliards.scalars import QuadExt, QuadInt, quadext, ratio, sign

# a closed sense and its strict counterpart
STRICT = {Sense.GE: Sense.GT, Sense.LE: Sense.LT}


def slab(a, b, lo, hi):
    return region([half_plane(a, b, lo, Sense.GE), half_plane(a, b, hi, Sense.LE)])


def test_signed_offset_axis_aligned():
    l = line(0, 1, 0)  # y = 0
    assert signed_offset(l, pt(3, 5)) == 5
    assert signed_offset(l, pt(3, 0)) == 0


def test_signed_offset_uses_stored_coefficients():
    # offsets are evaluated on the coefficients as given (3x - y = 0)
    l = line(3, -1, 0)
    assert signed_offset(l, pt(4, 0)) == 12


def test_half_plane_equality_is_canonical():
    """Half-planes on rescaled writings of one line, the sense flipped where
    the factor is negative, are equal with one hash; a parallel line's are
    not.  The lines themselves are records: equal when they print alike."""
    same = [half_plane(3, -1, 0, Sense.GE), half_plane(1, Fraction(-1, 3), 0, Sense.GE),
            half_plane(-6, 2, 0, Sense.LE)]
    _assert_same_classes(same + [half_plane(3, -1, 1, Sense.GE)], hp_key)
    assert hash(half_plane(2, 4, 6, Sense.GT)) == hash(half_plane(1, 2, 3, Sense.GT))
    assert line(3, -1, 0) != line(-6, 2, 0) and line(1, Fraction(1, 2), 0) == Line((2, 1, 0), 2)


def test_opposite_half_planes_are_unequal():
    """x > 2 and x < 2 on the same line, written with opposite signs, are
    different half-planes with different forms; three writings of x > 2
    (doubled, negated with the sense flipped, over the scale 3) are one
    half-plane, with one hash."""
    above = HalfPlane(Line((1, 0, 2), 1), Sense.GT)
    below = HalfPlane(Line((-1, 0, -2), 1), Sense.GT)
    assert above != below and above.form != below.form
    writings = [HalfPlane(Line((2, 0, 4), 1), Sense.GT), HalfPlane(Line((-1, 0, -2), 1), Sense.LT),
                HalfPlane(Line((1, 0, 2), 3), Sense.GT)]
    assert all(h == above and hash(h) == hash(above) for h in writings)
    assert len({above, below, *writings}) == 2


def test_line_has_no_scalar_constructor():
    """`Line((A, B, C), s)` is the one way to build a line: a scalar call is a TypeError."""
    with pytest.raises(TypeError):
        Line(3, -1, 0)
    assert Line((3, -1, 0), 1) == line(3, -1, 0)


# ---------------------------------------------------------------------------
# HalfPlane.contains and the integer-form `side` oracle against the
# Fraction/QuadExt oracle sign(signed_offset)

RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
SQRT5 = st.builds(lambda a, b: quadext(a, b, 5), RATIONALS, RATIONALS)
COEFFS = st.one_of(RATIONALS, SQRT5)
COORDS = st.one_of(RATIONALS, st.integers(-50, 50), SQRT5)


@st.composite
def lines_and_points(draw):
    """A line over Q or Q(sqrt 5) and a point over Q, Z or Q(sqrt 5); the
    offset is drawn too, so points exactly on the line come up often."""
    a, b = draw(COEFFS), draw(COEFFS)
    if a == 0 and b == 0:
        a = Fraction(1)
    p = Point(draw(COORDS), draw(COORDS))
    offset = draw(st.one_of(st.just(0), COEFFS))
    return line(a, b, a * p.x + b * p.y - offset), p


R5 = QuadExt(0, 1, 5)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(lines_and_points())
@example((line(1, 0, 0), Point(2 - R5, Fraction(0))))  # -0.236: rational part +2
@example((line(R5, 1, 0), Point(Fraction(-1), Fraction(2))))  # -sqrt5 + 2 < 0
@example((line(R5, -2, 1), Point(3, -4)))  # int coordinates, quad line
@example((line(1, 1, 3 + R5), Point(1 + R5, Fraction(2))))  # exactly on the line
@example((line(Fraction(2, 3), Fraction(-5, 7), Fraction(1, 11)),
          Point(Fraction(3, 4), Fraction(-1, 6))))
def test_side_matches_offset_sign(line_and_point):
    """A half-plane of each sense on the line contains p exactly as the sign
    of p's scalar offset says, and so does the `side` oracle."""
    line, p = line_and_point
    here, s = homogeneous(p), sign(signed_offset(line, p))
    assert [HalfPlane(line, sense).contains(here) for sense in Sense] == [
        s >= 0, s > 0, s <= 0, s < 0]
    assert side(line, here) == s


def _numerator_parts(X):
    """The int parts of a lattice coordinate: X itself, or a QuadInt's r and s."""
    return [X] if type(X) is int else [X.r, X.s]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.builds(Point, COORDS, COORDS), st.integers(1, 60))
@example(Point(Fraction(1, 6), Fraction(-5, 4)), 10)  # L = 60, not the product 240
@example(Point(R5 / 3, Fraction(2, 9)), 1)  # a Q(sqrt 5) coordinate over 3
def test_homogeneous_is_the_least_lattice_triple(p, den):
    """`homogeneous(p, den)` is an exact triple (X, Y, L) with den | L, and
    the least one: no prime q of L leaves den | L/q with q dividing every
    int part of X and Y.  Dividing it out gives p back."""
    X, Y, L = homogeneous(p, den)
    assert type(L) is int and L > 0 and L % den == 0
    parts = _numerator_parts(X) + _numerator_parts(Y)
    assert all(type(t) is int for t in parts)
    rest, q = L, 2
    while rest > 1:  # q runs over the primes of L
        if rest % q:
            q += 1
            continue
        assert (L // q) % den or any(t % q for t in parts), (p, den, q)
        while rest % q == 0:
            rest //= q
    assert point_of((X, Y, L)) == p


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.builds(Point, COORDS, COORDS), st.builds(Vec, COORDS, COORDS), st.integers(-3, 3))
@example(Point(Fraction(1, 6), Fraction(0)), Vec(Fraction(1, 2), Fraction(1)), 1)  # L // q = 3
@example(Point(R5 / 3, Fraction(2, 9)), Vec(R5 / 2, Fraction(-1, 3)), -2)
def test_moved_adds_k_times_the_vector(p, v, k):
    """`moved` takes p's triple on a lattice v's denominator divides to the
    triple of p + k*v over the same L."""
    here, shift = homogeneous(p, homogeneous(v)[2]), homogeneous(v)
    there = moved(here, shift, k)
    assert there[2] == here[2]
    assert point_of(there) == add(p, scale(v, k))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.builds(Point, COORDS, COORDS), st.integers(1, 60), st.integers(1, 12))
@example(Point(R5 / 3, Fraction(2, 9)), 4, 6)
def test_lifted_is_homogeneous_of_point_of(p, den, k):
    """`lifted` reduces any multiple of p's triple and lifts it onto den:
    the triple `homogeneous(p, den)`, int and QuadInt types included."""
    X, Y, L = homogeneous(p)
    assert repr(lifted((k * X, k * Y, k * L), den)) == repr(homogeneous(p, den))


@pytest.mark.parametrize("triple, want", [
    ((6, -9, 12), (Fraction(1, 2), Fraction(-3, 4))),  # a common factor
    ((-35, 14, 21), (Fraction(-5, 3), Fraction(2, 3))),  # negative X
    ((QuadInt(4, 0, 5), QuadInt(-6, 0, 5), 8), (Fraction(1, 2), Fraction(-3, 4))),
    ((10, QuadInt(6, -4, 5), 4), (Fraction(5, 2), QuadExt(Fraction(3, 2), -1, 5))),
    ((QuadInt(-9, 3, 5), -4, 6), (QuadExt(Fraction(-3, 2), Fraction(1, 2), 5), Fraction(-2, 3))),
])
def test_point_of_divides_out_in_lowest_terms(triple, want):
    """`point_of` agrees with `ratio` per coordinate on int, QuadInt and mixed
    triples: a QuadInt with no sqrt part comes out a Fraction, and every
    numerator is prime to its positive denominator."""
    X, Y, L = triple
    got = point_of(triple)
    assert got == Point(ratio(X, L), ratio(Y, L)) == Point(*want)
    for value, expected in zip((got.x, got.y), want):
        assert type(value) is type(expected)
        num, den = value.as_integer_ratio()
        parts = (num.r, num.s) if type(num) is QuadInt else (num,)
        assert den > 0 and math.gcd(*parts, den) == 1


def test_side_oracle_catches_dropped_radical_part(monkeypatch):
    """Negative control: a `least_sign` (behind `HalfPlane.contains`) that
    keeps only the rational part of its Q(sqrt d) integer sum must fail the
    oracle property.  The sum is a QuadInt whose sign `least_sign` reads
    once; the oracle's QuadExt signs go through `QuadInt.sign` too, so
    `least_sign` itself is mutated, not the type."""
    source = textwrap.dedent(inspect.getsource(geometry.least_sign))
    assert source.count("t.sign()") == 1
    namespace = dict(vars(geometry))
    exec(source.replace("t.sign()", "(t.r > 0) - (t.r < 0)"), namespace)
    monkeypatch.setattr(geometry, "least_sign", namespace["least_sign"])
    with pytest.raises(AssertionError):
        test_side_matches_offset_sign()


def test_side_rejects_mixed_radicals_like_signed_offset():
    ln = line(QuadExt(0, 1, 5), 1, 0)
    p = Point(QuadExt(1, 1, 2), Fraction(0))
    with pytest.raises(ValueError):
        signed_offset(ln, p)
    with pytest.raises(ValueError):
        HalfPlane(ln, Sense.GE).contains(homogeneous(p))
    with pytest.raises(ValueError):
        side(ln, homogeneous(p))
    with pytest.raises(ValueError):
        line(QuadExt(0, 1, 5), QuadExt(0, 1, 2), 0)


def test_region_intersect_idempotent():
    r1 = slab(0, 1, 0, 6)
    r2 = slab(0, 1, 0, 6)
    assert r1.intersect(r2) == r1


def test_region_intersect_disjoint_is_empty():
    r1 = region([half_plane(0, 1, 0, Sense.GT)])
    r2 = region([half_plane(0, 1, 0, Sense.LT)])
    r = r1.intersect(r2)
    assert r.is_empty
    assert r == ConvexRegion.empty()


def test_region_intersect_parallelogram_vertices():
    # {0 <= y <= 6} cut with {0 <= 3x - y <= 24}: solving the four boundary
    # pairs by hand gives (0,0), (2,6), (10,6), (8,0)
    r = slab(0, 1, 0, 6).intersect(slab(3, -1, 0, 24))
    assert r.is_bounded()
    vs = r.vertices()
    assert set(vs) == {pt(0, 0), pt(2, 6), pt(10, 6), pt(8, 0)}
    assert vs[0] == pt(0, 0)  # deterministic start
    assert region_area(r) == 48


def test_region_area_unit_square_and_empty():
    sq = box_region(0, 0, 1, 1)
    assert region_area(sq) == 1
    assert region_area(ConvexRegion.empty()) == 0


def test_region_area_parallelogram_48():
    r = polygon_region([pt(0, 0), pt(2, 6), pt(10, 6), pt(8, 0)])
    assert region_area(r) == 48  # base 8, height 6


def test_sense_flipped_is_an_involution():
    """flipped pairs each bound with the opposite bound of the same
    strictness, and undoes itself."""
    assert {s: s.flipped() for s in Sense} == {Sense.GE: Sense.LE, Sense.LE: Sense.GE,
                                               Sense.GT: Sense.LT, Sense.LT: Sense.GT}
    for s in Sense:
        assert s.flipped().flipped() is s
        assert s.flipped().strict == s.strict and s.flipped().upper != s.upper


def test_region_area_unbounded_raises():
    with pytest.raises(ValueError):
        region_area(slab(0, 1, 0, 6))


def test_region_contains_classification():
    sq = box_region(0, 0, 1, 1)
    assert sq.contains(homogeneous(pt(Fraction(1, 2), Fraction(1, 2)))) == 1
    assert sq.contains(homogeneous(pt(0, Fraction(1, 2)))) == 0
    assert sq.contains(homogeneous(pt(2, 0))) == -1
    open_sq = region([HalfPlane(h.line, STRICT[h.sense]) for h in sq.constraints])
    assert open_sq.contains(homogeneous(pt(0, Fraction(1, 2)))) == 0
    assert open_sq.contains(homogeneous(pt(-1, 5))) == -1


def test_whole_plane_and_boundedness():
    plane = ConvexRegion.whole_plane()
    assert not plane.is_bounded()
    assert plane.contains(homogeneous(pt(100, -3))) == 1
    assert box_region(-1, -1, 1, 1).is_bounded()
    assert not slab(0, 1, 0, 1).is_bounded()
    assert not region([half_plane(1, 0, 0, Sense.GE),
                       half_plane(0, 1, 0, Sense.GE)]).is_bounded()


def test_redundant_constraints_removed():
    r = region([
        half_plane(1, 0, 0, Sense.GE),
        half_plane(1, 0, -5, Sense.GE),  # implied by x >= 0
        half_plane(1, 0, 1, Sense.LE),
        half_plane(0, 1, 0, Sense.GE),
        half_plane(0, 1, 1, Sense.LE),
    ])
    assert len(r.constraints) == 4
    assert r == box_region(0, 0, 1, 1)


def test_intersect_commutative_associative():
    a = slab(0, 1, 0, 6)
    b = slab(3, -1, 0, 24)
    c = box_region(-100, -100, 100, 100)
    assert a.intersect(b) == b.intersect(a)
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


def test_split_additivity_of_area():
    outer = box_region(0, 0, 4, 2)
    left = outer.intersect(region([half_plane(1, 0, 1, Sense.LE)]))
    right = outer.intersect(region([half_plane(1, 0, 1, Sense.GE)]))
    assert region_area(left) + region_area(right) == region_area(outer)


def test_translate_and_point_reflect():
    sq = box_region(0, 0, 1, 1)
    moved = sq.translate(homogeneous(vec(3, -2)))
    assert moved == box_region(3, -2, 4, -1)
    refl = sq.point_reflect(homogeneous(pt(0, 0)))
    assert refl == box_region(-1, -1, 0, 0)
    assert region_area(sq.translate(homogeneous(vec(1, 1)))) == region_area(sq)


def test_sample_points_interior_and_deterministic():
    sq = box_region(0, 0, 1, 1)
    pts = sq.sample_points(3, seed=7)
    assert len(pts) == 3
    for p in pts:
        assert sq.contains(p) == 1
    assert pts == sq.sample_points(3, seed=7)
    assert pts != sq.sample_points(3, seed=8)


def test_sample_points_empty_region_errors():
    with pytest.raises(EmptyRegionError):
        ConvexRegion.empty().sample_points(1, seed=0)


def test_sample_points_unbounded_needs_clip():
    half = region([half_plane(0, 1, 0, Sense.GT)])
    with pytest.raises(ValueError):
        half.sample_points(2, seed=1)
    pts = half.intersect(box_region(-10, -10, 10, 10)).sample_points(5, seed=1)
    for p in map(point_of, pts):
        assert 0 < p.y <= 10
        assert -10 <= p.x <= 10


def test_polygon_region_open_vs_closed():
    tri = [pt(0, 0), pt(1, 3), pt(4, 0)]
    closed = polygon_region(tri)
    opened = polygon_region(tri, open_region=True)
    assert closed.contains(homogeneous(pt(2, 0))) == 0
    assert opened.contains(homogeneous(pt(2, 0))) == 0
    assert closed.contains(homogeneous(pt(1, 1))) == 1
    assert region_area(closed) == region_area(opened) == 6


def test_random_region_properties():
    rng = Rng(31).split(5)
    for i in range(40):
        x0 = rng.int_range(4 * i, -10, 5)
        y0 = rng.int_range(4 * i + 1, -10, 5)
        w = rng.int_range(4 * i + 2, 1, 12)
        h = rng.int_range(4 * i + 3, 1, 12)
        b = box_region(x0, y0, x0 + w, y0 + h)
        cut = b.intersect(slab(1, 1, x0 + y0, x0 + y0 + w + h))
        assert cut == b  # the diagonal slab covers the whole box
        diag = b.intersect(slab(1, 1, x0 + y0, x0 + y0 + 1))
        if not diag.is_empty:
            assert diag.is_bounded()
            assert region_area(diag) <= region_area(b)


# ---------------------------------------------------------------------------
# the edge-interval kernel against the Fourier-Motzkin oracle

SMALL = st.integers(-3, 3)
KERNEL_COEFFS = st.one_of(SMALL.map(Fraction),
                          st.builds(lambda p, q: quadext(p, q, 5), SMALL, st.integers(1, 2)))
KINDS = ["fresh"] * 4 + ["duplicate"] * 2 + ["opposite"] + ["parallel"] * 2 + ["vertex"] * 3
TOGGLE_STRICT = {Sense.GE: Sense.GT, Sense.GT: Sense.GE,
                 Sense.LE: Sense.LT, Sense.LT: Sense.LE}


@st.composite
def halfplane_sets(draw):
    """1-12 half-planes over Z or Q(sqrt 5): fresh lines, duplicates (rescaled,
    possibly flipped or with the other strictness), opposite and parallel
    copies, and lines through the crossing of two earlier lines.  Fresh,
    parallel and crossing lines mostly keep the origin on their closed side,
    so that bounded regions come up often."""
    hps = []
    origin = pt(0, 0)
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(KINDS)) if hps else "fresh"
        base = draw(st.sampled_from(hps)) if hps else None
        if kind == "duplicate":
            k = draw(st.sampled_from([1, 2, Fraction(1, 3), -1, -2]))
            ln = line(base.line.a * k, base.line.b * k, base.line.c * k)
            sense = base.sense if k > 0 else base.sense.flipped()
            if draw(st.booleans()):
                sense = TOGGLE_STRICT[sense]
            hps.append(HalfPlane(ln, sense))
            continue
        if kind == "opposite":
            sense = base.sense.flipped()
            if draw(st.booleans()):
                sense = TOGGLE_STRICT[sense]
            hps.append(HalfPlane(base.line, sense))
            continue
        a, b = draw(KERNEL_COEFFS), draw(KERNEL_COEFFS)
        a = a if a != 0 or b != 0 else Fraction(1)
        if kind == "fresh":
            ln = line(a, b, draw(KERNEL_COEFFS))
        elif kind == "parallel":
            ln = line(base.line.a, base.line.b, base.line.c + draw(SMALL))
        else:
            p = line_intersection(base.line, draw(st.sampled_from(hps)).line) or origin
            ln = line(a, b, a * p.x + b * p.y)
        keep_origin = side(ln, homogeneous(origin)) >= 0
        if draw(st.sampled_from([False] * 5 + [True])):
            keep_origin = not keep_origin
        sense = Sense.GE if keep_origin else Sense.LE
        hps.append(HalfPlane(ln, STRICT[sense] if draw(st.booleans()) else sense))
    return hps


def _in_set(constraints, p):
    return all(h.contains(homogeneous(p)) for h in constraints)


def _probe_points(verts):
    """A grid plus the vertices and the midpoints of vertex pairs."""
    pts = [pt(Fraction(i, 2), Fraction(j, 2)) for i in range(-8, 9) for j in range(-8, 9)]
    return pts + [Point((u.x + v.x) / 2, (u.y + v.y) / 2) for u in verts for v in verts]


B = half_plane  # short name for the examples below
BOX = [B(1, 0, 0, Sense.GE), B(1, 0, 2, Sense.LE), B(0, 1, 0, Sense.GE), B(0, 1, 2, Sense.LE)]


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          report_multiple_bugs=False)
@given(halfplane_sets())
@example(BOX + [B(1, 1, 0, Sense.GE)])  # non-strict line through a vertex
@example(BOX + [B(1, 1, 0, Sense.GT)])  # strict: removes the vertex, kept
@example(BOX + [B(1, 2, 0, Sense.GT), B(1, 1, 0, Sense.GT)])  # two at one vertex
@example(BOX[1:] + [B(1, 0, 0, Sense.GT), B(1, 1, 0, Sense.GT)])  # edge already strict
@example([B(0, 1, 0, Sense.GE), B(0, 1, 0, Sense.LE), B(1, 0, 0, Sense.GE),
          B(1, 0, 1, Sense.LT)])  # a half-open segment
@example([B(1, 0, 0, Sense.GE), B(0, 1, 0, Sense.GE), B(1, 1, 0, Sense.LE),
          B(1, 0, 0, Sense.LE)])  # a point, one constraint redundant
@example([B(1, 0, 0, Sense.GT), B(0, 1, 0, Sense.GT), B(1, 1, 0, Sense.LT)])  # empty
@example([B(0, 1, 0, Sense.GE), B(0, 1, 0, Sense.LT)])  # opposite strict: empty
@example([B(0, 1, 0, Sense.GE), B(0, -2, 0, Sense.GE)])  # a whole line
@example([B(1, 0, 0, Sense.GE), B(1, 0, 3, Sense.LE), B(1, -1, 0, Sense.LE)])  # unbounded
def test_kernel_matches_fm_oracle(hps):
    r = region(hps)
    fm_empty, fm_kept = fm_canonical(hps)
    assert r.is_empty == fm_empty
    assert r.has_interior() == (not fm_empty and fm_has_interior(fm_kept))
    if fm_empty or r.has_interior():
        assert [id(h) for h in r.constraints] == [id(h) for h in fm_kept]
    else:  # no interior: the same point set, however it is written
        for p in _probe_points(r.vertices()):
            assert r.contains(homogeneous(p)) == ConvexRegion(fm_kept, False).contains(
                homogeneous(p))
            assert _in_set(r.constraints, p) == _in_set(fm_kept, p)
    assert r.vertices() == fm_vertices(fm_kept)
    if not r.has_interior():
        if not r.is_empty:
            with pytest.raises(EmptyRegionError):
                r.interior_point()
        return
    rng = Rng(5).split(1)
    for i in range(3):
        assert point_of(r.interior_point(rng, i)) == fm_interior_point(fm_kept, rng, i)
    assert point_of(r.interior_point()) == fm_interior_point(fm_kept)
    clip = box_region(-6, -6, 6, 6)
    if r.is_bounded():
        got = tuple(map(point_of, r.sample_points(3, seed=4)))
        assert got == fm_sample_points(fm_kept, 3, seed=4)
        return
    clip_empty, clipped = fm_canonical(fm_kept + clip.constraints)
    if clip_empty or not fm_has_interior(clipped):
        with pytest.raises(EmptyRegionError):
            r.intersect(clip).sample_points(3, seed=4)
    else:
        got = tuple(map(point_of, r.intersect(clip).sample_points(3, seed=4)))
        assert got == fm_sample_points(clipped, 3, seed=4)


@pytest.mark.parametrize("poly_key", CORPUS)
def test_tile_samples_match_fm_oracle(poly_key):
    """`sample_points`, integer weights over the vertices' lattice, draws
    the same points, of the same scalar types, as the Fraction route of
    `fm_sample_points` on every bounded forward tile, over Q and Q(sqrt 5);
    triangles have no bounded tile."""
    tiles = [t for t in BilliardModel(corpus_polygon(poly_key)).partition.tiles
             if not t.unbounded]
    assert tiles or len(corpus_polygon(poly_key).vertices) == 3
    for i, tile in enumerate(tiles):
        got = tuple(map(point_of, tile.region.sample_points(4, seed=i)))
        assert repr(got) == repr(fm_sample_points(tile.region.constraints, 4, seed=i))


def test_kernel_oracle_catches_kept_zero_length_edges(monkeypatch):
    """Negative control: a kernel that keeps constraints whose clip is a
    single point must fail the oracle property."""
    monkeypatch.setattr(geometry, "_has_length", lambda lo, up: True)
    with pytest.raises(AssertionError):
        test_kernel_matches_fm_oracle()


MOTIONS = {
    "as built": lambda r: r,
    "translated": lambda r: r.translate(homogeneous(vec(Fraction(5, 3), -2))),
    "translated by sqrt 5": lambda r: r.translate(
        homogeneous(Vec(QuadExt(1, 1, 5), Fraction(1, 2)))),
    "reflected": lambda r: r.point_reflect(homogeneous(pt(Fraction(1, 2), 3))),
    "reflected in sqrt 5": lambda r: r.point_reflect(
        homogeneous(Point(Fraction(-1), QuadExt(0, 1, 5)))),
}


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          report_multiple_bugs=False)
@given(halfplane_sets(), st.sampled_from(sorted(MOTIONS)))
@example(BOX[:3], "as built")  # a half-strip: its recession cone is one ray
@example([B(1, 1, 0, Sense.LE)], "reflected")  # a half-plane
@example([B(0, 1, 0, Sense.GE), B(0, 1, 1, Sense.LT)], "translated")  # a strip
@example([B(0, 1, 0, Sense.GE), B(0, 1, 0, Sense.LE), B(1, 0, 0, Sense.GE)], "as built")  # a ray
def test_stored_recession_matches_scan_oracle(hps, motion):
    """The boundedness and recession direction read off the stored rays
    equal the 1-D scans over all constraints, for regions as built and
    moved rigidly; a moved region keeps the canonical constraint order."""
    r = MOTIONS[motion](region(hps))
    want = None if r.is_empty else fm_recession_direction(r.constraints)
    got = r.recession_direction()
    assert repr(got and point_of(got)) == repr(want and Point(want.x, want.y))
    assert r.is_bounded() == (want is None)
    if motion != "as built" and r.has_interior():
        assert region(r.constraints).constraints == r.constraints


def test_stored_recession_oracle_catches_open_walk(monkeypatch):
    """Negative control: a kernel that calls a region bounded whenever its
    walk found a vertex, closed cycle or not, must fail the oracle property."""
    canonical = geometry._canonical

    def bounded_once_a_vertex(hps, forms):
        r = canonical(hps, forms)
        if not r.vertices():
            return r
        return ConvexRegion(r.constraints, r.is_empty, r.vertices(), r.has_interior())

    monkeypatch.setattr(geometry, "_canonical", bounded_once_a_vertex)
    with pytest.raises(AssertionError):
        test_stored_recession_matches_scan_oracle()


@pytest.mark.parametrize("n", [3, 5])
def test_build_partition_runs_kernel_once_per_region(n, monkeypatch):
    from outerbilliards.billiards import build_partition
    from outerbilliards.generate import random_nice_polygon

    poly = random_nice_polygon(n, seed=2)
    calls = []
    build = ConvexRegion.from_halfplanes

    def counted(halfplanes):
        calls.append(1)
        return build(halfplanes)

    monkeypatch.setattr(ConvexRegion, "from_halfplanes", staticmethod(counted))
    build_partition(poly)
    # n primary cones and n(n-1) tile intersections; the reflected cones
    # are rigid motions and do not run the kernel
    assert len(calls) == n + n * (n - 1)


@pytest.mark.parametrize("poly_key", CORPUS)
def test_moved_lines_equal_fresh_lines(poly_key):
    """`translate`, `point_reflect` and `parallel_offset` build each moved
    line from the old one's direction; it must equal the Line built from its
    coefficients: by ==, by hash, by integer form and by the side of every
    vertex of the moved region."""
    from outerbilliards.billiards import Chirality, build_partition

    poly = corpus_polygon(poly_key)
    moved = 0
    for chirality in Chirality:
        for tile in build_partition(poly, chirality).tiles:
            v = poly.vertices[tile.v_index]
            for r in (tile.region.translate(tile.translation),
                      tile.region.point_reflect(poly.homogeneous(v))):
                corners = [homogeneous(p) for p in r.vertices() + poly.vertices]
                for h in r.constraints:
                    for ln in (h.line, parallel_offset(h.line, v.x)):
                        fresh = line(ln.a, ln.b, ln.c)
                        assert ln == fresh and hash(ln) == hash(fresh)
                        assert ln.ints == fresh.ints
                        assert [side(ln, p) for p in corners] == [
                            side(fresh, p) for p in corners]
                        moved += 1
    assert moved > 0


# ---------------------------------------------------------------------------
# identity and order on primitive normal forms against the Fraction keys


def _assert_oracle_order(r):
    """The region lists its constraints in strictly increasing `hp_key`
    order (its oriented line over the leading |coefficient|)."""
    keys = [hp_key(h)[:3] for h in r.constraints]
    assert all(k < l for k, l in zip(keys, keys[1:])), keys


def _assert_same_classes(items, oracle_key):
    """`==` and `hash` split items into the classes that equality of
    `oracle_key` does."""
    classes = {}
    for x in items:
        classes.setdefault(oracle_key(x), []).append(x)
    for same in classes.values():
        assert all(x == same[0] and hash(x) == hash(same[0]) for x in same), same
    assert len(set(items)) == len(classes)


def _region_key(r):
    return ("empty",) if r.is_empty else tuple(map(hp_key, r.constraints))


@pytest.mark.parametrize("poly_key", CORPUS)
def test_tiles_and_strips_match_fraction_keys(poly_key):
    """Every tile of both partitions, with its translate and its point
    reflection, and every strip lists its constraints in the order of the
    Fraction key, and half-planes (each constraint, and each strip's two
    lines under both closed senses) and regions are equal exactly when
    their Fraction keys are."""
    from outerbilliards.billiards import Chirality, build_partition
    from outerbilliards.strips import build_pinwheel_system

    poly = corpus_polygon(poly_key)
    regions = []
    for chirality in Chirality:
        for tile in build_partition(poly, chirality).tiles:
            v = poly.vertices[tile.v_index]
            regions += [tile.region, tile.region.translate(tile.translation),
                        tile.region.point_reflect(poly.homogeneous(v))]
    system = build_pinwheel_system(poly)
    regions += [strip_region(system.pair(j)) for j in range(system.n)]
    for r in regions:
        _assert_oracle_order(r)
    half_planes = [h for r in regions for h in r.constraints]
    half_planes += [HalfPlane(line, sense) for pair in system.pairs
                    for line in (pair.line, parallel_offset(pair.line, pair.width))
                    for sense in (Sense.GE, Sense.LE)]
    _assert_same_classes(half_planes, hp_key)
    _assert_same_classes(regions, _region_key)


NONZERO = st.one_of(RATIONALS, SQRT5).filter(lambda k: k != 0)
R5_LINES = [line(R5, 1, 0), line(5, R5, 0), line(1 + R5, -2, R5), line(3, 3 - R5, 1)]


@st.composite
def rescaled_lines(draw):
    """1-4 lines over Q or Q(sqrt 5), each with copies rescaled by nonzero
    factors of either sign, rational or irrational, and a parallel copy."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        a, b, c = draw(COEFFS), draw(COEFFS), draw(COEFFS)
        a = a if a != 0 or b != 0 else draw(NONZERO)
        lines.append(line(a, b, c))
        for k in draw(st.lists(NONZERO, min_size=1, max_size=3)):
            lines.append(line(a * k, b * k, c * k))
        lines.append(line(a, b, c + 1))
    return lines


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          report_multiple_bugs=False)
@given(rescaled_lines(), st.lists(st.booleans(), min_size=20, max_size=20))
@example(R5_LINES + [line(2, 4, 6), line(1, 2, 3)], [False] * 20)
@example([line(1, R5, 2), line(-R5, -5, -2 * R5), line(3 + R5, 3 * R5 + 5, 6 + 2 * R5)],
         [True, False] * 10)
def test_rescaled_lines_match_fraction_keys(lines, flips):
    """Half-planes on rescaled copies of a line are equal to its own, with
    one hash, under each sense (flipped for a negative factor), and those on
    other lines are not, as for the Fraction key; the region of one closed
    half-plane per line (the origin kept on each closed side, or the other
    side where flipped) orders its constraints by the Fraction key, over Q
    and Q(sqrt 5) and for irrational leading coefficients."""
    _assert_same_classes([HalfPlane(line, sense) for line in lines for sense in Sense], hp_key)
    origin = homogeneous(pt(0, 0))
    hps = [HalfPlane(line, Sense.GE if (side(line, origin) >= 0) != flip else Sense.LE)
           for line, flip in zip(lines, flips)]
    r = region(hps)
    _assert_oracle_order(r)
    assert r == region(reversed(hps))


def _mutate_primitive(monkeypatch, *edits):
    source = textwrap.dedent(inspect.getsource(scalars.primitive))
    for old, new in edits:
        assert old in source
        source = source.replace(old, new)
    namespace = dict(vars(scalars))
    exec(source, namespace)
    monkeypatch.setattr(geometry, "primitive", namespace["primitive"])


def test_fraction_key_oracle_catches_dropped_gcd(monkeypatch):
    """Negative control: normal forms that keep their common factor must
    fail the oracle property."""
    _mutate_primitive(monkeypatch, ("math.gcd(", "1 or math.gcd("))
    with pytest.raises(AssertionError):
        test_rescaled_lines_match_fraction_keys()


def test_fraction_key_oracle_catches_skipped_conjugate(monkeypatch):
    """Negative control: over Q(sqrt d), normal forms whose leading entry
    is not made rational by its conjugate must fail the oracle property."""
    _mutate_primitive(monkeypatch, ("if type(lead) is QuadInt and lead.s:", "if False:"))
    with pytest.raises(AssertionError):
        test_rescaled_lines_match_fraction_keys()


# ---------------------------------------------------------------------------
# the kernel form a half-plane fixes at construction


POSITIVE = st.one_of(RATIONALS, SQRT5).filter(lambda k: k != 0).map(lambda k: k if k > 0 else -k)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(halfplane_sets(), POSITIVE)
@example([B(R5, 1, 0, Sense.LT), B(1 + R5, -2, R5, Sense.GE)], 3 - R5)
def test_form_is_the_oriented_primitive_form(hps, k):
    """`form` is the primitive form of the line's integer form, negated for
    LE and LT, then the strict flag; a positive multiple of the line gives
    the same form, the opposite sense the negated one."""
    for h in hps:
        want = scalars.primitive(*h.line.ints)
        if h.sense in (Sense.LE, Sense.LT):
            want = tuple(-x for x in want)
        assert h.form == want + (h.sense in (Sense.GT, Sense.LT),)
        a, b, c = h.line.a, h.line.b, h.line.c
        assert HalfPlane(line(a * k, b * k, c * k), h.sense).form == h.form
        (a, b, c, strict), flipped = h.form, HalfPlane(h.line, h.sense.flipped())
        assert flipped.form == (-a, -b, -c, strict)


def _corpus_tiles(poly_key):
    from outerbilliards.billiards import Chirality, build_partition

    poly = corpus_polygon(poly_key)
    return poly, [t for c in Chirality for t in build_partition(poly, c).tiles]


def _moved(poly, tiles):
    """Each tile's translate and point reflection, built from the tile's
    constraints without running the kernel."""
    return [r for t in tiles for r in (
        t.region.translate(t.translation),
        t.region.point_reflect(poly.homogeneous(poly.vertices[t.v_index])))]


def _assert_per_call_key_parity(regions):
    for r in regions:
        assert r.canonical_key() == per_call_region_key(r)
        assert all(h.form == per_call_key(h) for h in r.constraints)
    _assert_same_classes(regions, per_call_region_key)


@pytest.mark.parametrize("poly_key", CORPUS)
def test_canonical_key_matches_per_call_key(poly_key):
    """`canonical_key`, `==` and `hash` on the fixed forms agree with the
    primitive key once recomputed per call, on every corpus tile, its
    translate and its point reflection."""
    poly, tiles = _corpus_tiles(poly_key)
    _assert_per_call_key_parity([t.region for t in tiles] + _moved(poly, tiles))


def test_per_call_key_parity_catches_unnegated_upper_form(monkeypatch):
    """Negative control: forms that are not negated for an upper sense must
    fail the parity with the per-call key.  The tiles are built first, by
    the kernel; their translates and point reflections (a point reflection
    flips every sense) take the mutant forms."""
    poly, tiles = _corpus_tiles("n5")

    def unnegated(h):
        object.__setattr__(h, "form", scalars.primitive(*h.line.ints) + (h.sense.strict,))

    monkeypatch.setattr(HalfPlane, "__post_init__", unnegated)
    with pytest.raises(AssertionError):
        _assert_per_call_key_parity([t.region for t in tiles] + _moved(poly, tiles))
