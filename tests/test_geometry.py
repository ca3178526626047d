"""Geometry kernel tests: lines, half-planes, convex regions, sampling."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from outerbilliards import geometry
from outerbilliards.errors import EmptyRegionError, UnboundedRegionError
from outerbilliards.geometry import (
    ConvexRegion,
    HalfPlane,
    Line,
    Location,
    Point,
    Sense,
    Vec,
    box_region,
    half_plane,
    polygon_region,
    pt,
    region,
    segments_intersect,
    vec,
)
from outerbilliards.rng import Rng
from outerbilliards.scalars import QuadExt, quad_sign, quadext, sign


def slab(a, b, lo, hi):
    return region([half_plane(a, b, lo, Sense.GE), half_plane(a, b, hi, Sense.LE)])


def test_signed_offset_axis_aligned():
    l = Line(0, 1, 0)  # y = 0
    assert l.signed_offset(pt(3, 5)) == 5
    assert l.signed_offset(pt(3, 0)) == 0


def test_signed_offset_uses_stored_coefficients():
    # offsets are evaluated on the coefficients as given (3x - y = 0)
    l = Line(3, -1, 0)
    assert l.signed_offset(pt(4, 0)) == 12


def test_line_equality_is_canonical():
    assert Line(3, -1, 0) == Line(1, Fraction(-1, 3), 0) == Line(-6, 2, 0)
    assert Line(3, -1, 0) != Line(3, -1, 1)
    assert hash(Line(2, 4, 6)) == hash(Line(1, 2, 3))


# ---------------------------------------------------------------------------
# Line.side against the Fraction/QuadExt oracle sign(signed_offset)

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
    return Line(a, b, a * p.x + b * p.y - offset), p


R5 = QuadExt(0, 1, 5)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(lines_and_points())
@example((Line(1, 0, 0), Point(2 - R5, Fraction(0))))  # -0.236: rational part +2
@example((Line(R5, 1, 0), Point(Fraction(-1), Fraction(2))))  # -sqrt5 + 2 < 0
@example((Line(R5, -2, 1), Point(3, -4)))  # int coordinates, quad line
@example((Line(1, 1, 3 + R5), Point(1 + R5, Fraction(2))))  # exactly on the line
@example((Line(Fraction(2, 3), Fraction(-5, 7), Fraction(1, 11)),
          Point(Fraction(3, 4), Fraction(-1, 6))))
def test_side_matches_offset_sign(line_and_point):
    line, p = line_and_point
    assert line.side(p) == sign(line.signed_offset(p))


def test_side_oracle_catches_dropped_radical_part(monkeypatch):
    """Negative control: a side that keeps only the rational part of its
    Q(sqrt d) integer sum must fail the oracle property."""
    monkeypatch.setattr(geometry, "quad_sign", lambda r, s, d: quad_sign(r, 0, d))
    with pytest.raises(AssertionError):
        test_side_matches_offset_sign()


def test_side_rejects_mixed_radicals_like_signed_offset():
    line = Line(QuadExt(0, 1, 5), 1, 0)
    p = Point(QuadExt(1, 1, 2), Fraction(0))
    with pytest.raises(ValueError):
        line.signed_offset(p)
    with pytest.raises(ValueError):
        line.side(p)
    with pytest.raises(ValueError):
        Line(QuadExt(0, 1, 5), QuadExt(0, 1, 2), 0)


def test_line_through_points():
    l = Line.through(pt(0, 0), pt(1, 3))
    assert l.signed_offset(pt(2, 6)) == 0
    assert l.signed_offset(pt(0, 1)) != 0


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
    assert r.area() == 48


def test_region_area_unit_square_and_empty():
    sq = box_region(0, 0, 1, 1)
    assert sq.area() == 1
    assert ConvexRegion.empty().area() == 0


def test_region_area_parallelogram_48():
    r = polygon_region([pt(0, 0), pt(2, 6), pt(10, 6), pt(8, 0)])
    assert r.area() == 48  # base 8, height 6


def test_region_area_unbounded_raises():
    with pytest.raises(UnboundedRegionError):
        slab(0, 1, 0, 6).area()


def test_region_contains_classification():
    sq = box_region(0, 0, 1, 1)
    assert sq.contains(pt(Fraction(1, 2), Fraction(1, 2))) is Location.INTERIOR
    assert sq.contains(pt(0, Fraction(1, 2))) is Location.BOUNDARY
    assert sq.contains(pt(2, 0)) is Location.OUTSIDE
    open_sq = region([h.strictened() for h in sq.constraints])
    assert open_sq.contains(pt(0, Fraction(1, 2))) is Location.BOUNDARY
    assert open_sq.contains(pt(-1, 5)) is Location.OUTSIDE


def test_whole_plane_and_boundedness():
    plane = ConvexRegion.whole_plane()
    assert not plane.is_bounded()
    assert plane.contains(pt(100, -3)) is Location.INTERIOR
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
    assert left.area() + right.area() == outer.area()


def test_translate_and_point_reflect():
    sq = box_region(0, 0, 1, 1)
    moved = sq.translate(vec(3, -2))
    assert moved == box_region(3, -2, 4, -1)
    refl = sq.point_reflect(pt(0, 0))
    assert refl == box_region(-1, -1, 0, 0)
    assert sq.translate(vec(1, 1)).area() == sq.area()


def test_sample_points_interior_and_deterministic():
    sq = box_region(0, 0, 1, 1)
    pts = sq.sample_points(3, seed=7)
    assert len(pts) == 3
    for p in pts:
        assert sq.contains(p) is Location.INTERIOR
    assert pts == sq.sample_points(3, seed=7)
    assert pts != sq.sample_points(3, seed=8)


def test_sample_points_empty_region_errors():
    with pytest.raises(EmptyRegionError):
        ConvexRegion.empty().sample_points(1, seed=0)


def test_sample_points_unbounded_needs_clip():
    half = region([half_plane(0, 1, 0, Sense.GT)])
    with pytest.raises(ValueError):
        half.sample_points(2, seed=1)
    pts = half.sample_points(5, seed=1, clip=box_region(-10, -10, 10, 10))
    for p in pts:
        assert 0 < p.y <= 10
        assert -10 <= p.x <= 10


def test_polygon_region_open_vs_closed():
    tri = [pt(0, 0), pt(1, 3), pt(4, 0)]
    closed = polygon_region(tri)
    opened = polygon_region(tri, open_region=True)
    assert closed.contains(pt(2, 0)) is Location.BOUNDARY
    assert opened.contains(pt(2, 0)) is Location.BOUNDARY
    assert closed.contains(pt(1, 1)) is Location.INTERIOR
    assert closed.area() == opened.area() == 6


def test_segments_intersect():
    assert segments_intersect(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
    assert segments_intersect(pt(0, 0), pt(2, 2), pt(1, 1), pt(5, 5))
    assert segments_intersect(pt(0, 0), pt(1, 1), pt(1, 1), pt(2, 0))
    assert not segments_intersect(pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3))
    assert not segments_intersect(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1))


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
            assert diag.area() <= b.area()
