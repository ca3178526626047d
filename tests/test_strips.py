"""Pinwheel pairs, spokes and strip maps."""

import inspect
import textwrap
from fractions import Fraction

import pytest

from oracles import (add, compose_strip_maps, cross, direction, halved, point_strip_jump,
                     point_strip_map, pt, region_area, scalar_location, scale, sigma_range,
                     signed_offset, slab_distance, strip_region, sub, vec)
from test_billiards import CORPUS, ROOT5, corpus_polygon
from outerbilliards import strips
from outerbilliards.errors import OnStripBoundaryError
from outerbilliards.geometry import Point, point_of, slope_angle_cmp, vec_of
from outerbilliards.polygon import NicePolygon
from outerbilliards.scalars import sign
from outerbilliards.strips import (
    PinwheelSystem,
    _assert_chain,
    build_pinwheel_system,
    strip_map,
)

TRIANGLE = NicePolygon.from_points([pt(0, 0), pt(1, 3), pt(4, 0)])
PENTAGON = NicePolygon.from_points(
    [pt(0, 0), pt(-1, 3), pt(2, 5), pt(5, 2), pt(4, -1)])


def triangle_system():
    return build_pinwheel_system(TRIANGLE)


def test_triangle_bottom_edge_pair():
    sys = triangle_system()
    p0 = sys.pair(0)  # smallest direction angle: the horizontal bottom edge
    assert TRIANGLE.vertices[p0.v_index] == pt(0, 0)  # head of the clockwise edge (4,0) -> (0,0)
    assert TRIANGLE.vertices[p0.w_index] == pt(1, 3)  # farthest vertex from y = 0
    assert vec_of(p0.V) == vec(2, 6)
    assert signed_offset(p0.line, pt(7, 0)) == 0
    assert signed_offset(p0.line, pt(0, 6)) == 6
    assert p0.width == 6         # strip {0 <= y <= 6}
    assert strip_region(p0).contains(TRIANGLE.homogeneous(pt(0, 3))) == 1
    assert strip_region(p0).contains(TRIANGLE.homogeneous(pt(123, 6))) == 0


def test_strips_sorted_by_slope_angle():
    for poly in (TRIANGLE, PENTAGON):
        sys = build_pinwheel_system(poly)
        dirs = []
        for p in sys.pairs:
            d = sub(poly.vertices[(p.edge_index + 1) % poly.n], poly.vertices[p.edge_index])
            dirs.append((d.x, d.y))
        for i in range(len(dirs) - 1):
            assert slope_angle_cmp(dirs[i], dirs[i + 1]) < 0


def test_head_on_centerline_and_slab_spanning():
    for poly in (TRIANGLE, PENTAGON):
        sys = build_pinwheel_system(poly)
        for p in sys.pairs:
            v, w = poly.vertices[p.v_index], poly.vertices[p.w_index]
            assert signed_offset(p.line, w) == p.width / 2  # w equidistant from L and L'
            assert signed_offset(p.line, v) == 0            # tail on the edge line
            # translation by V carries L onto L'
            assert signed_offset(p.line, add(v, vec_of(p.V))) == p.width


def test_consecutive_spokes_share_vertex():
    for poly in (TRIANGLE, PENTAGON):
        sys = build_pinwheel_system(poly)
        for j in range(sys.n):
            s, t = sys.pair(j), sys.pair(j + 1)
            assert {s.v_index, s.w_index} & {t.v_index, t.w_index}


def test_chain_assert_trips_on_spokes_sharing_no_vertex():
    sys = build_pinwheel_system(PENTAGON)
    # spokes 0 and 2 of the pentagon share no vertex; swapping pairs 1 and 2
    # makes them neighbours
    s, t = sys.pair(0), sys.pair(2)
    assert not {s.v_index, s.w_index} & {t.v_index, t.w_index}
    swapped = PinwheelSystem(PENTAGON, tuple(sys.pair(i) for i in (0, 2, 1, 3, 4)))
    with pytest.raises(AssertionError, match="spokes 0 and 1 share no vertex"):
        _assert_chain(swapped)


def test_edge_spoke_bijection():
    for poly in (TRIANGLE, PENTAGON):
        sys = build_pinwheel_system(poly)
        assert len({(s.v_index, s.w_index) for s in sys.pairs}) == sys.n
        assert sorted(p.edge_index for p in sys.pairs) == list(range(poly.n))


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Exact closed-segment intersection test."""

    def orient(a: Point, b: Point, c: Point) -> int:
        return sign(cross(sub(b, a), sub(c, a)))

    def on_seg(a: Point, b: Point, c: Point) -> bool:
        if orient(a, b, c) != 0:
            return False
        return (min(a.x, b.x) <= c.x <= max(a.x, b.x)
                and min(a.y, b.y) <= c.y <= max(a.y, b.y))

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True
    return (on_seg(p1, p2, q1) or on_seg(p1, p2, q2)
            or on_seg(q1, q2, p1) or on_seg(q1, q2, p2))


def test_segments_intersect():
    assert segments_intersect(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
    assert segments_intersect(pt(0, 0), pt(2, 2), pt(1, 1), pt(5, 5))
    assert segments_intersect(pt(0, 0), pt(1, 1), pt(1, 1), pt(2, 0))
    assert not segments_intersect(pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3))
    assert not segments_intersect(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1))


def test_any_two_spokes_intersect():
    for poly in (TRIANGLE, PENTAGON):
        sys = build_pinwheel_system(poly)
        for i in range(sys.n):
            for j in range(i + 1, sys.n):
                a, b = sys.pair(i), sys.pair(j)
                vs = poly.vertices
                assert segments_intersect(vs[a.v_index], vs[a.w_index],
                                          vs[b.v_index], vs[b.w_index])


def test_spoke_slope_order_compatible_with_strip_order():
    for poly in (TRIANGLE, PENTAGON):
        sys = build_pinwheel_system(poly)
        n = sys.n
        # sort spokes by slope angle; the result must be a rotation of 0..n-1
        import functools
        spoke = [(w.x - v.x, w.y - v.y) for p in sys.pairs
                 for v, w in [(poly.vertices[p.v_index], poly.vertices[p.w_index])]]
        order = sorted(range(n), key=functools.cmp_to_key(
            lambda i, j: slope_angle_cmp(spoke[i], spoke[j])))
        shift = order.index(0)
        rotated = order[shift:] + order[:shift]
        assert rotated == list(range(n))


def test_strip_map_fixed_inside():
    sys = triangle_system()
    assert point_of(strip_map(sys.pair(0), TRIANGLE.homogeneous(pt(1, 3)))) == pt(1, 3)


def test_strip_map_one_step_closer_entering():
    sys = triangle_system()
    # offset -1: candidates +V gives 5 (inside), -V gives -7; closer wins
    assert point_of(strip_map(sys.pair(0), TRIANGLE.homogeneous(pt(0, -1)))) == pt(2, 5)


def test_strip_map_one_step_closer_still_outside():
    sys = triangle_system()
    # offset 13: -V gives 7 (distance 1, still outside), +V gives 19
    assert point_of(strip_map(sys.pair(0), TRIANGLE.homogeneous(pt(0, 13)))) == pt(-2, 7)


def test_strip_map_boundary_is_error():
    sys = triangle_system()
    with pytest.raises(OnStripBoundaryError):
        strip_map(sys.pair(0), TRIANGLE.homogeneous(pt(5, 0)))
    with pytest.raises(OnStripBoundaryError):
        strip_map(sys.pair(0), TRIANGLE.homogeneous(pt(5, 6)))


def test_strip_map_contracts_offset_distance():
    sys = build_pinwheel_system(PENTAGON)
    for j in range(sys.n):
        pair = sys.pair(j)
        p = pt(31, 47)
        guard = 0
        while pair.location(PENTAGON.homogeneous(p)) != 1:
            d_before = slab_distance(pair, p)
            p = point_of(strip_map(pair, PENTAGON.homogeneous(p)))
            d_after = slab_distance(pair, p)
            # the offset moves by exactly one width toward the slab
            assert d_after == max(d_before - pair.width, 0)
            assert d_after < d_before
            guard += 1
            assert guard < 100


def test_compose_single_stage_when_a_equals_b():
    sys = triangle_system()
    p = pt(0, -1)
    assert compose_strip_maps(sys, 0, 0, p) == point_of(
        strip_map(sys.pair(0), TRIANGLE.homogeneous(p)))


def test_compose_fixes_point_interior_to_all_strips():
    sys = build_pinwheel_system(PENTAGON)
    inner = pt(2, 2)  # interior of the polygon lies inside every strip
    for j in range(sys.n):
        assert sys.pair(j).location(PENTAGON.homogeneous(inner)) == 1
    assert compose_strip_maps(sys, 0, sys.n - 1, inner) == inner


def test_compose_matches_stepwise_loop():
    sys = triangle_system()
    p = pt(Fraction(37, 5), Fraction(-22, 7))
    manual = p
    for i in (0, 1, 2):
        manual = point_of(strip_map(sys.pair(i), TRIANGLE.homogeneous(manual)))
    assert compose_strip_maps(sys, 0, 2, p) == manual


def test_compose_wraps_indices():
    sys = triangle_system()
    p = pt(Fraction(19, 3), Fraction(14, 5))
    manual = point_of(strip_map(sys.pair(2), TRIANGLE.homogeneous(p)))
    manual = point_of(strip_map(sys.pair(0), TRIANGLE.homogeneous(manual)))
    assert compose_strip_maps(sys, 2, 0, p) == manual


def test_sigma_range_whole_plane_when_equal():
    sys = triangle_system()
    r = sigma_range(sys, 1, 1)
    assert not r.is_empty
    assert len(r.constraints) == 0


def test_sigma_range_single_strip():
    sys = triangle_system()
    assert sigma_range(sys, 0, 1) == strip_region(sys.pair(0))


def test_sigma_range_parallelogram_area_48():
    sys = triangle_system()
    r = sigma_range(sys, 0, 2)  # strips 0 and 1
    assert r.is_bounded()
    assert region_area(r) == 48


def test_next_vector_spans_previous_strip_exactly():
    # the translation of strip j+1 crosses strip j corner to corner, which is
    # what forces a strip-map step to leave the previous strip in one move
    from outerbilliards.generate import random_nice_polygon

    for poly in (TRIANGLE, PENTAGON, random_nice_polygon(6, 31),
                 random_nice_polygon(7, 8)):
        sys = build_pinwheel_system(poly)
        for j in range(sys.n):
            pj, nxt = sys.pair(j), sys.pair(j + 1)
            V = vec_of(nxt.V)
            delta = pj.line.a * V.x + pj.line.b * V.y
            assert abs(delta) == pj.width


def test_compose_reports_failing_stage():
    sys = triangle_system()
    # (5, 0) sits on the boundary of strip 0, so stage 0 must be blamed
    with pytest.raises(OnStripBoundaryError) as err:
        compose_strip_maps(sys, 0, 2, pt(5, 0))
    assert err.value.stage == 0


def test_strip_widths_double_minimal_strip():
    # the slab is twice as fat as the minimal polygon-supporting slab
    for poly in (TRIANGLE, PENTAGON):
        sys = build_pinwheel_system(poly)
        for p in sys.pairs:
            farthest = max(signed_offset(p.line, v) for v in poly.vertices)
            assert p.width == 2 * farthest


# the strip's one (t, w) form against the two-line oracles


def _strip_form_points(polygon, pair):
    """Points on both lines, strictly inside, outside on either side and at
    exact multiples of the width, near and far, at three places along the
    edge, each beside a Q(sqrt 5) twin: `step` moves the offset by one
    width."""
    line, V = pair.line, vec_of(pair.V)
    step = scale(V, pair.width / (line.a * V.x + line.b * V.y))
    along = direction(line)
    pts = [add(add(polygon.vertices[pair.v_index], scale(step, k + f)), scale(along, t))
           for k in (*range(-3, 4), -10 ** 4, 10 ** 4)
           for f in (0, Fraction(1, 3), Fraction(1, 2))
           for t in (0, Fraction(2, 3), 10 ** 4 + Fraction(1, 7))]
    return pts + [Point(p.x + ROOT5 / 7, p.y) for p in pts]


def _outcome(route):
    """repr of route(), so that Fraction and QuadExt coordinates must agree
    in type too, or the boundary error's point and stage."""
    try:
        return repr(route())
    except OnStripBoundaryError as exc:
        return ("OnStripBoundaryError", exc.point, exc.stage)


def _landed(jump):
    here, k = jump
    return point_of(here), k


@pytest.mark.parametrize("poly_key", CORPUS)
def test_strip_form_matches_two_line_oracles(poly_key):
    """`location`, `strip_map` and `strip_jump`, each reading the pair's one
    (t, w) form, agree with the oracles that place a Point against the edge
    line and the far line on scalars, on every pair and, for `location` and
    `strip_map`, on pair 0 at half its width (iterating that strip map need
    not settle, so its jump has no oracle)."""
    poly = corpus_polygon(poly_key)
    system = build_pinwheel_system(poly)
    halved_pair = halved(system.pair(0))
    seen = set()
    for pair in system.pairs + (halved_pair,):
        for p in _strip_form_points(poly, pair):
            here = poly.homogeneous(p)
            seen.add(pair.location(here))
            assert pair.location(here) == scalar_location(pair, p), (pair.index, p)
            assert _outcome(lambda: point_of(strips.strip_map(pair, here))) == _outcome(
                lambda: point_strip_map(pair, p)), (pair.index, p)
            if pair is not halved_pair:
                assert _outcome(lambda: _landed(strips.strip_jump(pair, here))) == _outcome(
                    lambda: point_strip_jump(pair, p)), (pair.index, p)
    assert seen == {-1, 0, 1}


@pytest.mark.parametrize("owner, name, old, new", [
    (strips, "strip_map", "if near == 0 or far == 0:", "if near == 0:"),
    (strips.PinwheelPair, "offsets", "wn * (L // wq)", "wn * L"),
], ids=["dropped-far-boundary", "dropped-width-denominator"])
def test_strip_form_parity_catches_broken_forms(monkeypatch, owner, name, old, new):
    """Negative controls: a strip map that misses the far line t == w, and
    a width left off its denominator wq (1 on integer polygons; up to 7 on
    n12), must each fail the parity test."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1
    namespace = dict(vars(strips))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(owner, name, namespace[name])
    with pytest.raises(AssertionError):
        test_strip_form_matches_two_line_oracles("n12")
