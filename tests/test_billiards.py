"""Outer billiards map, square map, cones and the tangent-pair partition."""

import inspect
import math
import textwrap
from fractions import Fraction
from itertools import count

import pytest

from outerbilliards.billiards import (
    Chirality,
    build_partition,
    inverse_square_map,
    primary_cone,
    square_map,
    tangent_vertex,
)
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from outerbilliards import billiards, geometry, scalars
from outerbilliards.errors import (
    InsidePolygonError,
    MapUndefinedError,
    OnPrimaryWallError,
    UndefinedOnWallError,
)
from outerbilliards.geometry import Point, point_of, vec_of
from outerbilliards.model import BilliardModel
from outerbilliards.polygon import NicePolygon
from outerbilliards.generate import random_nice_polygon
from outerbilliards.scalars import QuadExt, sign
from oracles import (add, cross, fresh_offsets_step, normalized, oracle_psi_walk, outer_step,
                     pt, reflected, run_states, scale, scan_tangent_vertex, signed_offset, sub,
                     vec)

TRIANGLE = NicePolygon.from_points([pt(0, 0), pt(1, 3), pt(4, 0)])
PENTAGON = NicePolygon.from_points(
    [pt(0, 0), pt(-1, 3), pt(2, 5), pt(5, 2), pt(4, -1)])


def _offsets(polygon, p):
    """p's edge offsets on the polygon's lattice, as `tangent_vertex` takes them."""
    return polygon.edge_offsets(polygon.homogeneous(p))


def test_tangent_vertex_worked_examples():
    # all other vertices strictly right of the ray: cross signs (-26, -8)
    assert tangent_vertex(TRIANGLE, _offsets(TRIANGLE, pt(8, -2))) == 0
    assert TRIANGLE.vertices[tangent_vertex(TRIANGLE, _offsets(TRIANGLE, pt(-8, 2)))] == pt(1, 3)


def test_tangent_vertex_on_primary_wall():
    # on the extension of the bottom edge
    with pytest.raises(OnPrimaryWallError):
        tangent_vertex(TRIANGLE, _offsets(TRIANGLE, pt(6, 0)))


def test_tangent_vertex_inside_rejected():
    with pytest.raises(InsidePolygonError):
        tangent_vertex(TRIANGLE, _offsets(TRIANGLE, pt(1, 1)))
    with pytest.raises(InsidePolygonError):
        tangent_vertex(TRIANGLE, _offsets(TRIANGLE, pt(2, 0)))  # boundary is not outside


def _tangent_vertex_oracle(polygon, p, chirality):
    """The vertex-pair rule: v is tangent when every other vertex u is
    strictly on the chirality side of the ray p -> v.  O(n^2) per point; kept
    here only as the reference for `tangent_vertex`.  Returns the vertex
    index, "wall" or "inside"."""
    if polygon.point_location(p) != -1:
        return "inside"
    wall = False
    for i, v in enumerate(polygon.vertices):
        signs = {sign(cross(sub(v, p), sub(u, v)))
                 for j, u in enumerate(polygon.vertices) if j != i}
        if signs == {chirality.value}:
            return i
        if signs == {chirality.value, 0}:
            wall = True
    assert wall, f"no tangent vertex for exterior point {p}"
    return "wall"


def _tangent_outcome(polygon, p, chirality):
    try:
        return tangent_vertex(polygon, _offsets(polygon, p), chirality)
    except OnPrimaryWallError:
        return "wall"
    except InsidePolygonError:
        return "inside"


def _oracle_points(poly):
    coords = [c for v in poly.vertices for c in (v.x, v.y)]
    r = next(k for k in count() if all(abs(c) <= k for c in coords)) + 3
    step = max(1, r // 7)
    grid = [pt(x, y) for x in range(-r, r + 1, step) for y in range(-r, r + 1, step)]
    ts = [Fraction(t) for t in (-3, Fraction(-1, 2), 0, Fraction(1, 3), 1,
                                Fraction(3, 2), 4, 40)]
    on_edge_lines = [add(v, scale(sub(poly.vertices[(i + 1) % poly.n], v), t))
                     for i, v in enumerate(poly.vertices) for t in ts]
    return grid + on_edge_lines


# the triangle, seeded rational n = 3..12 and both Q(sqrt 5) kites
CORPUS = ["triangle"] + [f"n{n}" for n in range(3, 13)] + ["sqrt5_kite", "penrose_kite"]


def corpus_polygon(poly_key):
    """A `CORPUS` polygon, or (key "regular_pentagon") the affinely regular
    pentagon over Q(sqrt 5), which is no affine image of a rational one."""
    from test_quasirational import regular_pentagon, sqrt5_kite
    from test_verify import penrose_kite

    if poly_key == "triangle":
        return TRIANGLE
    if poly_key.startswith("n"):
        return random_nice_polygon(int(poly_key[1:]), seed=7)
    return {"sqrt5_kite": sqrt5_kite, "penrose_kite": penrose_kite,
            "regular_pentagon": regular_pentagon}[poly_key]()


@pytest.mark.parametrize("poly_key", CORPUS)
def test_tangent_vertex_matches_vertex_pair_oracle(poly_key):
    poly = corpus_polygon(poly_key)
    seen = set()
    for p in _oracle_points(poly):
        for chirality in Chirality:
            want = _tangent_vertex_oracle(poly, p, chirality)
            assert _tangent_outcome(poly, p, chirality) == want, (p, chirality)
            seen.add(want if isinstance(want, str) else "tangent")
    assert seen == {"tangent", "wall", "inside"}


def test_outer_step_reflects_through_vertex():
    assert outer_step(TRIANGLE, pt(8, -2)) == pt(-8, 2)


def test_outer_step_not_an_involution():
    p = pt(8, -2)
    q = outer_step(TRIANGLE, p)
    # the forward map from q re-selects a different tangent vertex
    assert outer_step(TRIANGLE, q) != p
    # the inverse chirality undoes the step
    assert outer_step(TRIANGLE, q, Chirality.LEFT) == p


def test_square_map_worked_example():
    q, label = square_map(TRIANGLE, pt(8, -2))
    assert q == pt(10, 4)
    assert label == (0, 1)
    assert (TRIANGLE.vertices[0], TRIANGLE.vertices[1]) == (pt(0, 0), pt(1, 3))
    # consistency: q = p + 2 (w - v)
    assert sub(q, pt(8, -2)) == scale(sub(pt(1, 3), pt(0, 0)), 2)


def test_square_map_near_vertex_defined():
    p = add(TRIANGLE.vertices[1], vec(Fraction(1, 7), Fraction(5, 3)))
    q, label = square_map(TRIANGLE, p)
    assert sub(q, p) == scale(sub(TRIANGLE.vertices[label[1]], TRIANGLE.vertices[label[0]]), 2)


def test_inverse_square_map_round_trip():
    q, lab = square_map(TRIANGLE, pt(8, -2))
    back, back_lab = inverse_square_map(TRIANGLE, q)
    assert back == pt(8, -2)
    assert back_lab == (lab[1], lab[0])


def test_inverse_square_map_worked_example():
    back, _ = inverse_square_map(TRIANGLE, pt(10, 4))
    assert back == pt(8, -2)


def test_square_map_wall_stages():
    with pytest.raises(UndefinedOnWallError) as err:
        square_map(TRIANGLE, pt(6, 0))
    assert err.value.stage == 1


def test_primary_cone_round_trip():
    for poly in (TRIANGLE, PENTAGON):
        for vi in range(poly.n):
            cone = primary_cone(poly, vi)
            for p in map(point_of, cone.intersect(_far_box(poly)).sample_points(6, seed=3)):
                if poly.point_location(p) == -1:
                    assert tangent_vertex(poly, _offsets(poly, p)) == vi
            assert cone.contains(poly.homogeneous(poly.vertices[vi])) == 0


def _far_box(poly):
    from outerbilliards.geometry import box_region

    return box_region(-50, -50, 50, 50)


def test_cones_disjoint_cover():
    poly = PENTAGON
    cones = [primary_cone(poly, i) for i in range(poly.n)]
    for i in range(poly.n):
        for j in range(i + 1, poly.n):
            assert cones[i].intersect(cones[j]).is_empty
    # sampled coverage: every generic outside point falls in exactly one cone
    from outerbilliards.rng import Rng

    rng = Rng(17).split(1)
    hits = 0
    for k in range(60):
        p = pt(Fraction(rng.int_range(2 * k, -400, 400), 7),
               Fraction(rng.int_range(2 * k + 1, -400, 400), 7))
        if poly.point_location(p) != -1:
            continue
        inside = [i for i, c in enumerate(cones)
                  if c.contains(poly.homogeneous(p)) == 1]
        if len(inside) == 1:
            hits += 1
        else:
            assert any(c.contains(poly.homogeneous(p)) == 0 for c in cones)
    assert hits >= 50


def test_forward_partition_triangle_counts():
    part = build_partition(TRIANGLE)
    assert len(part.tiles) == 6
    assert all(t.unbounded for t in part.tiles)
    assert {t.label for t in part.tiles} == {
        (i, j) for i in range(3) for j in range(3) if i != j}


def test_every_partition_has_2n_unbounded_tiles():
    for n in (3, 4, 5, 6, 7):
        poly = random_nice_polygon(n, seed=5 * n + 1)
        part = build_partition(poly)
        assert sum(t.unbounded for t in part.tiles) == 2 * n


def test_piecewise_translation_on_tiles():
    part = build_partition(PENTAGON)
    for tile in part.tiles:
        if tile.unbounded:
            continue
        for p in map(point_of, tile.region.sample_points(20, seed=2)):
            q, label = square_map(PENTAGON, p)
            assert label == tile.label
            assert sub(q, p) == vec_of(tile.translation)


def test_classify_matches_dynamics():
    part = build_partition(TRIANGLE)
    tile = part.classify(TRIANGLE.homogeneous(pt(8, -2)))
    assert tile.label == (0, 1)
    with pytest.raises(UndefinedOnWallError):
        part.classify(TRIANGLE.homogeneous(pt(6, 0)))


def test_far_points_classify_into_unbounded_tiles():
    part = build_partition(PENTAGON)
    for p in (pt(500, 1), pt(-3, 700), pt(-411, -399)):
        tile = part.classify(PENTAGON.homogeneous(p))
        assert tile.unbounded


def test_backward_partition_mirror_counts():
    back = build_partition(PENTAGON, Chirality.LEFT)
    fwd = build_partition(PENTAGON)
    assert len(back.tiles) == len(fwd.tiles)
    assert sum(t.unbounded for t in back.tiles) == 2 * PENTAGON.n


# Recession directions of the unbounded tiles, recorded as literals; every
# other tile is bounded.  Keyed by (polygon, partition side), then tile label.
RECESSION = {
    ("triangle", "forward"): {  # 0 bounded tiles
        (0, 1): ('1', '-1/2'), (0, 2): ('1', '-2'), (1, 0): ('-1', '1/2'),
        (1, 2): ('-1', '-3/2'), (2, 0): ('1', '4'), (2, 1): ('1', '3/2'),
    },
    ("triangle", "backward"): {  # 0 bounded tiles
        (0, 1): ('-1', '1/2'), (0, 2): ('1', '4'), (1, 0): ('1', '-1/2'),
        (1, 2): ('1', '3/2'), (2, 0): ('1', '-2'), (2, 1): ('-1', '-3/2'),
    },
    ("n7", "forward"): {  # 14 bounded tiles
        (0, 4): ('1', '-119/192'), (1, 4): ('1', '-1855/1216'),
        (1, 5): ('1', '-129/38'), (2, 5): ('-1', '-196/15'), (3, 5): ('-1', '-77/30'),
        (3, 6): ('-1', '-175/177'), (4, 0): ('-1', '119/192'),
        (4, 1): ('-1', '1855/1216'), (4, 6): ('-1', '665/1416'), (5, 1): ('1', '73/3'),
        (5, 2): ('1', '196/15'), (5, 3): ('1', '77/30'), (6, 3): ('1', '175/177'),
        (6, 4): ('1', '-665/1416'),
    },
    ("n7", "backward"): {  # 14 bounded tiles
        (0, 4): ('-1', '119/192'), (1, 4): ('-1', '1855/1216'), (1, 5): ('1', '73/3'),
        (2, 5): ('1', '196/15'), (3, 5): ('1', '77/30'), (3, 6): ('1', '175/177'),
        (4, 0): ('1', '-119/192'), (4, 1): ('1', '-1855/1216'),
        (4, 6): ('1', '-665/1416'), (5, 1): ('1', '-129/38'),
        (5, 2): ('-1', '-196/15'), (5, 3): ('-1', '-77/30'),
        (6, 3): ('-1', '-175/177'), (6, 4): ('-1', '665/1416'),
    },
    ("sqrt5_kite", "forward"): {  # 2 bounded tiles
        (0, 2): ('1', '-2'), (1, 2): ('-1', '(-1/2 + -1/10*sqrt(5))'),
        (1, 3): ('-1', '0'), (2, 0): ('1', '2'), (2, 1): ('1', '(1/2 + 1/10*sqrt(5))'),
        (2, 3): ('-1', '(1/2 + 1/10*sqrt(5))'), (3, 1): ('1', '0'),
        (3, 2): ('1', '(-1/2 + -1/10*sqrt(5))'),
    },
    ("sqrt5_kite", "backward"): {  # 2 bounded tiles
        (0, 2): ('1', '2'), (1, 2): ('1', '(1/2 + 1/10*sqrt(5))'), (1, 3): ('1', '0'),
        (2, 0): ('1', '-2'), (2, 1): ('-1', '(-1/2 + -1/10*sqrt(5))'),
        (2, 3): ('1', '(-1/2 + -1/10*sqrt(5))'), (3, 1): ('-1', '0'),
        (3, 2): ('-1', '(1/2 + 1/10*sqrt(5))'),
    },
}


@pytest.mark.parametrize("poly_key", ["triangle", "n7", "sqrt5_kite"])
def test_recession_direction_of_every_tile(poly_key):
    from test_quasirational import sqrt5_kite

    poly = {"triangle": TRIANGLE, "n7": random_nice_polygon(7, 3),
            "sqrt5_kite": sqrt5_kite()}[poly_key]
    m = BilliardModel(poly)
    for side, part in (("forward", m.partition), ("backward", m.backward_partition)):
        want = RECESSION[(poly_key, side)]
        for t in part.tiles:
            d = t.region.recession_direction()
            if t.label not in want:
                assert d is None and t.region.is_bounded() and not t.unbounded
                continue
            d = point_of(d)
            assert (str(d.x), str(d.y)) == want[t.label], (side, t.label)
            assert t.unbounded and not t.region.is_bounded()
            for h in t.region.constraints:
                a, b, _, _ = normalized(h)
                assert sign(a * d.x + b * d.y) >= 0
        assert len(want) == 2 * poly.n


# ---------------------------------------------------------------------------
# affine parity: outer billiards commutes with affine maps, so a rational
# polygon and its image under a shear with a sqrt 5 entry share their tiles
# and orbits.  The image's tiles are built by the kernel's Q(sqrt 5) branch,
# which rational inputs never reach (quadext(a, 0, d) is a Fraction).

ROOT5 = QuadExt(0, 1, 5)


def shear(p):
    """A = [[1, sqrt 5], [0, 1]] applied to a Point or Vec; det A = 1 keeps
    the orientation, hence the vertex order and every label."""
    return type(p)(p.x + ROOT5 * p.y, p.y)


def psi_labels(polygon, p, steps):
    labels = []
    for _ in range(steps):
        try:
            p, label = square_map(polygon, p)
        except MapUndefinedError as exc:
            return labels + [type(exc).__name__]
        labels.append(label)
    return labels


STARTS = st.builds(Point, st.fractions(-40, 40, max_denominator=6),
                   st.fractions(-40, 40, max_denominator=6))


# no shrinking: each example builds four partitions, and the examples are
# derandomized, so a failure reproduces as drawn
@settings(max_examples=12, deadline=None, database=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.integers(3, 8), st.integers(0, 10 ** 6), st.lists(STARTS, min_size=1, max_size=3))
def test_sqrt5_shear_keeps_tiles_and_orbits(n, seed, starts):
    polygon = random_nice_polygon(n, seed)
    image = NicePolygon.from_points([shear(v) for v in polygon.vertices], quad_d=5)
    for chirality in Chirality:
        tiles = {t.label: t for t in build_partition(polygon, chirality).tiles}
        images = {t.label: t for t in build_partition(image, chirality).tiles}
        assert sorted(images) == sorted(tiles)
        for label, t in tiles.items():
            u = images[label]
            assert vec_of(u.translation) == shear(vec_of(t.translation))
            assert u.unbounded == t.unbounded
            assert set(u.region.vertices()) == {shear(v) for v in t.region.vertices()}
    for p in starts:
        assert psi_labels(image, shear(p), 40) == psi_labels(polygon, p, 40)


def test_sqrt5_shear_parity_catches_conjugate_sign_slip(monkeypatch):
    """Negative control: a Q(sqrt d) branch whose quotients come out with
    the sqrt(d) part negated must fail the parity property.  (Under this
    shear the radical parts cancel in every sign the kernel decides, so the
    property checks the branch's arithmetic; its signs are checked by
    `test_kernel_matches_fm_oracle`.)"""
    scalar = geometry.ratio

    def conjugated(num, den):
        x = scalar(num, den)
        return QuadExt(x.a, -x.b, x.d) if isinstance(x, QuadExt) else x

    monkeypatch.setattr(geometry, "ratio", conjugated)
    with pytest.raises(AssertionError):
        test_sqrt5_shear_keeps_tiles_and_orbits()


# ---------------------------------------------------------------------------
# the lattice kernel against the Point route: `scan_tangent_vertex` on the
# signs of a Point's scalar `signed_offset`s, then `reflected` through each
# tangent vertex, kept here only as the oracle for `billiards.psi_walk`


def _scalar_signs(polygon, p):
    """The signs in the form of `edge_offsets`: over Q(sqrt d) with n zero
    sqrt(d) parts after them."""
    signs = [sign(signed_offset(e, p)) for e in polygon.edges]
    return signs if polygon.quad_d is None else signs + [0] * polygon.n


def _point_route(polygon, p, chirality):
    try:
        vi = scan_tangent_vertex(polygon, _scalar_signs(polygon, p), chirality)
    except OnPrimaryWallError:
        raise UndefinedOnWallError(p, stage=1) from None
    except InsidePolygonError:
        raise InsidePolygonError(p) from None
    mid = reflected(p, polygon.vertices[vi])
    try:
        wi = scan_tangent_vertex(polygon, _scalar_signs(polygon, mid), chirality)
    except OnPrimaryWallError:
        raise UndefinedOnWallError(p, stage=2) from None
    return reflected(mid, polygon.vertices[wi]), (vi, wi)


def _outcome(step, polygon, p, chirality):
    """repr of (point, label), so that Fraction and QuadExt coordinates
    must agree in type too, or the error's class, point and stage."""
    try:
        return repr(step(polygon, p, chirality))
    except MapUndefinedError as exc:
        return (type(exc).__name__, exc.point, getattr(exc, "stage", None))


# directions on a square around the origin and radii in polygon extents:
# 2-5 extents out, and 10^4
DIRECTIONS = [(1, Fraction(1, 3)), (Fraction(-2, 7), 1), (-1, Fraction(-5, 11)),
              (Fraction(3, 5), -1), (1, 1), (-1, Fraction(1, 9))]
RADII = [2, Fraction(7, 3), 5, 10 ** 4, 10 ** 4 + Fraction(1, 13)]


def _parity_starts(poly):
    extent = max(math.floor(abs(c)) for v in poly.vertices for c in (v.x, v.y)) + 1
    far = [pt(r * extent * ux, r * extent * uy) for r in RADII for ux, uy in DIRECTIONS]
    # a Q(sqrt 5) start for every rational one, on rational polygons too
    far += [Point(p.x + ROOT5 / 7, p.y) for p in far]
    walls = [add(v, scale(sub(poly.vertices[(i + 1) % poly.n], v), t))
             for i, v in enumerate(poly.vertices) for t in (-3, Fraction(-1, 2), Fraction(3, 2), 4)]
    # reflected through a vertex, a wall point is the midpoint of a start
    second = [reflected(q, v) for q in walls for v in poly.vertices]
    inside = [pt(sum(v.x for v in poly.vertices) / poly.n,
                 sum(v.y for v in poly.vertices) / poly.n)]
    boundary = list(poly.vertices) + [
        add(v, scale(sub(poly.vertices[(i + 1) % poly.n], v), Fraction(1, 3)))
        for i, v in enumerate(poly.vertices)]
    return far + walls + second + inside + boundary


@pytest.mark.parametrize("poly_key", CORPUS)
def test_lattice_kernel_matches_point_route(poly_key):
    """square_map and inverse_square_map equal the Point route on near and
    far starts over both fields and the next 4 points of each orbit, on
    walls of either stage, and inside and on the polygon."""
    poly = corpus_polygon(poly_key)
    seen = set()
    for chirality, step in ((Chirality.RIGHT, square_map),
                            (Chirality.LEFT, inverse_square_map)):
        for p in _parity_starts(poly):
            for _ in range(5):
                got = _outcome(lambda poly, p, _: step(poly, p), poly, p, chirality)
                assert got == _outcome(_point_route, poly, p, chirality), (p, chirality)
                if isinstance(got, tuple):
                    seen.add(got[::2])
                    break
                seen.add("mapped")
                p = step(poly, p)[0]
    assert seen == {"mapped", ("UndefinedOnWallError", 1),
                    ("UndefinedOnWallError", 2), ("InsidePolygonError", None)}


def test_lattice_parity_catches_dropped_rescale(monkeypatch):
    """Negative control: a kernel that reflects through the vertex's lattice
    numerators without rescaling them from den to L must fail the parity
    test."""
    source = textwrap.dedent(inspect.getsource(billiards.psi_walk))
    rescale = "2 * (L // polygon.den)"
    assert rescale in source
    namespace = dict(vars(billiards))
    exec(source.replace(rescale, "2"), namespace)
    monkeypatch.setattr(billiards, "psi_walk", namespace["psi_walk"])
    with pytest.raises(AssertionError):
        test_lattice_kernel_matches_point_route("n7")


# `tangent_vertex`'s search from every start against `oracles.scan_tangent_vertex`,
# the scan of all n signs it replaced, on the offsets of near, far, wall
# (of either stage), inside and boundary points


def _search_outcome(search, polygon, ts, *args):
    """The vertex, or the error's class and whether it carries ts; any
    other exception (an index past the offsets) by its class."""
    try:
        return search(polygon, ts, *args)
    except (InsidePolygonError, OnPrimaryWallError) as exc:
        return type(exc).__name__, exc.point is ts
    except Exception as exc:
        return type(exc).__name__


def _assert_search_matches_scan(poly):
    """Returns the outcomes seen: "tangent" or an error's."""
    seen = set()
    for p in _parity_starts(poly) + _oracle_points(poly):
        ts = _offsets(poly, p)
        for chirality in Chirality:
            want = _search_outcome(scan_tangent_vertex, poly, ts, chirality)
            for start in range(poly.n):
                got = _search_outcome(billiards.tangent_vertex, poly, ts, chirality, start)
                assert got == want, ("search differs from the scan", p, chirality, start)
            seen.add(want if isinstance(want, tuple) else "tangent")
    return seen


@pytest.mark.parametrize("poly_key", CORPUS + ["regular_pentagon"])
def test_tangent_vertex_search_matches_scan_from_every_start(poly_key):
    """From every start vertex, in both chiralities, the search returns the
    scan's vertex or raises its error, which carries the offsets."""
    assert _assert_search_matches_scan(corpus_polygon(poly_key)) == {
        "tangent", ("OnPrimaryWallError", True), ("InsidePolygonError", True)}


@pytest.mark.parametrize("mutant", [
    [("i = (i + 1) % n", "i = i + 1"), ("i, j = j, (j - 1) % n", "i, j = j, j - 1")],
    [("i, j = j, (j - 1) % n", "i, j = (i + 1) % n, i")]],
    ids=["steps-without-wrapping", "forward-for-backward"])
def test_search_and_walk_parity_catch_wrong_steps(monkeypatch, mutant):
    """Negative controls: a search that steps past the last edge without
    wrapping mod n, or forward where it should step backward, must fail the
    search's test against the scan and the walk's parity test."""
    source = textwrap.dedent(inspect.getsource(billiards.tangent_vertex))
    for old, new in mutant:
        assert source.count(old) == 1
        source = source.replace(old, new)
    namespace = dict(vars(billiards))
    exec(source, namespace)
    monkeypatch.setattr(billiards, "tangent_vertex", namespace["tangent_vertex"])
    with pytest.raises(AssertionError, match="search differs from the scan"):
        _assert_search_matches_scan(corpus_polygon("n7"))
    with pytest.raises(AssertionError, match="walk differs from the oracle"):
        _assert_walk_matches_oracle(corpus_polygon("n7"))


# the ψ walk against `oracles.fresh_offsets_step`, which evaluates every edge
# offset afresh at each reflection: the walk's label runs expanded into
# states (`oracles.run_states`), 10^3-step prefixes, and 10^4-step ones from
# far starts, where nearly every step is inside a long label run that the
# walk takes in closed form


def _walk_prefix(states, steps):
    """The first `steps` states of an iterator of ψ states, then the error
    (class, Point, stage) that ended it early; reprs, so that ints and
    QuadInts must agree in type too.  Also returns the length of the last
    label run among the states."""
    out, run, last = [], 0, None
    try:
        for _, (there, label) in zip(range(steps), states):
            out.append(repr((there, label)))
            run, last = (run + 1 if label == last else 1), label
    except MapUndefinedError as exc:
        out.append((type(exc).__name__, exc.point, getattr(exc, "stage", None)))
    return out, run


def _maximal(runs):
    """The walk's label runs, asserting that each has a label other than the
    last one's: every run after the first is a maximal block of equal labels,
    which `dynamics.orbit`'s period rests on."""
    last = None
    for run in runs:
        assert run[1] != last, ("walk differs from the oracle", "run not maximal", run)
        last = run[1]
        yield run


# where the wall points sit on the edge lines, in edge lengths from each
# edge's tail: a few edges out, on both sides of every edge, and about 2,000
# out, on alternate sides, where a label run ends at the wall after tens to
# hundreds of steps
NEAR_WALLS = (Fraction(-22, 7), Fraction(33, 19))
FAR_WALLS = (Fraction(-20000, 7), Fraction(30001, 19))


def _wall_starts(poly, back, ts, both_sides):
    """Starts whose orbit meets a wall mid-orbit: a point t along an edge
    line, t in ts (or t = ts[i % 2] on edge i, where not both_sides), a
    stage-1 wall, or one reflected through a vertex (stage 2), walked up to
    `back` steps backwards by the oracle's mirrored rule."""
    walls = [add(v, scale(sub(poly.vertices[(i + 1) % poly.n], v), t))
             for i, v in enumerate(poly.vertices)
             for t in (ts if both_sides else ts[i % 2:i % 2 + 1])]
    walls += [reflected(q, poly.vertices[(i + 2) % poly.n]) for i, q in enumerate(walls)]
    for q in walls:
        for chirality, mirror in ((Chirality.RIGHT, Chirality.LEFT),
                                  (Chirality.LEFT, Chirality.RIGHT)):
            here, steps = poly.homogeneous(q), 0
            try:
                for steps in range(1, back + 1):
                    here, _ = fresh_offsets_step(poly, here, mirror)
            except MapUndefinedError:
                steps -= 1
            if steps:
                yield here, chirality


def _assert_walk_matches_oracle(poly):
    """Compare 10^3-step prefixes from near and far starts, 10^4-step ones
    from two far starts, and the prefixes of wall, inside and boundary
    starts up to their error; returns the set of endings seen, each error with its
    stage and whether a state came before it, and ("long run", stage) for
    a wall met at the end of a label run of at least 50 steps."""
    extent = max(math.floor(abs(c)) for v in poly.vertices for c in (v.x, v.y)) + 1
    starts = [pt(r * extent * ux, r * extent * uy)
              for r, (ux, uy) in zip(RADII, DIRECTIONS)]
    starts += [Point(p.x + ROOT5 / 7, p.y) for p in starts[1::3]]
    # starts 3, 4 and 6 are 10^4 extents out: 4 forward and 3 backward go
    # 10^4 steps
    runs = [(poly.homogeneous(p), Chirality.RIGHT, 10 ** 4 if i == 4 else 1000)
            for i, p in enumerate(starts)]
    runs += [(poly.homogeneous(starts[0]), Chirality.LEFT, 1000),
             (poly.homogeneous(starts[3]), Chirality.LEFT, 10 ** 4)]
    inside = pt(sum(v.x for v in poly.vertices) / poly.n,
                sum(v.y for v in poly.vertices) / poly.n)
    runs += [(poly.homogeneous(p), chirality, 10)
             for p, chirality in ((inside, Chirality.RIGHT), (poly.vertices[0], Chirality.LEFT))]
    runs += [(here, chirality, 10)
             for here, chirality in _wall_starts(poly, 5, NEAR_WALLS, True)]
    runs += [(here, chirality, 102)
             for here, chirality in _wall_starts(poly, 100, FAR_WALLS, False)]
    seen = set()
    for here, chirality, steps in runs:
        got, run = _walk_prefix(run_states(_maximal(billiards.psi_walk(poly, here, chirality))),
                                steps)
        want, _ = _walk_prefix(oracle_psi_walk(poly, here, chirality), steps)
        assert got == want, ("walk differs from the oracle", here, chirality)
        end = got[-1]
        if not isinstance(end, tuple):
            seen.add("mapped")
            continue
        seen.add(end[::2] + (len(got) > 1,))
        if run >= 50:
            seen.add(("long run", end[2]))
    return seen


@pytest.mark.parametrize("poly_key", CORPUS + ["regular_pentagon"])
def test_psi_walk_matches_fresh_offsets_oracle(poly_key):
    """Every state of the walk, label and triple, and the error class, Point
    and stage of a wall hit equal those of the oracle, on near and far
    starts over both fields, both chiralities, starts that meet a stage-1 or
    a stage-2 wall mid-orbit, and starts inside and on the polygon; some
    wall ends a label run of at least 50 steps, so a run taken in closed
    form ends at a wall."""
    seen = _assert_walk_matches_oracle(corpus_polygon(poly_key))
    assert seen >= {"mapped", ("UndefinedOnWallError", 1, True),
                    ("UndefinedOnWallError", 2, True), ("InsidePolygonError", None, False)}
    assert seen & {("long run", 1), ("long run", 2)}


@pytest.mark.parametrize("mutant", [("label, k, (dx, dy)", "label, k + 1, (dx, dy)"),
                                    ("label, k, (dx, dy)", "label, k - 1, (dx, dy)"),
                                    ("ts = list(map(add, ts, D", "_ = list(map(add, ts, D"),
                                    ("k = min(", "k = -1 + min(")],
                         ids=["run-too-long", "run-too-short", "offsets-not-moved",
                              "run-cut-short"])
def test_walk_parity_catches_wrong_label_runs(monkeypatch, mutant):
    """Negative controls: a walk whose label runs count one state too many
    or too few, or that leaves the offsets where the run began, must fail
    the parity test; so must one that cuts each run one state short with its
    offsets moved to match, whose states are right but whose runs are not
    maximal."""
    source = textwrap.dedent(inspect.getsource(billiards.psi_walk))
    old, new = mutant
    assert source.count(old) == 1
    namespace = dict(vars(billiards))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(billiards, "psi_walk", namespace["psi_walk"])
    with pytest.raises(AssertionError, match="walk differs from the oracle"):
        _assert_walk_matches_oracle(corpus_polygon("n7"))


def test_walk_parity_catches_offsets_without_the_edge_constant():
    """Negative control: a `vertex_offsets` table built as a*VX + b*VY,
    without the c*den term, must fail the walk's parity test."""
    poly = corpus_polygon("n7")
    broken = tuple([a * vx + b * vy for a, b, _ in (e.ints for e in poly.edges)]
                   for vx, vy in poly.lattice)
    object.__setattr__(poly, "vertex_offsets", broken)
    with pytest.raises(AssertionError, match="walk differs from the oracle"):
        _assert_walk_matches_oracle(poly)


def test_psi_orbits_evaluate_the_edge_offsets_once(monkeypatch):
    """After the walk's first state no ψ step evaluates a*X + b*Y - c*L: an
    orbit, an exit-map and a first-return call evaluate the edge offsets
    once each, whatever their length."""
    from outerbilliards.dynamics import exit_map, first_return_psi, orbit

    model = BilliardModel(PENTAGON)
    model.system  # built before counting
    calls = []
    real = NicePolygon.edge_offsets
    monkeypatch.setattr(NicePolygon, "edge_offsets",
                        lambda self, p: calls.append(p) or real(self, p))
    p = pt(Fraction(17, 3), -2)
    assert len(orbit(model, p, "psi", 200).events) == 202
    assert len(calls) == 1
    here = model.polygon.homogeneous(p)
    for run in (lambda: exit_map(model, here, 1000), lambda: first_return_psi(model, here, 500)):
        calls.clear()
        try:
            run()
        except MapUndefinedError:
            pass
        assert len(calls) == 1


def test_square_map_calls_tangent_vertex_once_per_reflection(monkeypatch):
    """Two tangent_vertex calls per ψ (or ψ⁻¹) step: the traced benchmark
    counts `billiards.tangent_vertex` calls, so the kernel must call it."""
    calls = []
    real = billiards.tangent_vertex

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(billiards, "tangent_vertex", counted)
    p = pt(Fraction(17, 3), -2)
    for k in range(1, 6):
        p, _ = square_map(PENTAGON, p)
        assert len(calls) == 2 * k
    inverse_square_map(PENTAGON, p)
    assert len(calls) == 12


def test_far_orbit_calls_tangent_vertex_twice_per_label_run(monkeypatch):
    """A 10^4-step ψ orbit of the triangle from (1000, 1/3), in 81 label
    runs, steps through `tangent_vertex` once per run and takes the rest of
    each run in closed form: at most 2 calls per run, plus 2 for the step
    after the last one, where stepping every state would make 2 * 10^4."""
    from outerbilliards.dynamics import orbit

    calls = []
    real = billiards.tangent_vertex
    monkeypatch.setattr(billiards, "tangent_vertex",
                        lambda *args: calls.append(args) or real(*args))
    rec = orbit(BilliardModel(TRIANGLE), pt(1000, Fraction(1, 3)), "psi", 10 ** 4)
    labels = [e.label for e in rec.events if e.tag == "translated"]
    runs = 1 + sum(a != b for a, b in zip(labels, labels[1:]))
    assert len(labels) == 10 ** 4 and runs < 100
    assert len(calls) <= 2 * runs + 2


@pytest.mark.parametrize("poly_key", CORPUS)
def test_every_tile_has_an_exit_along_its_translation(poly_key):
    """No label run is unbounded: every tile of both partitions has a side
    that its translation crosses outwards, and the walk's run record for
    the tile's label (`billiards._label_run`, on rows over L = den) has an
    exit bound."""
    m = BilliardModel(corpus_polygon(poly_key))
    rows = [[2 * e for e in row] for row in m.polygon.vertex_offsets]
    for part in (m.partition, m.backward_partition):
        first = -1 if part.chirality is Chirality.RIGHT else 0
        for tile in part.tiles:
            d = vec_of(tile.translation)
            assert any(sign(a * d.x + b * d.y) < 0
                       for a, b, _, _ in (normalized(h) for h in tile.region.constraints))
            v, w = tile.label
            _, exits = billiards._label_run(rows[v], rows[w], (v + first) % m.n,
                                            (w + first) % m.n, m.n)
            assert 1 <= len(exits) <= 2, (part.chirality, tile.label)


def _count_sign_reads(monkeypatch):
    """Patch `tangent_vertex` to log, per call, the (rational, sqrt(d)) parts
    of every offset whose sign it reads with `quad_sign`; returns the log."""
    searches, inside = [], []
    real_search, real_sign = billiards.tangent_vertex, billiards.quad_sign

    def search(*args):
        searches.append([])
        inside.append(True)
        try:
            return real_search(*args)
        finally:
            inside.pop()

    def read(a, b, d):
        if inside:
            searches[-1].append((a, b))
        return real_sign(a, b, d)

    monkeypatch.setattr(billiards, "tangent_vertex", search)
    monkeypatch.setattr(billiards, "quad_sign", read)
    return searches


def test_psi_step_reads_each_irrational_offset_sign_once(monkeypatch):
    """On the Penrose kite each reflection of a ψ step reads the sign of each
    offset at most once: its `tangent_vertex` search makes at most n
    `quad_sign` calls, on n different (rational, sqrt(5)) part pairs.  (The
    full scan it replaced read all n, once each, at p and at its
    reflection.)"""
    kite = corpus_polygon("penrose_kite")
    searches = _count_sign_reads(monkeypatch)
    for p in (pt(3, Fraction(1, 3)), pt(Fraction(-5, 2), Fraction(7, 3)),
              Point(ROOT5 / 7 + 3, Fraction(1, 3)), Point(Fraction(1, 9), ROOT5 * 3)):
        for _ in range(6):
            searches.clear()
            p, _ = square_map(kite, p)
            assert len(searches) == 2
            for reads in searches:
                assert 1 <= len(reads) <= kite.n and len(set(reads)) == len(reads), (p, reads)


def test_kite_near_orbit_reads_few_signs_and_builds_few_quadints(monkeypatch):
    """A 200-step near ψ orbit on the Penrose kite, started 3 units out:
    its `tangent_vertex` searches read at most 4 signs a call on average
    (a scan reads all n = 4), and the whole orbit, its logged points
    included, builds at most 2 `QuadInt`s per state plus 4 per label run
    (the offsets are ints; what is left is the yielded triple and
    `point_of`).  The walk before the int offsets built about 9 per state."""
    from outerbilliards.dynamics import orbit

    model = BilliardModel(corpus_polygon("penrose_kite"))
    model.system  # built before counting
    searches = _count_sign_reads(monkeypatch)
    built = []
    real_init = scalars.QuadInt.__init__
    monkeypatch.setattr(scalars.QuadInt, "__init__",
                        lambda self, *args: built.append(1) or real_init(self, *args))
    rec = orbit(model, pt(3, Fraction(1, 3)), "psi", 200)
    labels = [e.label for e in rec.events if e.tag == "translated"]
    runs = 1 + sum(a != b for a, b in zip(labels, labels[1:]))
    assert len(labels) == 200 and runs < 150
    assert any(not isinstance(e.point.x, Fraction) for e in rec.events)
    assert sum(map(len, searches)) <= 4 * len(searches)
    assert len(built) <= 2 * len(labels) + 4 * runs
