"""Quasirationality, necklace rings, and the boundedness certificate."""

import hashlib
import inspect
import json
import textwrap
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from oracles import (
    add,
    cross,
    direction,
    dot,
    fraction_annulus_draws,
    fraction_frame,
    line,
    line_intersection,
    oracle_psi_walk,
    overlap_area_region,
    parallel_offset,
    p_vertices,
    placed_samples,
    pt,
    point_strip_jump,
    pulled_back_in_p,
    pulled_back_in_q,
    pulled_back_trapped_extent,
    q_vertices,
    reflected,
    run_states,
    ring_axis,
    ring_shift,
    ring_windows,
    scalar_in_annulus,
    scale,
    signed_offset,
    sub,
    transfer_ratio,
    vec_necklace_shift,
)
from outerbilliards import geometry, quasirational, strips
from outerbilliards.billiards import psi_walk
from outerbilliards.dynamics import orbit, strip_system_return
from outerbilliards.errors import (
    AnnulusNotFoundError,
    NotQuasirationalError,
    OnStripBoundaryError,
)
from outerbilliards.generate import random_nice_polygon
from outerbilliards.geometry import Point, homogeneous, point_of, polygon_region, vec_of
from outerbilliards.model import BilliardModel
from outerbilliards.polygon import NicePolygon
from outerbilliards.quasirational import (
    annulus_windows,
    boundedness_certificate,
    necklace,
    in_trapped_extent,
    necklace_shift,
    quasi_analyze,
)
from outerbilliards.rng import Rng
from outerbilliards.scalars import QuadExt, QuadInt, primitive, quadext, ratio, sign
from outerbilliards.verify import check_necklace_invariance
from test_billiards import CORPUS, corpus_polygon

TRIANGLE = NicePolygon.from_points([pt(0, 0), pt(1, 3), pt(4, 0)])


def sqrt5_kite():
    # kite with apex exactly sqrt(5); a nice polygon over Q(sqrt 5)
    return NicePolygon.from_points(
        [Point(Fraction(-1), Fraction(0)), Point(Fraction(0), Fraction(1)),
         Point(quadext(0, 1, 5), Fraction(0)), Point(Fraction(0), Fraction(-1))],
        quad_d=5)


def sqrt5_pentagon():
    """random_nice_polygon(5, 9000) scaled by 1 + sqrt(5): quasirational over
    Q(sqrt 5) with irrational overlap areas."""
    k = quadext(1, 1, 5)
    return NicePolygon.from_points(
        [Point(v.x * k, v.y * k) for v in random_nice_polygon(5, 9000).vertices], quad_d=5)


def regular_pentagon():
    """The affinely regular pentagon (1, 0), (0, 1), (-1, c), (-c, -c),
    (c, -1), c = (sqrt 5 - 1)/2: quasirational with irrational overlap
    areas, and (area 5/2, but (2 - c)/2 on its first three vertices) no
    affine image of a rational polygon."""
    c = quadext(Fraction(-1, 2), Fraction(1, 2), 5)
    return NicePolygon.from_points([pt(1, 0), pt(0, 1), pt(-1, c), pt(-c, -c), pt(c, -1)],
                                   quad_d=5)


# a rational point inside strip 0's m=2 annulus of `sqrt5_pentagon()`
SQRT5_PENTAGON_ANNULUS = Point(Fraction(339113161581, 155), Fraction(-1320353506152, 85))


def test_sqrt5_pentagon_quasirational_necklace_and_certificate():
    """The irrational-area branch of `quasi_analyze`: D is irrational and the
    D/A_j are the unscaled pentagon's; the necklace transfer holds at m = 1
    and 2 with every sample valid, and the certificate succeeds from an
    annulus start."""
    model = BilliardModel(sqrt5_pentagon())
    q = quasi_analyze(model.system)
    assert q.quasirational
    assert isinstance(q.D, QuadExt)
    assert all(isinstance(a, QuadExt) for a in q.areas)
    assert q.D_int == (34206210, 160277333, 4970364, 64713600, 134787240)
    assert q.D_int == quasi_analyze(BilliardModel(random_nice_polygon(5, 9000)).system).D_int
    for mm in (1, 2):
        rep = check_necklace_invariance(model, m=mm, samples=60, seed=mm)
        assert rep.passed, rep.violations[:2]
        assert rep.valid == rep.attempted == 100
    assert necklace(model.system, 0, 2 * q.D_int[0]).in_annulus(
        model.polygon.homogeneous(SQRT5_PENTAGON_ANNULUS))
    bounded, radius = boundedness_certificate(model.system, q, SQRT5_PENTAGON_ANNULUS, m=2)
    assert bounded
    assert radius == QuadExt(Fraction(404316041011637, 25405),
                             Fraction(404316041011637, 25405), 5)


def test_regular_pentagon_quasi_golden():
    """The irrational branch of `quasi_analyze` on `regular_pentagon()`,
    recorded while the areas were `QuadExt` quotients: five areas and D of
    10 + 6*sqrt 5, each D/A_j 1, and the certificate from (7/2, 1/3) at
    m = 1 with L1 radius (391 + 141*sqrt 5)/58."""
    system = BilliardModel(regular_pentagon()).system
    q = quasi_analyze(system)
    area = quadext(10, 6, 5)
    assert q.quasirational
    assert repr((q.areas, q.D, q.D_int)) == repr(((area,) * 5, area, (1,) * 5))
    certificate = boundedness_certificate(system, q, pt(Fraction(7, 2), Fraction(1, 3)), m=1)
    assert repr(certificate) == repr((True, quadext(Fraction(391, 58), Fraction(141, 58), 5)))


def assert_pentagon_symmetry(poly):
    """The map (x, y) -> (-y, x + c*y), c = (sqrt 5 - 1)/2, carries each
    strip's primitive form (A, B, C, width) onto another strip's, as one
    5-cycle: 0 < A*x + B*y - C < width goes to the strip of normal
    (c*A - B, A), the inverse transpose's image, with the same C and width.
    The overlap areas, the D_j, and each strip's path count and bounded and
    unbounded forward tile counts (a tile counts for its path's start) agree."""
    model = BilliardModel(poly)
    forms = [p.form for p in model.system.pairs]
    strip_forms = [primitive(A * wq, B * wq, C * wq, wn) for A, B, C, wn, wq in forms]
    images = [primitive(wq * (QuadInt(-1, 1, 5) * A - 2 * B), 2 * wq * A, 2 * wq * C, 2 * wn)
              for A, B, C, wn, wq in forms]
    assert all(image in strip_forms for image in images)
    sigma = [strip_forms.index(image) for image in images]
    cycle = [0]
    for _ in range(5):
        cycle.append(sigma[cycle[-1]])
    assert sorted(cycle[:5]) == list(range(5)) and cycle[5] == 0, sigma
    q = quasi_analyze(model.system)
    assert q.quasirational and len(set(q.areas)) == 1 and set(q.D_int) == {1}
    paths = Counter(p.start for p in model.paths.paths)
    tiles = Counter((model.path_of_tile(t).start, t.unbounded) for t in model.partition.tiles)
    assert len({paths[j] for j in range(5)}) == 1
    assert len({(tiles[j, False], tiles[j, True]) for j in range(5)}) == 1


def test_regular_pentagon_symmetry():
    """The map (x, y) -> (-y, x + c*y) has determinant 1 and takes each
    vertex of `regular_pentagon()` to the next, so every strip-indexed
    quantity agrees across the five strips."""
    poly = regular_pentagon()
    c = quadext(Fraction(-1, 2), Fraction(1, 2), 5)
    vs = poly.vertices
    assert [Point(-v.y, v.x + c * v.y) for v in vs] == [vs[-1], *vs[:-1]]  # clockwise order
    assert_pentagon_symmetry(poly)


def test_pentagon_symmetry_fails_off_the_regular_pentagon():
    """Negative control: (1, 0) moved to (1 + 1/1000, 0) breaks the symmetry."""
    c = quadext(Fraction(-1, 2), Fraction(1, 2), 5)
    poly = NicePolygon.from_points([pt(Fraction(1001, 1000), 0), pt(0, 1), pt(-1, c),
                                    pt(-c, -c), pt(c, -1)], quad_d=5)
    with pytest.raises(AssertionError):
        assert_pentagon_symmetry(poly)


def psi_l1_max(polygon, p, radius):
    """(top, read): the largest L1 norm |x| + |y| over p and its ψ states,
    asserting that each is at most `radius`, and the count of label runs
    read.  Read at the two ends of each run of the walk, as a run's states
    lie on a segment and the L1 ball is convex, up to 10**5 runs or the
    return of the second run's first state, past which a periodic orbit
    repeats states already read (`dynamics.orbit`)."""
    rn, rd = radius.as_integer_ratio()
    here = polygon.homogeneous(p)
    top, L = 0, here[2]

    def bound(X, Y):
        nonlocal top
        r = max(X, -X) + max(Y, -Y)
        assert sign(rn * L - r * rd) >= 0, (point_of((X, Y, L)), radius)
        top = r if sign(r - top) > 0 else top

    bound(*here[:2])
    read = 0
    for (X, Y, _), _, k, (dx, dy) in islice(psi_walk(polygon, here), 10 ** 5):
        if read == 1:
            mark = X, Y
        elif read and (X, Y) == mark:
            break
        read += 1
        bound(X, Y)
        bound(X + k * dx, Y + k * dy)
    return ratio(top, L), read


def certified_start(system, quasi, j: int, rng: Rng, w: int = 0) -> Point:
    """A start strictly inside window w of strip j's m = 1 annulus (`necklace`
    at D_j): `frame_triple` at `rng.draw(0, lo, hi)` along the axis and
    `rng.draw(1, (0, 1), (1, 1))` across the strip, asserted to be there."""
    ring = necklace(system, j, quasi.D_int[j])
    here = ring.frame_triple(rng.draw(0, *ring.window_ends()[w]), rng.draw(1, (0, 1), (1, 1)))
    assert ring.in_annulus(here)
    return point_of(here)


def oracle_l1_max(polygon, p, steps: int):
    """The largest L1 norm |x| + |y| over p and its next `steps` ψ states, or
    those up to its return to p, walked by `oracles.oracle_psi_walk`;
    asserting on the way that the states of p's ψ walk, its label runs
    expanded, are the same.  Every state is over p's L."""
    here = polygon.homogeneous(p)
    X, Y, L = here
    top = max(X, -X) + max(Y, -Y)
    runs = islice(run_states(psi_walk(polygon, here)), steps)
    for got, (there, label) in zip(runs, oracle_psi_walk(polygon, here)):
        assert got == (there, label)
        X, Y, _ = there
        r = max(X, -X) + max(Y, -Y)
        top = r if sign(r - top) > 0 else top
        if there == here:
            break
    return ratio(top, L)


def test_regular_pentagon_certified_orbits_stay_within_the_radius():
    """On each strip of `regular_pentagon()` and each of its two m = 1
    annulus windows, a start drawn by `Rng(4).split(j, w)` (`certified_start`)
    is certified, and all its ψ states stay within the certified L1 radius
    (their max is 0.35 to 0.85 of it).  Each orbit is periodic; walked by
    label runs up to its return, the one of strip 1, window 0 reads 5,556
    runs, the others 6 to 111.  Negative control: a radius just below the
    largest max trips.  Cross-check: each walk equals `oracle_psi_walk` up to
    its return to the start, and the max over those states is the one read
    at run ends."""
    poly = regular_pentagon()
    system = BilliardModel(poly).system
    q = quasi_analyze(system)
    highest, reads = None, {}
    for j in range(system.n):
        for w in (0, 1):
            p = certified_start(system, q, j, Rng(4).split(j, w), w)
            bounded, radius = boundedness_certificate(system, q, p, m=1)
            assert bounded
            top, reads[j, w] = psi_l1_max(poly, p, radius)
            assert Fraction(1, 3) < top / radius < Fraction(9, 10)
            assert oracle_l1_max(poly, p, 10 ** 5) == top
            if highest is None or top > highest[1]:
                highest = p, top
    assert reads[1, 0] == 5556 and max(r for k, r in reads.items() if k != (1, 0)) == 111
    p, top = highest
    with pytest.raises(AssertionError):
        psi_l1_max(poly, p, top * Fraction(10 ** 6 - 1, 10 ** 6))


def test_triangle_overlap_areas_all_48():
    m = BilliardModel(TRIANGLE)
    q = quasi_analyze(m.system)
    assert q.areas == (Fraction(48), Fraction(48), Fraction(48))
    assert q.quasirational
    assert q.D == 48
    assert q.D_int == (1, 1, 1)


def test_area_two_routes_agree():
    """The closed-form overlap areas equal the region kernel's, in value and
    in scalar type, over Q and Q(sqrt 5)."""
    from test_verify import penrose_kite

    polys = ([random_nice_polygon(n, seed=3 * n + 7) for n in (3, 4, 5, 6, 7)]
             + [sqrt5_kite(), penrose_kite(), sqrt5_pentagon()]
             + [random_nice_polygon(5, 9000 + i) for i in range(8)])
    for poly in polys:
        system = BilliardModel(poly).system
        q = quasi_analyze(system)
        for j in range(system.n):
            want = overlap_area_region(system, j)
            assert q.areas[j] == want and type(q.areas[j]) is type(want), (poly, j)
            assert q.areas[j] > 0


def test_rational_polygons_always_quasirational():
    for n in (3, 5, 7):
        m = BilliardModel(random_nice_polygon(n, seed=n))
        q = quasi_analyze(m.system)
        assert q.quasirational
        for j in range(n):
            d_over_a = q.D / q.areas[j]
            assert d_over_a == q.D_int[j] and q.D_int[j] >= 1


def test_least_common_multiple_is_least():
    m = BilliardModel(random_nice_polygon(5, seed=21))
    q = quasi_analyze(m.system)
    # half of D fails to be an integer multiple of some area
    half = q.D / 2
    assert any((half / a).denominator != 1 for a in q.areas)


def test_rational_areas_give_least_integer_D():
    # over Q, D is the least positive integer with every D/A_j integral, not
    # the least positive value (that would be 148/3 here, with D_j = 1)
    q = quasi_analyze(BilliardModel(random_nice_polygon(3, seed=1)).system)
    assert q.areas == (Fraction(148, 3),) * 3
    assert q.D == 148 and q.D.denominator == 1
    assert q.D_int == (3, 3, 3)


def test_sqrt5_kite_not_quasirational():
    m = BilliardModel(sqrt5_kite())
    q = quasi_analyze(m.system)
    assert not q.quasirational
    assert q.D is None and q.D_int is None
    # the computed ratio of the first two overlap areas is exactly sqrt(5)
    ratio = q.areas[0] / q.areas[1]
    assert ratio == QuadExt(0, 1, 5)
    assert q.areas[0] == QuadExt(20, 12, 5)
    assert q.areas[1] == QuadExt(12, 4, 5)


def test_necklace_zero_shift_is_polygon():
    m = BilliardModel(TRIANGLE)
    spec = necklace(m.system, 0, 0)
    assert p_vertices(spec) == m.polygon.vertices
    w = m.polygon.vertices[spec.pair.w_index]
    assert q_vertices(spec) == tuple(
        reflected(v, w) for v in m.polygon.vertices)
    assert w == m.polygon.vertices[m.system.pair(0).w_index]


def test_necklace_copies_preserve_area():
    m = BilliardModel(random_nice_polygon(5, seed=2))
    base = abs(_signed_area(m.polygon.vertices))
    for j in range(m.n):
        for mm in (-2, 1, 3):
            spec = necklace(m.system, j, mm)
            assert abs(_signed_area(p_vertices(spec))) == base
            assert abs(_signed_area(q_vertices(spec))) == base


def _signed_area(verts):
    acc = Fraction(0)
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        acc += v.x * w.y - w.x * v.y
    return acc / 2


def test_necklace_shift_spans_next_strip():
    m = BilliardModel(random_nice_polygon(6, seed=8))
    for j in range(m.n):
        d = necklace_shift(m.system, j)
        nxt = m.system.pair(j + 1)
        assert nxt.line.a * d.x + nxt.line.b * d.y == nxt.width
        # parallel to edge j
        i = m.system.pair(j).edge_index
        ed = sub(m.polygon.vertices[(i + 1) % m.n], m.polygon.vertices[i])
        assert cross(d, ed) == 0


def test_transfer_ratio_magnitude_and_cycle_sign():
    """Carrying a ring one strip ahead scales the shift exponent by exactly
    A_j / A_{j+1} in magnitude; the signs multiply to -1 around the cycle
    (one full turn lands on the other side of the polygon)."""
    for n in (3, 4, 5, 6, 7):
        m = BilliardModel(random_nice_polygon(n, seed=9 * n + 1))
        q = quasi_analyze(m.system)
        prod = 1
        for j in range(n):
            lam = transfer_ratio(m.system, j)
            assert abs(lam) == q.areas[j] / q.areas[(j + 1) % n]
            prod *= 1 if lam > 0 else -1
        assert prod == -1


def test_necklace_invariance_sampled_and_exact():
    for seed in (5, 6):
        m = BilliardModel(random_nice_polygon(5, seed=seed))
        for mm in (1, 2):
            rep = check_necklace_invariance(m, m=mm, samples=20, seed=seed)
            assert rep.passed, rep.violations[:2]


@pytest.mark.parametrize("poly_key", ["pentagon", "sqrt5_kite"])
def test_ring_copies_are_rigid_motions_of_one_region(poly_key):
    """P's open region translated (and point-reflected for Q) is the ring
    copy's own canonical region: same vertices in the same order, hence the
    same samples.  The ring's `carry` moves P's vertex triples onto the
    copy's vertices."""
    poly = random_nice_polygon(5, seed=21) if poly_key == "pentagon" else sqrt5_kite()
    system = BilliardModel(poly).system
    base = polygon_region(poly.vertices, open_region=True)
    for j in range(system.n):
        for mm in (-2, 1, 3):
            spec = necklace(system, j, mm)
            offset = homogeneous(scale(ring_shift(spec), spec.m))
            centre = poly.homogeneous(poly.vertices[spec.pair.w_index])
            for kind, moved, verts in (
                    ("P", base.translate(offset), p_vertices(spec)),
                    ("Q", base.point_reflect(centre).translate(offset), q_vertices(spec))):
                ref = polygon_region(verts, open_region=True)
                assert moved == ref
                assert moved.vertices() == ref.vertices()
                assert ([point_of(t) for t in moved.sample_points(3, seed=j)]
                        == [point_of(t) for t in ref.sample_points(3, seed=j)])
                carried = tuple(point_of(spec.carry((X, Y, poly.den), kind))
                                for X, Y in poly.lattice)
                assert repr(carried) == repr(verts)


def test_necklace_check_builds_no_polygon_region(monkeypatch):
    import outerbilliards

    model = BilliardModel(random_nice_polygon(5, seed=5))
    model.system  # built outside the count
    calls = []
    original = polygon_region

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name in ("geometry", "quasirational", "verify"):
        module = getattr(outerbilliards, name)
        if getattr(module, "polygon_region", None) is original:
            monkeypatch.setattr(module, "polygon_region", counted)
    rep = check_necklace_invariance(model, m=1, samples=20, seed=5)
    assert rep.passed
    assert calls == []  # P's vertex cycle is its lattice; the copies are carried


def test_necklace_invariance_wrong_exponent_fails():
    m = BilliardModel(random_nice_polygon(5, seed=5))
    rep = check_necklace_invariance(m, m=1, samples=16, seed=1,
                                    exponent_offset=1)
    assert not rep.passed


def test_annulus_windows_and_membership():
    m = BilliardModel(TRIANGLE)
    q = quasi_analyze(m.system)
    for j in range(m.n):
        (a1, b1), (a2, b2) = annulus_windows(m.system, j, q.D_int[j])
        assert a1 < b1 and a2 < b2  # D_j = 1 rings leave a gap here
    assert not necklace(m.system, 0, 1).in_annulus(TRIANGLE.homogeneous(pt(1, 1)))  # in P


def test_boundedness_certificate_triangle():
    m = BilliardModel(TRIANGLE)
    q = quasi_analyze(m.system)
    # hunt a certified point inside strip 0's m=1 annulus
    ring = necklace(m.system, 0, q.D_int[0])
    (a1, b1), _ = ring_windows(ring)
    p = point_of(ring.frame_triple(((a1 + b1) / 2).as_integer_ratio(),
                                   (Fraction(7, 3) / ring.pair.width).as_integer_ratio()))
    assert ring.in_annulus(TRIANGLE.homogeneous(p))
    bounded, radius = boundedness_certificate(m.system, q, p, m=1)
    assert bounded
    assert radius > 0
    # empirical confirmation: a long orbit stays within the L1 radius
    rec = orbit(m, p, "psi", budget=3000)
    for e in rec.events:
        assert abs(e.point.x) + abs(e.point.y) <= radius
    assert rec.final.tag == "budget-exhausted"


def test_certificate_radius_monotone_in_m():
    m = BilliardModel(TRIANGLE)
    q = quasi_analyze(m.system)
    ring = necklace(m.system, 0, q.D_int[0])
    (a1, b1), _ = ring_windows(ring)
    p = point_of(ring.frame_triple(((a1 + b1) / 2).as_integer_ratio(),
                                   (Fraction(7, 3) / ring.pair.width).as_integer_ratio()))
    _, r1 = boundedness_certificate(m.system, q, p, m=1)
    _, r2 = boundedness_certificate(m.system, q, p, m=2)
    _, r3 = boundedness_certificate(m.system, q, p, m=3)
    assert r1 <= r2 <= r3


def test_certificate_errors():
    kite = BilliardModel(sqrt5_kite())
    qk = quasi_analyze(kite.system)
    with pytest.raises(NotQuasirationalError):
        boundedness_certificate(kite.system, qk, pt(10, 10), m=1)
    m = BilliardModel(TRIANGLE)
    q = quasi_analyze(m.system)
    with pytest.raises(AnnulusNotFoundError):
        boundedness_certificate(m.system, q, pt(1, 1), m=1)  # inside P
    with pytest.raises(ValueError):
        boundedness_certificate(m.system, q, pt(1, 1), m=0)


def test_strip_system_maps_polygon_copy_to_itself():
    """The zero-shift copy: interior polygon points simply advance the index."""
    m = BilliardModel(random_nice_polygon(4, seed=4))
    vs = m.polygon.vertices
    inner = add(vs[0], scale(sub(vs[2], vs[0]), Fraction(1, 3)))
    assert m.polygon.point_location(inner) == 1
    for j in range(m.n):
        (land, index), steps = strip_system_return(m.system, m.polygon.homogeneous(inner), j,
                                                   10 ** 6)
        assert point_of(land) == inner
        assert steps == 1
        assert index == (j + 1) % m.n


@pytest.mark.parametrize("poly_key", ["pentagon", "sqrt5_kite"])
def test_necklace_membership_matches_region_route(poly_key):
    """Ring-copy membership pulled back to P agrees with building each copy's
    open region and classifying against it (the reference route here)."""
    poly = random_nice_polygon(5, seed=21) if poly_key == "pentagon" else sqrt5_kite()
    system = BilliardModel(poly).system
    checked = inside = 0
    for j in range(system.n):
        for mm in range(-3, 4):
            spec = necklace(system, j, mm)
            p_ref = polygon_region(p_vertices(spec), open_region=True)
            q_ref = polygon_region(q_vertices(spec), open_region=True)
            pts = []
            for verts, ref in ((p_vertices(spec), p_ref), (q_vertices(spec), q_ref)):
                k = len(verts)
                pts.extend(verts)
                pts.extend(Point((verts[i].x + verts[(i + 1) % k].x) / 2,
                                 (verts[i].y + verts[(i + 1) % k].y) / 2)
                           for i in range(k))
                pts.extend(map(point_of, ref.sample_points(4, seed=100 + 7 * j + mm)))
            pts += [add(p, scale(ring_shift(spec), Fraction(1, 3))) for p in pts]
            for p in pts:
                here = poly.homogeneous(p)
                in_p = p_ref.contains(here) == 1
                in_q = q_ref.contains(here) == 1
                assert (spec.in_p(here), spec.in_q(here)) == (in_p, in_q), (j, mm, p)
                assert spec.contains(here) == (in_p or in_q)
                checked += 1
                inside += in_p or in_q
    assert checked == system.n * 7 * 2 * (4 * system.n + 8)
    assert 0 < inside < checked


@pytest.mark.parametrize("poly_key", ["pentagon", "sqrt5_kite"])
def test_ring_axis_range_closed_form_matches_ring_construction(poly_key):
    """The closed-form ring window (the spec's lo, hi: the range of P and Q
    along the shift, plus m*dd) equals the min/max over the 2n translated
    vertices of the ring's copies (the reference route, kept only here)."""
    poly = random_nice_polygon(5, seed=21) if poly_key == "pentagon" else sqrt5_kite()
    system = BilliardModel(poly).system
    for j in range(system.n):
        base = necklace(system, j, 0)
        d, (lo, hi, dd) = ring_shift(base), ring_axis(base)
        for mm in range(-3, 4):
            spec = necklace(system, j, mm)
            vals = [d.x * v.x + d.y * v.y for v in p_vertices(spec) + q_vertices(spec)]
            assert (lo + mm * dd, hi + mm * dd) == (min(vals), max(vals)), (j, mm)


@pytest.mark.parametrize("poly_key", ["pentagon", "sqrt5_kite"])
def test_frame_point_closed_form_matches_line_route(poly_key):
    """The ring's closed-form frame point equals the meeting point of the
    offset strip line and the axis line (the reference route, kept only
    here), in value and in scalar type."""
    poly = random_nice_polygon(5, seed=21) if poly_key == "pentagon" else sqrt5_kite()
    system = BilliardModel(poly).system
    for j in range(system.n):
        ring = necklace(system, j, 2)
        (d, width), (lo, hi, dd) = (ring_shift(ring), ring.pair.width), ring_axis(ring)
        for s in (lo, hi + 2 * dd, (lo + hi) / 3,
                  quadext(Fraction(-7, 2), 3, 5)):
            for off in (Fraction(0), width, width * Fraction(2, 7), Fraction(-5, 3)):
                want = line_intersection(parallel_offset(ring.pair.line, off), line(d.x, d.y, s))
                got = point_of(ring.frame_triple(s.as_integer_ratio(),
                                                 (off / width).as_integer_ratio()))
                assert repr(got) == repr(want), (j, s, off)
                assert dot(d, got) == s and signed_offset(ring.pair.line, got) == off


def test_necklace_check_computes_shift_per_strip_not_per_sample(monkeypatch):
    import outerbilliards.quasirational as quasirational

    model = BilliardModel(random_nice_polygon(5, seed=5))
    model.system  # built outside the count
    calls = []
    original = quasirational._shift

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(quasirational, "_shift", counted)
    counts = []
    for samples in (12, 60):
        calls.clear()
        assert check_necklace_invariance(model, m=1, samples=samples, seed=5).passed
        counts.append(len(calls))
    assert counts == [model.n] * 2  # one ring per strip, source and target alike


ANNULUS_KEYS = ([f"bench{i}" for i in range(8)] + [f"n{n}" for n in range(3, 9)]
                + ["sqrt5_pentagon"])


@pytest.mark.parametrize("key", ANNULUS_KEYS)
def test_necklace_check_draws_annulus_samples_inside_the_annulus(monkeypatch, key):
    """Each annulus sample of the check, a frame point strictly inside a
    nonempty window and strictly inside the strip, is in its ring's
    annulus, so the check needs no membership filter; drawn on (num, den)
    pairs, the samples are, in order, the frame points the `Fraction` route
    draws (`oracles.fraction_annulus_draws`: `Rng.between` the window's ends
    and the width times `Rng.unit`).  Polygons: the bench necklace
    pentagons, random_nice_polygon(n, n), the Q(sqrt 5) pentagon."""
    if key == "sqrt5_pentagon":
        poly = sqrt5_pentagon()
    elif key.startswith("bench"):
        poly = random_nice_polygon(5, 9000 + int(key[5:]))
    else:
        poly = random_nice_polygon(int(key[1:]), int(key[1:]))
    model = BilliardModel(poly)
    drawn = []
    frame_triple = quasirational.NecklaceSpec.frame_triple

    def recorded(ring, s, off):
        here = frame_triple(ring, s, off)
        drawn.append((ring, here))
        return here

    wants = {mm: fraction_annulus_draws(model, mm, samples=100, seed=mm) for mm in (1, 2, 3)}
    monkeypatch.setattr(quasirational.NecklaceSpec, "frame_triple", recorded)
    for mm, want in wants.items():
        drawn.clear()
        assert check_necklace_invariance(model, m=mm, samples=100, seed=mm).passed
        assert drawn
        assert all(ring.in_annulus(here) for ring, here in drawn), mm
        assert repr([point_of(here) for _, here in drawn]) == repr(want), mm


# the lattice necklace against the Point routes kept in `oracles`: copy
# membership pulled back to P, the trapped extent on scalars, and the
# `Fraction` strip jump


LATTICE_KEYS = [f"n{n}" for n in range(3, 8)] + ["sqrt5_kite"]


def _lattice_polygon(key):
    return sqrt5_kite() if key == "sqrt5_kite" else random_nice_polygon(int(key[1:]), seed=11)


def _copy_points(verts):
    """(boundary, inner): a copy's vertices and the points a third of the
    way along its edges, and points a fifth of the way to its centroid."""
    k = len(verts)
    mid = Point(sum(v.x for v in verts) / k, sum(v.y for v in verts) / k)
    boundary = list(verts) + [add(v, scale(sub(verts[(i + 1) % k], v), Fraction(1, 3)))
                              for i, v in enumerate(verts)]
    return boundary, [add(v, scale(sub(mid, v), Fraction(1, 5))) for v in verts]


def _extent_points(ring):
    """Frame points on and around the ends of the trapped extent, on the
    strip's lines and inside the strip."""
    lo, hi, dd = ring_axis(ring)
    shift = ring.m * dd
    ends = (lo - shift, hi + shift)
    width = ring.pair.width
    return [point_of(ring.frame_triple(s.as_integer_ratio(), (off / width).as_integer_ratio()))
            for s in ends + (ends[0] - Fraction(1, 7), ends[1] + Fraction(1, 7),
                             (ends[0] + ends[1]) / 2)
            for off in (Fraction(0), width / 3, width / 2, width)]


def _annulus_points(ring):
    """Frame points on and between the ends of both annulus windows, on the
    strip's lines and inside the strip."""
    width = ring.pair.width
    ends = [s for window in ring_windows(ring) for s in window]
    return [point_of(ring.frame_triple(s.as_integer_ratio(), (off / width).as_integer_ratio()))
            for s in ends + [(a + b) / 2 for a, b in ring_windows(ring)]
            for off in (Fraction(0), width / 3, width)]


def _jump_outcome(jump, pair, p):
    try:
        return repr(jump(pair, p))
    except OnStripBoundaryError as exc:
        return ("OnStripBoundaryError", exc.point, exc.stage)


def _jump_points(polygon, pair):
    """Offsets at exact multiples of the width (on the edge line, and moved
    along it), on the centreline, and generic ones, near and far."""
    along = direction(pair.line)
    v, w, V = polygon.vertices[pair.v_index], polygon.vertices[pair.w_index], vec_of(pair.V)
    pts = []
    for k in range(-3, 4):
        pts += [add(v, scale(V, k)), add(add(v, scale(V, k)), scale(along, Fraction(2, 3))),
                add(w, scale(V, k)),
                add(add(w, scale(V, Fraction(k, 3))), scale(along, Fraction(1, 5))),
                add(v, scale(V, 10 ** 4 * k + Fraction(2, 7)))]
    # a Q(sqrt 5) point beside every one, on rational polygons too
    return pts + [Point(p.x + QuadExt(0, 1, 5) / 7, p.y) for p in pts]


@pytest.mark.parametrize("poly_key", LATTICE_KEYS)
def test_lattice_necklace_matches_point_route(poly_key):
    """Copy membership, the trapped extent and `strip_jump` on integer forms
    on a Point's lattice triple equal their Point routes on every strip's
    rings at m = -3..3.  Copy vertices and edge points are never interior,
    and offsets at exact multiples of a width raise at the same Point and
    stage."""
    poly = _lattice_polygon(poly_key)
    system = BilliardModel(poly).system
    inside = trapped = annulus = 0
    for j in range(system.n):
        for mm in range(-3, 4):
            ring = quasirational.necklace(system, j, mm)
            for verts in (p_vertices(ring), q_vertices(ring)):
                boundary, inner = _copy_points(verts)
                for p in boundary:
                    assert not ring.contains(poly.homogeneous(p)), (j, mm, p)
                shifted = [add(p, scale(ring_shift(ring), Fraction(1, 3))) for p in inner]
                for p in boundary + inner + shifted:
                    want = (pulled_back_in_p(ring, p), pulled_back_in_q(ring, p))
                    here = poly.homogeneous(p)
                    assert (ring.in_p(here), ring.in_q(here)) == want, (j, mm, p)
                    assert ring.contains(here) == any(want)
                    inside += any(want)
            for p in _annulus_points(ring):
                want = scalar_in_annulus(ring, p)
                assert ring.in_annulus(poly.homogeneous(p)) == want
                annulus += want
            other = ring.at(-mm)
            copies = (p_vertices(ring), q_vertices(ring), p_vertices(other), q_vertices(other))
            for p in _extent_points(ring) + [p for verts in copies for p in _copy_points(verts)[1]]:
                want = pulled_back_trapped_extent(ring, p)
                assert in_trapped_extent(ring, poly.homogeneous(p)) == want, (j, mm, p)
                trapped += want
    assert inside and trapped and annulus
    raise_points = set()
    for pair in system.pairs:
        for p in _jump_points(poly, pair):
            want = _jump_outcome(point_strip_jump, pair, p)
            try:
                landed, k = strips.strip_jump(pair, poly.homogeneous(p))
            except OnStripBoundaryError as exc:
                assert ("OnStripBoundaryError", exc.point, exc.stage) == want
                raise_points.add(exc.point == p)
            else:
                assert repr((point_of(landed), k)) == want
    assert raise_points == {True, False}


@pytest.mark.parametrize("module, name, old, new", [
    (quasirational, "_resolved", "C + m * D", "C"),
    (quasirational, "necklace", "(-a * den, -b * den,", "(a * den, b * den,"),
    (strips.PinwheelPair, "offsets", "wn * (L // wq)", "wn"),
    (quasirational, "necklace", "(ax, ay, hi * sq, -rate)", "(ax, ay, hi * sq, 0)"),
    (quasirational, "necklace", "(ax, ay, lo * sq, -rate)", "(ax, ay, lo * sq, 0)"),
], ids=["dropped-shift", "unnegated-q", "dropped-rescale", "unshifted-window",
        "unshifted-extent"])
def test_lattice_necklace_parity_catches_broken_forms(monkeypatch, module, name, old, new):
    """Negative controls: ring forms resolved at m with the m*D term dropped, Q's
    edge form left unnegated, a strip width (`PinwheelPair.offsets`) left on its
    denominator instead of rescaled to the point's L, an annulus window end
    left at the base ring instead of the -m ring, and the trapped extent's
    lower end left at the base ring, must each fail the parity test."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(module, name, namespace[name])
    with pytest.raises(AssertionError):
        test_lattice_necklace_matches_point_route("n4")


SAMPLE_KEYS = [f"pentagon-{i}" for i in range(8)] + ["sqrt5_pentagon"]


def _sample_polygon(key):
    if key == "sqrt5_pentagon":
        return sqrt5_pentagon()
    return random_nice_polygon(5, 9000 + int(key.split("-")[1]))


@pytest.mark.parametrize("poly_key", SAMPLE_KEYS)
def test_ring_samples_match_placed_region_route(poly_key):
    """A copy's samples, drawn on P's lattice and carried by the copy's
    rigid motion on integers, equal pointwise (in value and scalar type)
    those of P's region moved onto the copy and sampled there, for every
    strip, P and Q, at the exponents m*D_j, m = 1, 2, 3."""
    poly = _sample_polygon(poly_key)
    system = BilliardModel(poly).system
    quasi = quasi_analyze(system)
    base = polygon_region(poly.vertices, open_region=True)
    for j in range(system.n):
        for mm in (1, 2, 3):
            ring = necklace(system, j, mm * quasi.D_int[j])
            for kind in ("P", "Q"):
                got = tuple(map(point_of, ring.samples(kind, 3, seed=7 * j + mm)))
                want = placed_samples(ring, base, kind, 3, seed=7 * j + mm)
                assert repr(got) == repr(want), (j, mm, kind)


def _patch_first_vertex(monkeypatch, start):
    """The ring's sampler (`barycentric_triples` as `NecklaceSpec.samples`
    calls it; the region route keeps its own) with `start(cycle)` in place
    of `_from_min(cycle)`, picking where each carried cycle starts."""
    source = textwrap.dedent(inspect.getsource(geometry.barycentric_triples))
    old = "_from_min(cycle)"
    assert source.count(old) == 1
    namespace = {**vars(geometry), "start": start}
    exec(source.replace(old, "start(cycle)"), namespace)
    monkeypatch.setattr(quasirational, "barycentric_triples", namespace["barycentric_triples"])


def test_ring_samples_parity_catches_q_cycle_from_least_vertex(monkeypatch):
    """Negative control: each carried cycle started at its largest vertex,
    where a half turn carries P's least one (so Q's weights sit as they do
    on P's cycle started at its least vertex), not at its least as the
    copy's own region's cycle is, must fail the sample parity test."""
    def from_largest(cycle):
        keys = geometry._point_keys(cycle)
        k = max(range(len(cycle)), key=keys.__getitem__)
        return cycle[k:] + cycle[:k]

    _patch_first_vertex(monkeypatch, from_largest)
    with pytest.raises(AssertionError):
        test_ring_samples_match_placed_region_route("pentagon-0")


def test_ring_samples_parity_catches_unrotated_p_cycle(monkeypatch):
    """Negative control: each carried cycle left unrotated, P's weights on
    its copy's cycle from vertex 0, not from its least vertex where P's
    region's cycle starts, must fail the sample parity test on a polygon
    whose least vertex is not vertex 0."""
    def least_is_not_first(key):
        poly = _sample_polygon(key)
        return polygon_region(poly.vertices, open_region=True).vertices()[0] != poly.vertices[0]

    keys = [k for k in SAMPLE_KEYS if least_is_not_first(k)]
    assert keys
    _patch_first_vertex(monkeypatch, lambda cycle: cycle)
    with pytest.raises(AssertionError):
        test_ring_samples_match_placed_region_route(keys[0])


FRAME_KEYS = CORPUS + SAMPLE_KEYS


@pytest.mark.parametrize("poly_key", FRAME_KEYS)
def test_ring_frame_matches_fraction_frame(poly_key):
    """The ring's frame, read off P's lattice in ints, equals the `Fraction`
    frame (`oracles.fraction_frame`) on every strip at m = -3..3: lo, hi and
    dd in value and scalar type, and each P, Q, extent and window form at m
    a positive multiple of the oracle's (the same `primitive`).  Polygons:
    the `test_billiards` corpus, the bench necklace pentagons and the
    Q(sqrt 5) pentagon."""
    poly = _sample_polygon(poly_key) if poly_key in SAMPLE_KEYS else corpus_polygon(poly_key)
    system = BilliardModel(poly).system
    for j in range(system.n):
        lo, hi, dd, groups = fraction_frame(system, j)
        for mm in range(-3, 4):
            ring = quasirational.necklace(system, j, mm)
            got = [(type(x), x) for x in ring_axis(ring)]
            assert got == [(type(x), x) for x in (lo, hi, dd)], (j, mm)
            want = [[primitive(A, B, C + mm * D) for A, B, C, D in forms] for forms in groups]
            assert [[primitive(*f) for f in forms] for forms in ring.forms] == want, (j, mm)


@pytest.mark.parametrize("old, new", [
    ("(ax, ay, hi * sq, -rate)", "(ax, ay, hi * sq, 0)"),
    ("(ax, ay, lo * sq, -rate)", "(ax, ay, lo * sq, 0)"),
    ("- x for x in vals", "+ x for x in vals"),
], ids=["unshifted-window", "unshifted-extent", "unreflected-q-range"])
def test_ring_frame_parity_catches_broken_frame(monkeypatch, old, new):
    """Negative controls: an annulus window end or the trapped extent's lower
    end left at the base ring, and Q's axis range not reflected through the
    centre, must each fail the frame parity test."""
    source = textwrap.dedent(inspect.getsource(quasirational.necklace))
    assert source.count(old) == 1
    namespace = dict(vars(quasirational))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(quasirational, "necklace", namespace["necklace"])
    with pytest.raises(AssertionError):
        test_ring_frame_matches_fraction_frame("pentagon-0")


@pytest.mark.parametrize("poly_key", FRAME_KEYS)
def test_shift_triple_matches_vec_route(poly_key):
    """The shift's triple, read off edge j's lattice direction and strip
    j+1's form, is the `Vec` route's shift (`oracles.vec_necklace_shift`) in
    lowest terms; it and the `necklace_shift` view equal that route in value
    and scalar type, and the ring's frame carries the same triple.  Polygons:
    the `test_billiards` corpus (both Q(sqrt 5) kites included), the bench
    necklace pentagons and the Q(sqrt 5) pentagon."""
    poly = _sample_polygon(poly_key) if poly_key in SAMPLE_KEYS else corpus_polygon(poly_key)
    system = BilliardModel(poly).system
    for j in range(system.n):
        want = vec_necklace_shift(system, j)
        triple = quasirational._shift(system, j)
        assert triple == homogeneous(want), j
        assert necklace(system, j, 1).frame[0] == triple, j
        for got in (vec_of(triple), necklace_shift(system, j)):
            assert ([(type(x), x) for x in (got.x, got.y)]
                    == [(type(x), x) for x in (want.x, want.y)]), j


def test_shift_parity_catches_dropped_width_denominator(monkeypatch):
    """Negative control: the shift's denominator with strip j+1's width
    denominator wq dropped must fail the shift parity test, on a polygon
    where some wq is not 1 (n8: 11)."""
    assert any(pair.form[4] != 1 for pair in BilliardModel(corpus_polygon("n8")).system.pairs)
    source = textwrap.dedent(inspect.getsource(quasirational._shift))
    old = "cleared(wn, wq * (A * DX + B * DY))"
    assert source.count(old) == 1
    namespace = dict(vars(quasirational))
    exec(source.replace(old, "cleared(wn, A * DX + B * DY)"), namespace)
    monkeypatch.setattr(quasirational, "_shift", namespace["_shift"])
    with pytest.raises(AssertionError):
        test_shift_triple_matches_vec_route("n8")


def necklace_golden_text(n):
    """Every necklace report (m = 1..3, exponent offsets 0 and 1) and a
    certificate from the middle of the first open annulus window, on
    random_nice_polygon(n, s) for s = 0..5."""
    lines = []
    for s in range(6):
        model = BilliardModel(random_nice_polygon(n, s))
        system = model.system
        quasi = quasi_analyze(system)
        for mm in (1, 2, 3):
            for off in (0, 1):
                rep = check_necklace_invariance(model, m=mm, samples=12, seed=mm,
                                                exponent_offset=off)
                lines.append(json.dumps(rep.to_json(), sort_keys=True))
            rings = (necklace(system, j, mm * quasi.D_int[j]) for j in range(n))
            ring = next(r for r in rings if ring_windows(r)[0][0] < ring_windows(r)[0][1])
            (a1, b1), _ = ring_windows(ring)
            p = point_of(ring.frame_triple(((a1 + b1) / 2).as_integer_ratio(), (1, 3)))
            lines.append(f"{ring.pair.index} {p!r} "
                         f"{boundedness_certificate(system, quasi, p, mm)!r}")
    return "\n".join(lines)


# Truncated sha256 of `necklace_golden_text(n)`, recorded before the rings
# carried their strip's frame
NECKLACE_GOLDEN = {
    3: "53310bb9bbee1cb6",
    4: "6bb0b035a59ded08",
    5: "da76b5310ed92d26",
    6: "ca43e9fa9d4142ef",
    7: "4be70fd4242fa54b",
}


@pytest.mark.parametrize("n", sorted(NECKLACE_GOLDEN))
def test_necklace_reports_and_certificates_golden(n):
    text = necklace_golden_text(n)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == NECKLACE_GOLDEN[n]
