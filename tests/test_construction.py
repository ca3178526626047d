"""A polygon's construction on its lattice pairs against the Point route in
`tests/oracles.py`: validation, orientation, edge lines, vertex offsets,
strip order and pairs, `far_radius`, `polygon_region` and the generator, in
value and type, over rational polygons, their reversals and their Q(sqrt d)
images for d = 2, 3, 5 and 13."""

import inspect
import textwrap

import pytest

import oracles
from oracles import pt
from test_billiards import CORPUS, corpus_polygon
from test_polygon import _star
from outerbilliards import generate as generate_module
from outerbilliards import geometry as geometry_module
from outerbilliards import polygon as polygon_module
from outerbilliards import strips as strips_module
from outerbilliards.dynamics import far_radius
from outerbilliards.errors import PolygonError
from outerbilliards.generate import random_nice_polygon
from outerbilliards.geometry import Point, Vec, polygon_region
from outerbilliards.model import BilliardModel
from outerbilliards.polygon import NicePolygon
from outerbilliards.scalars import quadext, ratio
from outerbilliards.strips import build_pinwheel_system

# the generator's cases: seeds 0..59 for each n, the bench's 7000 + 10n and its pentagons
GENERATED = [(n, s) for n in range(3, 13) for s in [*range(60), 7000 + 10 * n]]
GENERATED += [(5, s) for s in range(9000, 9008)]


def _rational_cycles(seeds: int = 60):
    """The clockwise vertex cycles of the rational CORPUS polygons, then of
    the `GENERATED` ones whose seed is a bench pool's or below `seeds`."""
    keys = [k for k in CORPUS if corpus_polygon(k).quad_d is None]
    return ([corpus_polygon(k).vertices for k in keys]
            + [random_nice_polygon(n, s).vertices for n, s in GENERATED if not seeds <= s < 60])


def _image(cycle, d: int, reverses: bool):
    """The cycle under [[2, r], [1, r]] (orientation kept) or, where
    reverses, [[1, r], [2, 1]], r = sqrt(d)."""
    r = quadext(0, 1, d)
    if reverses:
        return tuple(Point(v.x + r * v.y, 2 * v.x + v.y) for v in cycle)
    return tuple(Point(2 * v.x + r * v.y, v.x + r * v.y) for v in cycle)


def _cycles(family: str) -> list:
    """The input cycles of a family: `rational` is every rational cycle and
    its reversal, together with both Q(sqrt 5) kites and theirs; `sqrt<d>`
    is the image under both maps of `_image` of each rational cycle with a
    seed below 5 or a bench pool's (and of the kites where d = 5), in about
    a tenth of the time all 60 seeds would take."""
    kites = [corpus_polygon(k).vertices for k in ("sqrt5_kite", "penrose_kite")]
    if family == "rational":
        return [c[::k] for c in _rational_cycles() + kites for k in (1, -1)]
    d, rational = int(family[4:]), _rational_cycles(seeds=5)
    if d == 5:
        rational += kites
    return [_image(c, d, reverses) for c in rational for reverses in (False, True)]


def check_construction(points):
    """Every quantity `NicePolygon.from_points(points)` and the pinwheel
    system build, against the Point route, in value and type: by repr,
    which tells an int from a QuadInt and a Fraction from a QuadExt."""
    poly = NicePolygon.from_points(points)
    assert poly.reoriented == oracles.point_reoriented(points)
    assert repr(poly.vertices) == repr(oracles.point_from_points(points))
    edges = oracles.point_edges(poly.vertices)
    assert repr([(e.ints, e.s, e) for e in poly.edges]) == repr([(e.ints, e.s, e) for e in edges])
    offsets = tuple(oracles.offset_parts(poly, [a * X + b * Y - c * poly.den
                                                for a, b, c in (e.ints for e in edges)])
                    for X, Y in poly.lattice)
    assert repr(poly.vertex_offsets) == repr(offsets)
    model = BilliardModel(poly)
    pairs, ref = model.system.pairs, oracles.point_pinwheel_pairs(poly)
    assert repr([(p, p.form) for p in pairs]) == repr([(p, p.form) for p in ref])
    for p in pairs:  # a strip's line, a view of its form, is its edge's over |leading coefficient|
        e = edges[p.edge_index]
        lead = abs(e.a if e.a != 0 else e.b)
        assert (p.line.a, p.line.b, p.line.c) == (e.a / lead, e.b / lead, e.c / lead)
    assert repr(ratio(*far_radius(model))) == repr(oracles.point_far_radius(model))
    for open_region in (False, True):
        got = polygon_region(poly.vertices, open_region)
        want = oracles.point_polygon_region(poly.vertices, open_region)
        assert repr((got.canonical_key(), got.vertex_triples)) == repr(
            (want.canonical_key(), want.vertex_triples))


@pytest.mark.parametrize("family", ["rational", "sqrt2", "sqrt3", "sqrt5", "sqrt13"])
def test_construction_matches_the_point_route(family):
    for cycle in _cycles(family):
        check_construction(cycle)


def test_generator_matches_the_vec_route():
    for n, s in GENERATED:
        assert repr(random_nice_polygon(n, s).vertices) == repr(
            oracles.vec_random_nice_polygon(n, s))


_TRI = [(0, 0), (1, 3), (4, 0)]
REJECTED = [
    *[("from_points", _star(n, k)[::o]) for n, k in [(5, 2), (7, 2), (7, 3)] for o in (1, -1)],
    ("from_points", [(0, 0), (1, 0), (2, 0), (0, 1)]),  # collinear
    ("from_points", [(0, 0), (1, 3), (1, 3), (4, 0)]),  # a consecutive repeat
    ("from_points", [(0, 0), (1, 3), (0, 0), (4, 0)]),  # a repeat, not consecutive
    ("from_points", _TRI + _TRI),  # a repeat cycle winding twice
    ("from_points", [(0, 0), (2, 1), (4, 0), (2, 6), (3, 1)]),  # reflex
    ("from_points", [(0, 0), (0, 1), (1, 1), (1, 0)]),  # a square
    ("from_points", [(0, 0), (1, 1), (1, 0), (0, 1)]),  # a zero-area bow-tie
    ("direct", _TRI[::-1]),  # counterclockwise
    *[("from_points", _TRI[:k]) for k in range(3)],
]


def _raised(build, *args):
    with pytest.raises(PolygonError) as err:
        build(*args)
    return type(err.value), str(err.value), tuple(err.value.indices)


@pytest.mark.parametrize("build, xys", REJECTED)
@pytest.mark.parametrize("d", [None, 3, 13])
def test_rejections_match_the_point_route(build, xys, d):
    """Class, message and indices, on the cycle or (d given) its
    orientation-keeping Q(sqrt d) image."""
    points = tuple(pt(x, y) for x, y in xys)
    points = points if d is None else _image(points, d, False)
    make = NicePolygon if build == "direct" else NicePolygon.from_points
    assert _raised(make, points) == _raised(oracles.point_from_points, points,
                                            build == "direct")


def test_polygon_region_refuses_a_repeated_vertex():
    """A ValueError on both routes, as `Line` refuses (a, b) = (0, 0)."""
    points = [pt(0, 0), pt(0, 0), pt(1, 3), pt(4, 0)]
    for route in (polygon_region, oracles.point_polygon_region):
        with pytest.raises(ValueError):
            route(points)


def test_construction_does_no_point_or_vec_arithmetic(monkeypatch):
    """With `Vec`'s and `Point`'s arithmetic operators raising, every CORPUS
    polygon is built through `from_points`, with its pinwheel system and
    `polygon_region` of its vertices."""
    cycles = [corpus_polygon(k).vertices for k in CORPUS]

    def refuse(*args):
        raise AssertionError("Point or Vec arithmetic")

    for cls, names in ((Vec, ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "cross",
                              "dot")), (Point, ("__add__", "__sub__"))):
        for name in names:
            if name in vars(cls):  # the operators are gone; a returning one is refused
                monkeypatch.setattr(cls, name, refuse)
    for cycle in cycles:
        poly = NicePolygon.from_points(cycle[::-1])
        build_pinwheel_system(poly)
        polygon_region(poly.vertices)
        polygon_region(poly.vertices, open_region=True)


# ---------------------------------------------------------------------------
# negative controls: a source mutation each, which the parity tests must catch


def _mutated(module, name: str, old: str, new: str):
    """module's function `name` recompiled with `old` (present exactly once) replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[name]


def test_parity_catches_den_dropped_from_the_edge_line(monkeypatch):
    mutant = _mutated(geometry_module, "edge_lines", "(HY - Y) * den", "(HY - Y)")
    monkeypatch.setattr(geometry_module, "edge_lines", mutant)
    monkeypatch.setattr(polygon_module, "edge_lines", mutant)
    with pytest.raises(AssertionError):
        test_construction_matches_the_point_route("rational")


def test_parity_catches_the_slope_fold_dropped(monkeypatch):
    mutant = _mutated(geometry_module, "slope_angle_cmp",
                      "*(w if _upper(w) else (-w[0], -w[1]) for w in (u, v))", "u, v")
    monkeypatch.setattr(strips_module, "slope_angle_cmp", mutant)
    with pytest.raises(AssertionError):
        test_construction_matches_the_point_route("rational")


def test_parity_catches_the_generator_unrecentred(monkeypatch):
    mutant = _mutated(generate_module, "_recentred", "n * x - sx", "x")
    monkeypatch.setattr(generate_module, "_recentred", mutant)
    with pytest.raises(AssertionError):
        test_generator_matches_the_vec_route()
