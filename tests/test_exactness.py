"""Exactness guard: the computational kernel never brings in floats.

A float literal, a `float(...)` call or `math.sqrt` in a kernel module would
round somewhere; so would a stray true division on two ints, which is why the
integer sign tests in `geometry` stay inside this guard.  A second scan keeps
the package free of branches on a point's form (Point or lattice triple).
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from outerbilliards import geometry, verify
from outerbilliards.billiards import Chirality, build_partition
from outerbilliards.dynamics import far_radius
from outerbilliards.generate import random_nice_polygon
from outerbilliards.geometry import Point, Vec, box_region
from outerbilliards.model import BilliardModel
from outerbilliards.polygon import NicePolygon
from outerbilliards.rng import Rng
from outerbilliards.scalars import QuadExt, ratio
from outerbilliards.strips import PinwheelSystem

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "outerbilliards"
KERNEL = ("geometry", "polygon", "billiards", "strips", "dynamics", "paths",
          "quasirational")


def float_sites(source: str, filename: str = "<source>"):
    """(line, what) of every float literal, `float(` call and `math.sqrt`."""
    sites = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append((node.lineno, f"literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            sites.append((node.lineno, "float() call"))
        elif (isinstance(node, ast.Attribute) and node.attr == "sqrt"
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            sites.append((node.lineno, "math.sqrt"))
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(alias.name == "sqrt" for alias in node.names)):
            sites.append((node.lineno, "from math import sqrt"))
    return sites


@pytest.mark.parametrize("module", KERNEL)
def test_kernel_module_has_no_float_sites(module):
    path = PACKAGE / f"{module}.py"
    assert float_sites(path.read_text(encoding="utf-8"), str(path)) == []


@pytest.mark.parametrize("snippet", [
    "x = 0.5\n",
    "y = float(t)\n",
    "import math\nr = math.sqrt(2)\n",
    "from math import sqrt\n",
    "z = 1e-9 * w\n",
])
def test_guard_trips_on_each_float_site(snippet):
    assert float_sites(snippet) != []


# ---------------------------------------------------------------------------
# one point form below the entry points: a Point is converted to its lattice
# triple once, where it comes in, so no predicate branches on the form it got


def point_form_branches(source: str, filename: str = "<source>"):
    """(line, test) of every `is tuple`, `is not tuple` or `is list` test."""
    sites = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) and isinstance(right, ast.Name)
                and right.id in ("tuple", "list")
                for op, right in zip(node.ops, node.comparators)):
            sites.append((node.lineno, ast.unparse(node)))
    return sites


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_module_has_no_point_form_branch(module):
    path = PACKAGE / f"{module}.py"
    assert point_form_branches(path.read_text(encoding="utf-8"), str(path)) == []


@pytest.mark.parametrize("snippet", [
    "X, Y, L = p if type(p) is tuple else homogeneous(p)\n",
    "if type(p) is not tuple:\n    p = homogeneous(p)\n",
    "ts = p if type(p) is list else edge_offsets(p)\n",
])
def test_point_form_scan_trips_on_each_branch(snippet):
    assert point_form_branches(snippet) != []


# ---------------------------------------------------------------------------
# at run time: the region kernel computes on ints, where a true division would
# return a float that the AST guard above cannot tell from an exact one


def exactness_corpus():
    """The triangle, seeded n = 3..12 and both Q(sqrt 5) kites."""
    from test_quasirational import TRIANGLE, sqrt5_kite
    from test_verify import penrose_kite

    return ([TRIANGLE] + [random_nice_polygon(n, n) for n in range(3, 13)]
            + [sqrt5_kite(), penrose_kite()])


def kernel_coordinates(polygon):
    """Every coordinate the region kernel hands out on the polygon's forward
    and backward tiles: vertices, interior points (plain and seeded),
    samples (clipped where unbounded) and recession directions."""
    clip = box_region(-10 ** 4, -10 ** 4, 10 ** 4, 10 ** 4)
    for chirality in Chirality:
        for tile in build_partition(polygon, chirality).tiles:
            r = tile.region
            triples = [r.interior_point(), r.interior_point(Rng(3), 1)]
            triples += (r if r.is_bounded() else r.intersect(clip)).sample_points(2, seed=5)
            if r.recession_direction() is not None:
                triples.append(r.recession_direction())
            points = list(r.vertices()) + list(map(geometry.point_of, triples))
            for p in points:
                yield p.x
                yield p.y


def test_region_kernel_hands_out_only_exact_scalars():
    for polygon in exactness_corpus():
        inexact = {type(x).__name__ for x in kernel_coordinates(polygon)
                   if not isinstance(x, (Fraction, QuadExt))}
        assert inexact == set(), polygon.to_document()


def test_exact_scalar_walk_trips_on_int_true_division(monkeypatch):
    """Negative control: a kernel that turns its int quotients into c / b
    must fail the walk."""
    scalar = geometry.ratio

    def true_division(num, den):
        if type(num) is int and type(den) is int:
            return num / den
        return scalar(num, den)

    monkeypatch.setattr(geometry, "ratio", true_division)
    with pytest.raises(AssertionError, match="float"):
        test_region_kernel_hands_out_only_exact_scalars()


# ---------------------------------------------------------------------------
# at run time: a model build and a check compute on integer forms and lattice
# triples; a scalar operator below the entry points is field arithmetic

SCALAR_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
                    "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__",
                    "__pos__", "__abs__", "__lt__", "__le__", "__gt__", "__ge__")
GUARDED = ((Fraction, SCALAR_OPERATORS), (QuadExt, SCALAR_OPERATORS + ("_inverse",)),
           (Point, ("__add__", "__sub__")),
           (Vec, ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "cross", "dot")))


def guard_corpus():
    """CORPUS, both Q(sqrt 5) pentagons and the orientation-keeping image of
    n5 over Q(sqrt d) for d = 2, 3 and 13, parsed before any guard."""
    from test_billiards import CORPUS, corpus_polygon
    from test_construction import _image
    from test_quasirational import regular_pentagon, sqrt5_pentagon

    return ([corpus_polygon(k) for k in CORPUS] + [sqrt5_pentagon(), regular_pentagon()]
            + [NicePolygon.from_points(_image(corpus_polygon("n5").vertices, d, False))
               for d in (2, 3, 13)])


def guarded_run(monkeypatch, polygons) -> list:
    """With every arithmetic and ordering operator of Fraction, QuadExt,
    Point and Vec raising: each polygon's model builds its system, paths and
    both partitions, then `run_all(p, "full")` and `negative_controls(p)`
    run.  The reports are read as JSON after the guard is lifted."""
    def refuse(*args):
        raise AssertionError("field arithmetic below the entry points")

    with monkeypatch.context() as guard:
        for cls, names in GUARDED:
            for name in names:
                if name in vars(cls):
                    guard.setattr(cls, name, refuse)
        reports = []
        for polygon in polygons:
            model = BilliardModel(polygon)
            model.system, model.paths, model.partition, model.backward_partition
            reports.append(verify.run_all(polygon, "full") + verify.negative_controls(polygon))
    return [[rep.to_json() for rep in reps] for reps in reports]


def test_models_and_checks_do_no_field_arithmetic(monkeypatch):
    runs = guarded_run(monkeypatch, guard_corpus())
    assert [len(reps) for reps in runs] == [len(verify.CHECKS) + 3] * len(runs)


def test_points_and_vectors_carry_values_only():
    """`Point` and `Vec` are frozen values with no field arithmetic, and a
    polygon's vertices are read by index: `NicePolygon.vertex` is gone."""
    p, v = Point(Fraction(1, 2), Fraction(3)), Vec(Fraction(-1), Fraction(2, 3))
    for cls, names in GUARDED[2:]:  # Point's and Vec's operators
        assert [name for name in names if hasattr(cls, name)] == []
    for operation in (lambda: p + v, lambda: p - p, lambda: p - v, lambda: v + v,
                      lambda: v - v, lambda: -v, lambda: v * 2, lambda: 2 * v):
        with pytest.raises(TypeError):
            operation()
    assert not hasattr(NicePolygon, "vertex")
    assert p == Point(Fraction(1, 2), Fraction(3))
    assert hash(v) == hash(Vec(Fraction(-1), Fraction(2, 3)))
    assert repr(v) == "Vec(x=Fraction(-1, 1), y=Fraction(2, 3))"
    with pytest.raises(AttributeError):
        p.x = Fraction(0)


def test_field_arithmetic_guard_trips_on_scalar_widths(monkeypatch):
    """Negative control: `max_width` and `far_radius` on scalars, as they
    read before the widths lived only in the strips' forms, trip the guard."""
    def max_width(system):
        return max(p.width for p in system.pairs).as_integer_ratio()

    def scalar_far_radius(model, factor: int = 8):
        poly = model.polygon
        xs, ys = zip(*poly.lattice)
        extent = ratio((max(xs) - min(xs)) + (max(ys) - min(ys)), poly.den)
        width = ratio(*model.system.max_width())
        return (Fraction(factor * poly.n) * (extent + width)).as_integer_ratio()

    from test_quasirational import TRIANGLE, regular_pentagon

    polygons = [TRIANGLE, regular_pentagon()]
    for polygon in polygons:
        model = BilliardModel(polygon)
        assert (max_width(model.system), scalar_far_radius(model)) == (
            model.system.max_width(), far_radius(model))
    monkeypatch.setattr(PinwheelSystem, "max_width", max_width)
    monkeypatch.setattr(verify, "far_radius", scalar_far_radius)
    for polygon in polygons:
        with pytest.raises(AssertionError, match="field arithmetic"):
            guarded_run(monkeypatch, [polygon])
