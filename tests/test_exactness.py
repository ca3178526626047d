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

from outerbilliards import geometry
from outerbilliards.billiards import Chirality, build_partition
from outerbilliards.generate import random_nice_polygon
from outerbilliards.geometry import box_region
from outerbilliards.rng import Rng
from outerbilliards.scalars import QuadExt

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
