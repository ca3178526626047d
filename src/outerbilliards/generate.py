"""Seeded random nice polygons with exact rational coordinates.

Construction: draw n integer edge vectors, recenter them to close the cycle,
sort by full-circle angle (exact comparator) and chain the prefix sums; the
result is convex by construction.  Parallel or degenerate draws are rejected
by `NicePolygon`'s validation and resampled.  No floating point and no
platform-dependent library calls, so a (n, seed) pair gives the identical
polygon everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from .errors import GenerationFailedError, PolygonError
from .geometry import Point, Vec, direction_ccw_cmp
from .polygon import NicePolygon

_MAX_ATTEMPTS = 200


def random_nice_polygon(n: int, seed: int, bound: int = 20) -> NicePolygon:
    """A random nice n-gon with all |coordinates| <= bound."""
    from .rng import Rng

    if not 3 <= n <= 12:
        raise ValueError(f"n must be in 3..12, got {n}")
    if bound < 1:
        raise ValueError("bound must be positive")
    base = Rng(seed).split(0x9071, n)
    for attempt in range(_MAX_ATTEMPTS):
        rng = base.split(attempt)
        k = 6 + 2 * n
        raws = [Vec(Fraction(rng.int_range(2 * i, -k, k)),
                    Fraction(rng.int_range(2 * i + 1, -k, k)))
                for i in range(n)]
        mx = sum((v.x for v in raws), start=Fraction(0)) / n
        my = sum((v.y for v in raws), start=Fraction(0)) / n
        edges = [Vec(v.x - mx, v.y - my) for v in raws]
        edges.sort(key=cmp_to_key(direction_ccw_cmp))
        verts = []
        acc = Point(Fraction(0), Fraction(0))
        for e in edges:
            verts.append(acc)
            acc = acc + e
        cx = sum((v.x for v in verts), start=Fraction(0)) / n
        cy = sum((v.y for v in verts), start=Fraction(0)) / n
        verts = [Point(v.x - cx, v.y - cy) for v in verts]
        top = max(max(abs(v.x), abs(v.y)) for v in verts)
        if top > bound:
            scale = Fraction(bound) / (top.numerator // top.denominator + 1)
            verts = [Point(v.x * scale, v.y * scale) for v in verts]
        try:
            return NicePolygon.from_points(verts)
        except PolygonError:
            continue
    raise GenerationFailedError(
        f"no nice polygon after {_MAX_ATTEMPTS} attempts (n={n}, seed={seed})")
