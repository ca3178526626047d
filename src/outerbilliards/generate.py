"""Seeded random nice polygons with exact rational coordinates.

Construction, on int pairs: draw n integer edge vectors, recenter them to close
the cycle (n times each less their sum), sort by full-circle angle and chain
the prefix sums, recentred; the result is convex, and becomes `Point`s over
n**2 last.  Parallel or degenerate draws are rejected by `NicePolygon`'s
validation and resampled.  No floating point and no platform-dependent library
calls, so a (n, seed) pair gives the identical polygon everywhere.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import accumulate

from .errors import GenerationFailedError, PolygonError
from .geometry import Point, direction_ccw_cmp
from .polygon import NicePolygon
from .rng import Rng
from .scalars import ratio

_MAX_ATTEMPTS = 200


def _recentred(pairs: list) -> list:
    """n*p - (the sum of the n pairs) for each int pair p: n times p less their mean."""
    n, sx, sy = len(pairs), sum(x for x, _ in pairs), sum(y for _, y in pairs)
    return [(n * x - sx, n * y - sy) for x, y in pairs]


def random_nice_polygon(n: int, seed: int, bound: int = 20) -> NicePolygon:
    """A random nice n-gon with all |coordinates| <= bound."""
    if not 3 <= n <= 12:
        raise ValueError(f"n must be in 3..12, got {n}")
    if bound < 1:
        raise ValueError("bound must be positive")
    base = Rng(seed).split(0x9071, n)
    for attempt in range(_MAX_ATTEMPTS):
        rng = base.split(attempt)
        k = 6 + 2 * n
        raws = [(rng.int_range(2 * i, -k, k), rng.int_range(2 * i + 1, -k, k)) for i in range(n)]
        edges = sorted(_recentred(raws), key=cmp_to_key(direction_ccw_cmp))
        # the prefix sums, over n, less their centroid: each vertex over n**2
        sums = accumulate(edges, lambda p, e: (p[0] + e[0], p[1] + e[1]), initial=(0, 0))
        cycle = _recentred(list(sums)[:-1])
        q, top = n * n, max(abs(c) for xy in cycle for c in xy)
        # scaled by bound / (floor(top / q) + 1) where top / q > bound
        m, q = (bound, q * (top // q + 1)) if top > bound * q else (1, q)
        try:
            return NicePolygon.from_points([Point(ratio(x * m, q), ratio(y * m, q))
                                            for x, y in cycle])
        except PolygonError:
            continue
    raise GenerationFailedError(
        f"no nice polygon after {_MAX_ATTEMPTS} attempts (n={n}, seed={seed})")
