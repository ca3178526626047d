"""Fourier-Motzkin reference for `ConvexRegion`: the region kernel the
package used before the edge-interval pass, kept only as a test oracle.

Regions are handled as tuples of half-planes, and every bound is a Fraction
or QuadExt.  `fm_canonical` merges duplicates, sorts, decides feasibility by
eliminating x, and drops redundant constraints one at a time in sorted order
(a constraint goes when the others plus its complement are infeasible).
`fm_vertices`, `fm_interior_point` and `fm_sample_points` are the matching
queries on the kept constraints, and `fm_recession_direction` finds a
recession direction by one-dimensional scans over all of them.
"""

from fractions import Fraction
from functools import cmp_to_key

from outerbilliards.geometry import HalfPlane, Point, Sense, Vec, direction_ccw_cmp
from oracles import as_scalar, line_intersection, line_key, normalized, pick_in_interval
from outerbilliards.rng import Rng
from outerbilliards.scalars import QuadExt, sign


COMPLEMENT = {Sense.GE: Sense.LT, Sense.GT: Sense.LE, Sense.LE: Sense.GT, Sense.LT: Sense.GE}


def _scalar_sort_key(x):
    # (rational part, radical part) sorts Fractions and QuadExts consistently
    if isinstance(x, QuadExt):
        return (x.a, x.b)
    return (x, Fraction(0))


def _canonical_key(h):
    a, b, c, strict = normalized(h)
    lead = abs(a) if a != 0 else abs(b)
    return (a / lead, b / lead, c / lead, strict)


def _hp_sort_key(h):
    a, b, c, strict = _canonical_key(h)
    return (_scalar_sort_key(a), _scalar_sort_key(b), _scalar_sort_key(c), strict)


# one-dimensional bounds: (coef, const, strict) means coef*t >= const (> const)


def _one_dim_feasible(bounds):
    if any(coef == 0 and (const > 0 or (const == 0 and strict))
           for coef, const, strict in bounds):
        return False
    lo, up = _one_dim_interval(bounds)
    return (lo is None or up is None or lo[0] < up[0]
            or (lo[0] == up[0] and not (lo[1] or up[1])))


def _one_dim_interval(bounds):
    """Return ((lo, lo_strict) | None, (up, up_strict) | None) of the solution
    interval, assuming it is nonempty."""
    lo = up = None
    for coef, const, strict in bounds:
        if coef == 0:
            continue
        val = const / coef
        if sign(coef) > 0:
            if lo is None or val > lo[0] or (val == lo[0] and strict):
                lo = (val, strict)
        else:
            if up is None or val < up[0] or (val == up[0] and strict):
                up = (val, strict)
    return lo, up


def _pick(bounds, rng=None, counter=0):
    lo, up = _one_dim_interval(bounds)
    return pick_in_interval(lo and lo[0], up and up[0], rng, counter)


def _eliminate_x(norms):
    """y-bounds (coef, const, strict) of the projection onto the y-axis, plus
    the x lower and upper bounds as (p, q, strict) meaning x vs p + q*y."""
    lows, ups, ybounds = [], [], []
    for (a, b, c, strict) in norms:
        if a == 0:
            ybounds.append((b, c, strict))
        elif sign(a) > 0:
            lows.append((c / a, -b / a, strict))
        else:
            ups.append((c / a, -b / a, strict))
    for (p1, q1, s1) in lows:
        for (p2, q2, s2) in ups:
            ybounds.append((q2 - q1, p1 - p2, s1 or s2))
    return ybounds, lows, ups


def _feasible(norms):
    return _one_dim_feasible(_eliminate_x(norms)[0])


def _find_point(norms, rng=None, counter=0):
    ybounds, lows, ups = _eliminate_x(norms)
    if not _one_dim_feasible(ybounds):
        return None
    y = _pick(ybounds, rng, 2 * counter)
    xbounds = [(Fraction(1), p + q * y, s) for (p, q, s) in lows]
    xbounds.extend((Fraction(-1), -(p + q * y), s) for (p, q, s) in ups)
    x = _pick(xbounds, rng, 2 * counter + 1)
    return Point(as_scalar(x), as_scalar(y))


def fm_canonical(halfplanes):
    """(is_empty, kept constraints in order)."""
    by_line = {}
    for h in halfplanes:
        a, b, c, strict = _canonical_key(h)
        key = (_scalar_sort_key(a), _scalar_sort_key(b), _scalar_sort_key(c))
        prev = by_line.get(key)
        if prev is None or (strict and not _canonical_key(prev)[3]):
            by_line[key] = h
    hps = sorted(by_line.values(), key=_hp_sort_key)
    if not _feasible([normalized(h) for h in hps]):
        return True, ()
    keep = list(hps)
    i = 0
    while i < len(keep):
        others = keep[:i] + keep[i + 1:]
        h = keep[i]
        test = [normalized(o) for o in others + [HalfPlane(h.line, COMPLEMENT[h.sense])]]
        if _feasible(test):
            i += 1
        else:
            keep.pop(i)
    return False, tuple(keep)


def _strict(constraints):
    return [(a, b, c, True) for (a, b, c, _) in (normalized(h) for h in constraints)]


def fm_has_interior(constraints):
    return _feasible(_strict(constraints))


def fm_interior_point(constraints, rng=None, counter=0):
    """A point strictly inside, or None when the closure has no interior."""
    return _find_point(_strict(constraints), rng, counter)


def _point_key(p):
    return (_scalar_sort_key(p.x), _scalar_sort_key(p.y))


def fm_vertices(constraints):
    """Pairwise line intersections inside the closure, clockwise from the
    lexicographically smallest (sorted when there are at most two)."""
    by_key = {}
    for h in constraints:  # one line per `line_key`: rescaled writings of it are one line
        by_key.setdefault(line_key(h.line), h.line)
    uniq = list(by_key.values())
    cands = []
    for i in range(len(uniq)):
        for j in range(i + 1, len(uniq)):
            p = line_intersection(uniq[i], uniq[j])
            if p is None or p in cands:
                continue
            if all(sign(a * p.x + b * p.y - c) >= 0
                   for (a, b, c, _) in (normalized(h) for h in constraints)):
                cands.append(p)
    if len(cands) <= 2:
        return tuple(sorted(cands, key=_point_key))
    center = Point(sum((q.x for q in cands), start=Fraction(0)) / len(cands),
                   sum((q.y for q in cands), start=Fraction(0)) / len(cands))
    ordered = sorted(cands, key=cmp_to_key(
        lambda u, v: direction_ccw_cmp((u.x - center.x, u.y - center.y),
                                       (v.x - center.x, v.y - center.y))))
    ordered.reverse()
    start = min(range(len(ordered)), key=lambda i: _point_key(ordered[i]))
    return tuple(ordered[start:] + ordered[:start])


def fm_sample_points(constraints, count, seed):
    """Barycentric samples over the vertices of a bounded region with
    interior, as `ConvexRegion.sample_points` draws them."""
    verts = fm_vertices(constraints)
    rng = Rng(seed).split(0x5A17)
    out = []
    k = len(verts)
    for i in range(count):
        ws = [rng.unit(i * k + j) for j in range(k)]
        total = sum(ws)
        x = sum((w * v.x for w, v in zip(ws, verts)), start=Fraction(0)) / total
        y = sum((w * v.y for w, v in zip(ws, verts)), start=Fraction(0)) / total
        out.append(Point(as_scalar(x), as_scalar(y)))
    return tuple(out)


def fm_recession_direction(constraints):
    """A recession direction of the nonempty region of the constraints by
    one-dimensional scans, None when it is bounded: every nonzero direction
    is a positive multiple of (+-1, t) or (0, +-1), and d recedes when
    a*d.x + b*d.y >= 0 on every constraint; a direction strictly inside the
    recession cone is tried first."""
    norms = [normalized(h) for h in constraints]
    for strict in (True, False):
        for dx in (1, -1):
            bounds = [(b, -a * dx, strict) for (a, b, _, _) in norms]
            if _one_dim_feasible(bounds):
                return Vec(Fraction(dx), _pick(bounds))
    for dy in (1, -1):
        if all(sign(b * dy) >= 0 for (_, b, _, _) in norms):
            return Vec(Fraction(0), Fraction(dy))
    return None
