"""Exact planar geometry: points, lines, half-planes and convex regions.

Everything here computes on integers.  A point is its lattice triple, a polygon
is read off its lattice pairs, and a line is a record of one integer form (A, B,
C) (ints, or `QuadInt`s over Q(sqrt d)) over a positive int scale s; a
half-plane's identity and order read its oriented primitive form (`HalfPlane.form`,
by `scalars.primitive`), with no division.  `Point`s and `Vec`s, of Fraction or
QuadExt coordinates, are frozen values with no arithmetic: they carry values in
(`lattice_of`, `homogeneous`) and out (`point_of`, `vec_of` fill their slots).
Convex regions are stored as canonicalized half-plane intersections.  A
region is a convex set with interior, or `EMPTY_REGION`: a set of measure
zero (a point, a segment, a ray or a line) is a wall, not a tile, and the
package decides walls with sign predicates, not with regions.  One kernel
pass, run once per region, clips each constraint's line by all the other
constraints (a one-dimensional interval, exact); from these edge intervals
it reads whether the closure has interior, the non-redundant constraints,
the clockwise vertex cycle and the rays that generate the recession cone.
The pass computes on the integer forms: an interval end is a (num, den) pair
compared by cross-multiplication, and a vertex is a lattice triple in lowest
terms.  A region is bounded exactly when it has no rays, that is when its
vertex cycle closes, and `recession_direction` reads the rays.
Translations and point reflections move a canonical region, rays included,
without running the pass again, on integers.

Frame convention: y axis up, polygon vertex lists clockwise, "right of a ray"
means the negative cross-product side.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Optional, Sequence, Tuple

from .errors import EmptyRegionError
from .rng import Rng
from .scalars import (Scalar, ScalarLike, cleared, coprime_fraction, int_parts, primitive,
                      ratio, sign)


# ---------------------------------------------------------------------------
# points and vectors


@dataclass(frozen=True, slots=True)
class Vec:
    x: Scalar
    y: Scalar


@dataclass(frozen=True, slots=True)
class Point:
    x: Scalar
    y: Scalar


def integer_form(*coefs) -> tuple:
    """Scalars times the positive lcm of their denominators: ints, or
    QuadInts where a scalar has a sqrt(d) part."""
    fracs = [x.as_integer_ratio() for x in coefs]
    scale = math.lcm(*(q for _, q in fracs))
    return tuple(n * (scale // q) for n, q in fracs)


def lattice_of(points: Sequence[Point]) -> tuple:
    """(pairs, den): each point's numerator pair over den, the lcm of their denominators."""
    *xys, den = integer_form(*(x for p in points for x in (p.x, p.y)), 1)  # den: the form of 1
    return tuple(zip(xys[::2], xys[1::2])), den


def homogeneous(p: Point, den: int = 1) -> tuple:
    """p as the lattice triple (X, Y, L) with p = (X/L, Y/L): L is the lcm of
    p's two denominators and den, X and Y are ints, or QuadInts where a
    coordinate has a sqrt(d) part.  The one Point -> triple conversion."""
    xn, xq = p.x.as_integer_ratio()
    yn, yq = p.y.as_integer_ratio()
    L = math.lcm(xq, yq, den)
    return xn * (L // xq), yn * (L // yq), L


def moved(here, v, k: int = 1) -> tuple:
    """The lattice triple here = (X, Y, L) moved by k*v, v = (VX, VY, q) a
    vector's triple with q dividing L, over the same L.  The one move of a
    triple by a vector."""
    (X, Y, L), (VX, VY, q) = here, v
    s = k * (L // q)
    return X + s * VX, Y + s * VY, L


def lifted(p, den: int) -> tuple:
    """The lattice triple p reduced, then lifted onto den: `homogeneous(point_of(p), den)`."""
    X, Y, L = _lowest(*p)
    k = den // math.gcd(L, den)
    return X * k, Y * k, L * k


_new, _point_x, _point_y = object.__new__, Point.x.__set__, Point.y.__set__


def point_of(p) -> Point:
    """The lattice triple p = (X, Y, L), L a positive int, divided out to (X/L,
    Y/L): one gcd each and `coprime_fraction` for ints, else `ratio`, filled into
    a new Point's slots without `__init__`, as every logged orbit event pays for it."""
    X, Y, L = p
    if type(X) is type(Y) is int:
        g, h = math.gcd(X, L), math.gcd(Y, L)
        x, y = coprime_fraction(X // g, L // g), coprime_fraction(Y // h, L // h)
    else:
        x, y = ratio(X, L), ratio(Y, L)
    point = _new(Point)
    _point_x(point, x)
    _point_y(point, y)
    return point


def vec_of(v) -> Vec:
    """The vector with triple v = (VX, VY, q) divided out by `ratio` into a
    new Vec's slots, as `point_of` divides out a point: for output only."""
    vec = _new(Vec)
    Vec.x.__set__(vec, ratio(v[0], v[2]))
    Vec.y.__set__(vec, ratio(v[1], v[2]))
    return vec


def least_sign(forms, here) -> int:
    """The least sign of a*X + b*Y - c*L over the integer forms (a, b, c) at
    the lattice triple here = (X, Y, L): +1 strictly inside all of them, 0 on
    a boundary, -1 outside.  The one side-of-forms read; over Q(sqrt d) a
    form's QuadInt sum has its sign read once."""
    X, Y, L = here
    low = 1
    for a, b, c in forms:
        t = a * X + b * Y - c * L
        t = t if type(t) is int else t.sign()
        if t < 0:
            return -1
        if t == 0:
            low = 0
    return low


def barycentric_triples(cycle, count: int, seed: int):
    """`count` triples (X, Y, L) strictly inside the convex polygon with the
    vertex cycle `cycle` of lattice triples, put on one den (the lcm of their
    L) and started at its lexicographically least vertex (`_from_min`), so
    that the draws depend only on the polygon and its orientation: weights
    the odd numerators 2z+1 of `rng.unit`, in the cycle's order; L = den *
    their sum."""
    cycle = _from_min(cycle)
    den = math.lcm(*(L for _, _, L in cycle))
    rng = Rng(seed).split(0x5A17)
    k = len(cycle)
    xs, ys = [X * (den // L) for X, _, L in cycle], [Y * (den // L) for _, Y, L in cycle]
    for i in range(count):
        ws = [rng.odd(i * k + j) for j in range(k)]
        yield sum(map(mul, ws, xs)), sum(map(mul, ws, ys)), den * sum(ws)


def cross(u, v):
    """The cross product of the (x, y) pairs u and v."""
    return u[0] * v[1] - u[1] * v[0]


def signed_area2(cycle) -> Scalar:
    """Twice the signed area of a cycle of pairs (the shoelace sum): negative when clockwise."""
    return sum(map(cross, cycle, cycle[1:] + cycle[:1]))


def _upper(u) -> bool:
    """Whether the pair u is in the half-open upper half-plane: y > 0, or y = 0 and x > 0."""
    return sign(u[1]) > 0 or (u[1] == 0 and sign(u[0]) > 0)


def direction_ccw_cmp(u, v) -> int:
    """Order nonzero pairs' directions by counterclockwise angle from the positive x-axis."""
    hu, hv = _upper(u), _upper(v)
    if hu != hv:
        return -1 if hu else 1
    return -sign(cross(u, v))


def slope_angle_cmp(u, v) -> int:
    """Compare pairs' directions as projective slopes, angle in [0, pi): each is
    folded into the half-open upper half plane first, so u and -u compare equal."""
    return direction_ccw_cmp(*(w if _upper(w) else (-w[0], -w[1]) for w in (u, v)))


# ---------------------------------------------------------------------------
# lines and half-planes


@dataclass(frozen=True, slots=True)
class Line:
    """The line a*x + b*y = c, with (a, b) != (0, 0).

    A record of the integer form `ints` = (A, B, C) (ints, or QuadInts) over
    a positive int scale `s` prime to their content, with a = A/s, b = B/s,
    c = C/s as given (signed offsets keep that scale): built as
    `Line((A, B, C), s)`, and equal to another line exactly when it prints
    the same coefficients.  Every point-versus-line predicate reads the
    form at a point's lattice triple; which half-planes coincide is read
    off their kernel forms (`HalfPlane.form`).
    """

    ints: tuple
    s: int

    def _moved(self, C, L: int) -> "Line":
        """The line (A*L)*x + (B*L)*y = C over the scale s*L, reduced."""
        A, B, _ = self.ints
        s, A, B, C = primitive(self.s * L, A * L, B * L, C)
        return Line((A, B, C), s)

    a = property(lambda self: ratio(self.ints[0], self.s))
    b = property(lambda self: ratio(self.ints[1], self.s))
    c = property(lambda self: ratio(self.ints[2], self.s))

    def __repr__(self):
        return f"Line({self.a}, {self.b}, {self.c})"


def edge_lines(cycle, den: int) -> tuple:
    """The edge lines of a clockwise cycle of lattice pairs over den, the
    polygon on their positive side: edge (X, Y) -> (X + DX, Y + DY) is
    DY*x - DX*y = (DY*X - DX*Y)/den, over the scale den**2, by `primitive`."""
    forms = [primitive(den * den, (HY - Y) * den, (X - HX) * den, (HY - Y) * X - (HX - X) * Y)
             for (X, Y), (HX, HY) in zip(cycle, cycle[1:] + cycle[:1])]
    return tuple(Line((A, B, C), s) for s, A, B, C in forms)


class Sense(enum.Enum):
    GE = ">="
    GT = ">"
    LE = "<="
    LT = "<"

    @property
    def strict(self) -> bool:
        return self in (Sense.GT, Sense.LT)

    @property
    def upper(self) -> bool:
        return self in (Sense.LE, Sense.LT)

    def flipped(self) -> "Sense":
        return self._flipped


# set once at import: an Enum body cannot name its own members
Sense.GE._flipped, Sense.LE._flipped = Sense.LE, Sense.GE
Sense.GT._flipped, Sense.LT._flipped = Sense.LT, Sense.GT


@dataclass(frozen=True)
class HalfPlane:
    """Constraint `a*x + b*y (sense) c` over the line's stored coefficients.

    `form` is its kernel form (a, b, c, strict), fixed at construction, meaning
    a*x + b*y >= c (> c when strict): the primitive form of the line's `ints`,
    negated for an upper sense.  Every value the kernel reads off it is
    invariant under a positive scale, and two half-planes are equal, with one
    hash, exactly when their forms are; `line` and `sense` are how it prints."""

    line: Line = field(compare=False)
    sense: Sense = field(compare=False)
    form: tuple = field(init=False, repr=False)

    def __post_init__(self):
        a, b, c = primitive(*self.line.ints)
        a, b, c = (-a, -b, -c) if self.sense.upper else (a, b, c)
        object.__setattr__(self, "form", (a, b, c, self.sense.strict))

    def contains(self, p) -> bool:
        """Whether the point with lattice triple p = (X, Y, L) (`homogeneous`)
        satisfies the constraint: `least_sign` on `form`."""
        a, b, c, strict = self.form
        s = least_sign(((a, b, c),), p)
        return s > 0 or (s == 0 and not strict)


# ---------------------------------------------------------------------------
# one-dimensional bounds on kernel integers: (coef, const, strict) means
# coef*t >= const (> const when strict).  A solved bound is (num, den,
# strict) with den > 0: t >= num/den for a lower bound, t <= num/den for an
# upper one.  Two bounds compare by cross-multiplication; t is never divided
# out.


def _one_dim_interval(bounds):
    """(lower, upper) solved bounds of the solution interval, None where it
    runs off; bounds with coef 0 are skipped, and of two equal bounds the
    strict one wins."""
    lo = up = None
    for coef, const, strict in bounds:
        if coef == 0:
            continue
        lower = coef > 0
        cur = lo if lower else up
        if cur is not None:
            # den > 0 on both sides: const/coef is the tighter bound exactly
            # when const*den - num*coef is positive
            t = const * cur[1] - cur[0] * coef
            if t < 0 or (t == 0 and not strict):
                continue
        if lower:
            lo = (const, coef, strict)
        else:
            up = (-const, -coef, strict)
    return lo, up


def _has_length(lo, up) -> bool:
    return lo is None or up is None or lo[0] * up[1] < up[0] * lo[1]


def _pick_in_interval(lo, up, rng: Optional[Rng] = None, counter: int = 0) -> tuple:
    """A (num, den) pair between the solved bounds lo and up (None: the interval
    runs off that way), strictly inside when it has length: their midpoint, or
    `rng.draw` between them; one past the finite end (0 for none), or `rng.draw` short of it."""
    if lo is not None and up is not None:
        (ln, ld), (un, ud) = lo[:2], up[:2]
        if rng is None:
            return ln * ud + un * ld, 2 * ld * ud
        return rng.draw(counter, (ln, ld), (un, ud))
    if lo is up:
        return (0, 1) if rng is None else rng.draw(counter, (0, 1), (1, 1))
    n, d = (lo or up)[:2]
    end = (n + d, d) if up is None else (n - d, d)
    return end if rng is None else rng.draw(counter, (n, d), end)


# ---------------------------------------------------------------------------
# the region kernel: one clip of each constraint's line by all the others


def _line_clip(forms, i):
    """Where on line i (`_on_line(forms[i], bound)`) all the other
    constraints hold: constraint j reads (a*b_j - b*a_j)*t >= c_j*(a^2 + b^2)
    - c*(a*a_j + b*b_j), with no division.  None when that closed interval is
    empty, else (lo, up, opposite): its solved bounds (strict flags kept) and
    whether an oppositely oriented constraint lies on the same line."""
    a, b, c, _ = forms[i]
    nn = a * a + b * b
    bounds = []
    opposite = False
    for j, (aj, bj, cj, sj) in enumerate(forms):
        if j == i:
            continue
        coef = a * bj - b * aj
        const = cj * nn - c * (a * aj + b * bj)
        if coef != 0:
            bounds.append((coef, const, sj))
        elif const > 0:
            return None
        elif const == 0:  # merged duplicates leave only the opposite orientation
            opposite = True
    lo, up = _one_dim_interval(bounds)
    if lo is not None and up is not None and lo[0] * up[1] > up[0] * lo[1]:
        return None
    return lo, up, opposite


def _lowest(X, Y, L) -> tuple:
    """(X/L, Y/L), L > 0, as its one lattice triple in lowest terms: int L > 0, content 1."""
    L, X, Y = primitive(L, X, Y)
    return X, Y, L


def _on_line(form, bound) -> tuple:
    """The point at t = num/den on the line of form (t as in `_line_clip`), as `_lowest`."""
    a, b, c, _ = form
    num, den, _ = bound
    return _lowest(a * c * den - b * num, b * c * den + a * num, (a * a + b * b) * den)


def _point_keys(triples) -> list:
    """Int keys that order lattice triples' points lexicographically, each
    coordinate by its (rational part, sqrt(d) part)."""
    P = math.lcm(*(L for _, _, L in triples))
    return [int_parts(X * (P // L)) + int_parts(Y * (P // L)) for X, Y, L in triples]


def _from_min(cycle) -> tuple:
    """The cycle of triples rotated to start at its lexicographically least point."""
    keys = _point_keys(cycle)
    k = min(range(len(cycle)), key=keys.__getitem__, default=0)
    return tuple(cycle[k:] + cycle[:k])


def _canonical(hps, forms) -> "ConvexRegion":
    """Canonical region of merged half-planes in canonical order
    (`_in_order`), given with their `HalfPlane.form`s.

    A system whose closure has no interior is `EMPTY_REGION`: its closure
    has no edge (it is empty or a point), or it lies in the line of an
    opposite pair.  Otherwise the region keeps the constraints whose line
    clip has positive length (its edges; increasing t walks them clockwise)
    and, at a vertex no edge constraint excludes, the last strict constraint
    touching only that vertex.  The rays generating the closure's recession
    cone are read off the same clips: an edge whose clip runs off to t = -inf
    (+inf) gives the ray (b, -a) ((-b, a)).  Vertices are lattice triples
    (`_on_line`).
    """
    spans = [_line_clip(forms, i) for i in range(len(forms))]
    tight = [i for i, s in enumerate(spans) if s is not None]
    edges = [i for i in tight if _has_length(*spans[i][:2])]
    if not edges or any(spans[i][2] for i in tight):
        return EMPTY_REGION
    first, starts = edges[0], {}  # walk from the edge that comes in from infinity, if any
    for i in edges:
        if spans[i][0] is None:
            first = i
        else:
            starts[_on_line(forms[i], spans[i][0])] = i
    e, cycle = first, []
    for _ in edges:
        up = spans[e][1]
        if up is None:
            break
        cycle.append(_on_line(forms[e], up))
        e = starts[cycle[-1]]
    rays = []
    if spans[first][0] is None:
        # the cycle did not close: the walk ran from the edge that comes in
        # from infinity to the one that leaves; with no vertex that is one
        # edge, of a strip or of a half-plane, whose cone holds its normal too
        (a, b, _, _), (ae, be, _, _) = forms[first], forms[e]
        rays = [(b, -a), (-be, ae)] + [(a, b)] * (len(edges) == 1)
    touching = {_on_line(forms[i], spans[i][0]): i for i in tight
                if i not in edges and hps[i].sense.strict}
    kept = edges + [i for t, i in touching.items() if all(hps[e].contains(t) for e in edges)]
    return ConvexRegion(tuple(hps[i] for i in sorted(kept)), False, _from_min(cycle),
                        rays=tuple(rays))


# ---------------------------------------------------------------------------
# convex regions


def _in_order(by_form: dict) -> list:
    """The values of `by_form`, keyed by primitive forms, in canonical order: each
    form over its |leading entry|, entry by entry as (rational part, sqrt(d) part)."""
    P = math.lcm(*(abs(A if A != 0 else B) for A, B, _ in by_form))  # all over P, as ints
    keys = {(A, B, C): ((A > 0) - (A < 0),) + int_parts(B * m) + int_parts(C * m)
            for A, B, C in by_form for m in [P // abs(A if A != 0 else B)]}
    return [by_form[form] for form in sorted(by_form, key=keys.__getitem__)]


class ConvexRegion:
    """Intersection of finitely many half-planes, kept in canonical form: a
    convex set with interior, or `EMPTY_REGION`.

    Canonical form: exact duplicates merged, every system whose solution
    set has no interior (infeasible, or of measure zero: a wall, not a
    tile) collapsed to `EMPTY_REGION`, redundant constraints removed (see
    `_canonical`), constraints in a fixed order.  Equality is then
    structural.  The same pass finds, once, the vertices of the closure
    (`vertex_triples`, lattice triples in lowest terms) and the rays (pairs
    of kernel integers) that generate its recession cone: none exactly when
    the region is bounded.
    """

    __slots__ = ("constraints", "is_empty", "vertex_triples", "_rays", "_forms")

    def __init__(self, constraints: Tuple[HalfPlane, ...], is_empty: bool,
                 vertices: tuple = (), *, rays: tuple = ()):
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "is_empty", is_empty)
        object.__setattr__(self, "vertex_triples", vertices)
        object.__setattr__(self, "_rays", rays)
        object.__setattr__(self, "_forms", tuple(h.form[:3] for h in constraints))

    def __setattr__(self, name, value):
        raise AttributeError("ConvexRegion is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_halfplanes(halfplanes: Iterable[HalfPlane]) -> "ConvexRegion":
        # merge duplicates: of one primitive form keep the first (strict) one
        by_form = {}
        for h in halfplanes:
            prev = by_form.get(h.form[:3])
            if prev is None or (h.form[3] and not prev.form[3]):
                by_form[h.form[:3]] = h
        if not by_form:
            return ConvexRegion.whole_plane()
        merged = _in_order(by_form)
        return _canonical(merged, [h.form for h in merged])

    @staticmethod
    def whole_plane() -> "ConvexRegion":
        return ConvexRegion((), False, rays=((1, 0), (0, 1), (-1, 0), (0, -1)))

    # -- queries ------------------------------------------------------------

    def contains(self, p) -> int:
        """`least_sign` of the point with lattice triple p on the region's
        constraints: +1 interior, 0 on the boundary of the closure (boundary
        lines of strict constraints included), -1 outside."""
        return -1 if self.is_empty else least_sign(self._forms, p)

    def interior_point(self, rng: Optional[Rng] = None, counter: int = 0) -> tuple:
        """A point strictly inside, as its lattice triple in lowest terms: y
        drawn strictly inside the closure's y-range, then x strictly inside
        the region's slice at that y (`_pick_in_interval`)."""
        if self.is_empty:
            raise EmptyRegionError("empty region has no interior point")
        yn, yq = _pick_in_interval(self._y_bound(1), self._y_bound(-1), rng, 2 * counter)
        # a*x > c - b*y on every constraint, times the denominator yq > 0
        xlo, xup = _one_dim_interval((a * yq, c * yq - b * yn, True) for a, b, c in self._forms)
        xn, xq = _pick_in_interval(xlo, xup, rng, 2 * counter + 1)
        return _lowest(xn * yq, yn * xq, xq * yq)

    def _y_bound(self, s: int):
        """The lowest (s = 1) or highest (s = -1) y of the closure as a solved
        bound; None when a recession ray runs off that way."""
        if any(s * gy < 0 for _, gy in self._rays):
            return None
        # else the extreme y is at a vertex, or on a horizontal edge line: the
        # tightest of the bounds y <= (s = 1) or y >= (s = -1) each candidate
        ys = [(-s * L, -s * Y, False) for _, Y, L in self.vertex_triples]
        ys += [(-b, -c, False) for a, b, c in self._forms if a == 0 and s * b > 0]
        return _one_dim_interval(ys)[s > 0]

    def recession_direction(self) -> Optional[tuple]:
        """A rational direction along which the region recedes to infinity,
        strictly interior to the recession cone when that cone has interior,
        as a vector's triple (VX, VY, q) (`moved`); None exactly when the
        region is bounded, `EMPTY_REGION` included.

        It is (dx, t) for the first dx of 1, -1 at which the cone has a
        section (t its midpoint, its finite end -+ 1, or 0 when it is a whole
        line), else (0, 1) or (0, -1).  The section's finite ends are where
        the stored rays cross x = dx; it runs off upwards (downwards) when
        (0, 1) ((0, -1)) satisfies every constraint's a*x + b*y >= 0.
        """
        for dx in (1, -1):
            # each ray's t = gy/(gx*dx) as a lower and an upper bound: the tightest are max, min
            ts = [b for gx, gy in self._rays if gx * dx > 0
                  for b in ((gx * dx, gy, False), (-gx * dx, -gy, False))]
            if ts:
                up, lo = _one_dim_interval(ts)
                tn, q = cleared(*_pick_in_interval(None if self._recedes(-1) else lo,
                                                   None if self._recedes(1) else up))
                return dx * q, tn, q
        for dy in (1, -1):
            if any(gy * dy > 0 for _, gy in self._rays):
                return 0, dy, 1
        return None

    def _recedes(self, dy: int) -> bool:
        return not any(h.form[1] * dy < 0 for h in self.constraints)

    def is_bounded(self) -> bool:
        return not self._rays

    def vertices(self) -> Tuple[Point, ...]:
        """Vertices of the closure, in clockwise order starting from the
        lexicographically smallest; empty tuple when there are none:
        `vertex_triples`, each divided out by `point_of`."""
        return tuple(map(point_of, self.vertex_triples))

    # -- constructors of derived regions ------------------------------------

    def intersect(self, other: "ConvexRegion") -> "ConvexRegion":
        if self.is_empty or other.is_empty:
            return EMPTY_REGION
        return ConvexRegion.from_halfplanes(self.constraints + other.constraints)

    # A rigid motion of a canonical region is canonical: the moved constraints,
    # vertices and rays are built directly, and the kernel does not run again.

    def translate(self, v) -> "ConvexRegion":
        """The region moved by the vector with triple v = (VX, VY, q) (`moved`)."""
        return self._motion(1, v)

    def point_reflect(self, center) -> "ConvexRegion":
        """The region turned half a turn about the point with lattice triple center."""
        X, Y, L = center
        return self._motion(-1, (2 * X, 2 * Y, L))

    def _motion(self, k: int, t) -> "ConvexRegion":
        """The image under p -> k*p + t, k = +-1, t = (X, Y, L) a lattice triple."""
        if self.is_empty:
            return self
        X, Y, L = t
        # a constraint's direction (a, b) goes to k*(a, b); the directions
        # are distinct and decide the constraints' order, so a half turn
        # reverses it and flips each sense
        hps = [HalfPlane(h.line._moved(k * C * L + A * X + B * Y, L),
                         h.sense if k > 0 else h.sense.flipped())
               for h in self.constraints[::k] for A, B, C in [h.line.ints]]
        # a rigid motion keeps the clockwise order; only the start moves
        verts = _from_min([_lowest(k * PX * L + X * M, k * PY * L + Y * M, M * L)
                           for PX, PY, M in self.vertex_triples])
        return ConvexRegion(tuple(hps), False, verts,
                            rays=tuple((k * gx, k * gy) for gx, gy in self._rays))

    # -- sampling -----------------------------------------------------------

    def sample_points(self, count: int, seed: int) -> Tuple[tuple, ...]:
        """Deterministic lattice triples of points strictly interior to the
        region (`barycentric_triples` over its vertex cycle).

        An unbounded region must first be intersected with a box region.
        """
        if count <= 0:
            return ()
        if self.is_empty:
            raise EmptyRegionError("cannot sample an empty region")
        if not self.is_bounded():
            raise ValueError("sampling an unbounded region: intersect it with a box first")
        # a bounded region is a polygon
        triples = list(barycentric_triples(self.vertex_triples, count, seed))
        assert all(self.contains(t) > 0 for t in triples)
        return tuple(triples)

    # -- identity ------------------------------------------------------------

    def canonical_key(self):
        """Each constraint's `form`, in order."""
        if self.is_empty:
            return ("empty",)
        return tuple(h.form for h in self.constraints)

    def __eq__(self, other):
        if not isinstance(other, ConvexRegion):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        if self.is_empty:
            return "EMPTY_REGION"
        return f"ConvexRegion({len(self.constraints)} constraints)"


EMPTY_REGION = ConvexRegion((), True)


def region(halfplanes: Iterable[HalfPlane]) -> ConvexRegion:
    return ConvexRegion.from_halfplanes(halfplanes)


def box_region(xmin: ScalarLike, ymin: ScalarLike, xmax: ScalarLike, ymax: ScalarLike) -> ConvexRegion:
    """xmin <= x <= xmax and ymin <= y <= ymax: a bound n/q (`as_integer_ratio()`)
    is the line q*x = n (q*y = n) over the scale q.  A box with xmin >= xmax
    or ymin >= ymax has no interior: it is `EMPTY_REGION`."""
    return region(HalfPlane(Line((q * ax, q * (1 - ax), n), q), sense)
                  for ax, bound, sense in ((1, xmin, Sense.GE), (1, xmax, Sense.LE),
                                           (0, ymin, Sense.GE), (0, ymax, Sense.LE))
                  for n, q in [bound.as_integer_ratio()])


def polygon_region(vertices: Sequence[Point], open_region: bool = False) -> ConvexRegion:
    """Region of a convex polygon given by clockwise vertices: the positive
    side of each of its `edge_lines`."""
    sense, lines = Sense.GT if open_region else Sense.GE, edge_lines(*lattice_of(vertices))
    if any(line.ints[:2] == (0, 0) for line in lines):
        raise ValueError("a repeated vertex: an edge of length 0 has no line")
    return region(HalfPlane(line, sense) for line in lines)
