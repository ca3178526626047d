"""Exact planar geometry: points, lines, half-planes and convex regions.

Everything here works over an ordered field (Fraction or QuadExt coordinates)
with exact sign tests.  Convex regions are stored as canonicalized half-plane
intersections; emptiness, redundancy and boundedness are decided exactly with
a small Fourier-Motzkin elimination, never with floating point.  A region's
recession direction (`ConvexRegion.recession_direction`) is the one answer to
both "is it bounded" and "which way does it run off to infinity".

Frame convention: y axis up, polygon vertex lists clockwise, "right of a ray"
means the negative cross-product side.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Optional, Sequence, Tuple

from .errors import EmptyRegionError, UnboundedRegionError
from .rng import Rng
from .scalars import QuadExt, Scalar, ScalarLike, as_scalar, quad_sign, sign


# ---------------------------------------------------------------------------
# points and vectors


@dataclass(frozen=True)
class Vec:
    x: Scalar
    y: Scalar

    def __add__(self, other: "Vec") -> "Vec":
        return Vec(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec") -> "Vec":
        return Vec(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec":
        return Vec(-self.x, -self.y)

    def __mul__(self, k: ScalarLike) -> "Vec":
        return Vec(self.x * k, self.y * k)

    __rmul__ = __mul__

    def cross(self, other: "Vec") -> Scalar:
        return self.x * other.y - self.y * other.x

    def dot(self, other: "Vec") -> Scalar:
        return self.x * other.x + self.y * other.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


@dataclass(frozen=True)
class Point:
    x: Scalar
    y: Scalar

    def __add__(self, v: Vec) -> "Point":
        if not isinstance(v, Vec):
            return NotImplemented
        return Point(self.x + v.x, self.y + v.y)

    def __sub__(self, other):
        if isinstance(other, Point):
            return Vec(self.x - other.x, self.y - other.y)
        if isinstance(other, Vec):
            return Point(self.x - other.x, self.y - other.y)
        return NotImplemented

    def reflect_through(self, center: "Point") -> "Point":
        """Point reflection: 2*center - self."""
        return Point(2 * center.x - self.x, 2 * center.y - self.y)


def pt(x: ScalarLike, y: ScalarLike) -> Point:
    return Point(as_scalar(x), as_scalar(y))


def vec(x: ScalarLike, y: ScalarLike) -> Vec:
    return Vec(as_scalar(x), as_scalar(y))


def norm2_sq(p: Point) -> Scalar:
    return p.x * p.x + p.y * p.y


def direction_ccw_cmp(u: Vec, v: Vec) -> int:
    """Compare directions by counterclockwise angle from the positive x-axis.

    Total order on nonzero directions in [0, 2*pi); exact.
    """
    hu = 0 if (sign(u.y) > 0 or (u.y == 0 and sign(u.x) > 0)) else 1
    hv = 0 if (sign(v.y) > 0 or (v.y == 0 and sign(v.x) > 0)) else 1
    if hu != hv:
        return -1 if hu < hv else 1
    c = sign(u.cross(v))
    return -c


def slope_angle_cmp(u: Vec, v: Vec) -> int:
    """Compare directions as projective slopes, angle in [0, pi).

    Directions are folded into the closed upper half plane first, so u and -u
    compare equal.
    """
    u = -u if (sign(u.y) < 0 or (u.y == 0 and sign(u.x) < 0)) else u
    v = -v if (sign(v.y) < 0 or (v.y == 0 and sign(v.x) < 0)) else v
    return -sign(u.cross(v))


# ---------------------------------------------------------------------------
# lines and half-planes


class Line:
    """The line a*x + b*y = c, with (a, b) != (0, 0).

    Coefficients are stored exactly as given (so signed offsets keep the
    caller's scale); equality and hashing use a canonical rescaling, making
    wall-coincidence tests structural.  Construction also keeps an integer
    form, (a, b, c) times the positive lcm of their denominators, from which
    `side` decides every point-versus-line predicate.
    """

    __slots__ = ("a", "b", "c", "_key", "_num", "_rad", "_d")

    def __init__(self, a: ScalarLike, b: ScalarLike, c: ScalarLike):
        a, b, c = as_scalar(a), as_scalar(b), as_scalar(c)
        if a == 0 and b == 0:
            raise ValueError("line requires (a, b) != (0, 0)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        lead = a if a != 0 else b
        object.__setattr__(self, "_key", (a / lead, b / lead, c / lead))
        num, rad, d = _integer_form((a, b, c))
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_rad", rad)
        object.__setattr__(self, "_d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Line is immutable")

    @staticmethod
    def through(p: Point, q: Point) -> "Line":
        d = q - p
        if d.is_zero():
            raise ValueError("line through two equal points")
        # normal (-dy, dx); offset of x is then cross(d, x - p)
        return Line(-d.y, d.x, d.x * p.y - d.y * p.x)

    def signed_offset(self, p: Point) -> Scalar:
        """a*p.x + b*p.y - c; zero exactly when p lies on the line."""
        return self.a * p.x + self.b * p.y - self.c

    def side(self, p: Point) -> int:
        """The exact sign of `signed_offset(p)`: -1, 0 or +1.

        p is taken to homogeneous integer coordinates (X, Y, Q), Q > 0, with
        (x, y) = (X/Q, Y/Q), and the sign of a*X + b*Y - c*Q is read on the
        integer coefficients; over Q(sqrt d) each integer is a (rational
        part, sqrt(d) part) pair and `quad_sign` decides the sign.
        """
        x, y = p.x, p.y
        if self._d is None and not isinstance(x, QuadExt) and not isinstance(y, QuadExt):
            a, b, c = self._num
            xn, xq = x.as_integer_ratio()
            yn, yq = y.as_integer_ratio()
            t = a * xn * yq + b * yn * xq - c * xq * yq
            return (t > 0) - (t < 0)
        xr, xs, xq, dx = _integer_parts(x)
        yr, ys, yq, dy = _integer_parts(y)
        d = _common_radicand((self._d, dx, dy))
        ar, br, cr = self._num
        as_, bs, cs = self._rad or (0, 0, 0)
        q = xq * yq
        # (u + v sqrt d)(r + s sqrt d) = (u r + v s d) + (u s + v r) sqrt d
        rat = (ar * xr + as_ * xs * d) * yq + (br * yr + bs * ys * d) * xq - cr * q
        rad = (ar * xs + as_ * xr) * yq + (br * ys + bs * yr) * xq - cs * q
        return quad_sign(rat, rad, d)

    def normal(self) -> Vec:
        return Vec(self.a, self.b)

    def direction(self) -> Vec:
        return Vec(-self.b, self.a)

    def parallel_offset(self, delta: ScalarLike) -> "Line":
        """The parallel line whose signed offsets are shifted down by delta."""
        return Line(self.a, self.b, self.c + delta)

    def is_parallel(self, other: "Line") -> bool:
        return self.a * other.b - self.b * other.a == 0

    def intersection(self, other: "Line") -> Optional[Point]:
        det = self.a * other.b - other.a * self.b
        if det == 0:
            return None
        x = (self.c * other.b - other.c * self.b) / det
        y = (self.a * other.c - other.a * self.c) / det
        return Point(x, y)

    def __eq__(self, other):
        return isinstance(other, Line) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Line({self.a}, {self.b}, {self.c})"


def _integer_form(coeffs):
    """Coefficients times the positive lcm of all their denominators: the
    int rational parts, the int sqrt(d) parts (None over Q), and d."""
    parts = [_integer_parts(x) for x in coeffs]
    d = _common_radicand(d for _, _, _, d in parts)
    scale = math.lcm(*(q for _, _, q, _ in parts))
    num = tuple(r * (scale // q) for r, _, q, _ in parts)
    if d is None:
        return num, None, None
    return num, tuple(s * (scale // q) for _, s, q, _ in parts), d


def _common_radicand(ds):
    """The one d among ds, None entries aside (None when all are None);
    two different values are a ValueError, as in QuadExt arithmetic."""
    fields = set(ds) - {None}
    if len(fields) > 1:
        raise ValueError("cannot mix " + " with ".join(f"sqrt({d})" for d in sorted(fields)))
    return fields.pop() if fields else None


def _integer_parts(x):
    """x as (r, s, q, d) with x = (r + s*sqrt(d)) / q, q > 0; d None over Q."""
    if isinstance(x, QuadExt):
        (an, aq), (bn, bq) = x.a.as_integer_ratio(), x.b.as_integer_ratio()
        return an * bq, bn * aq, aq * bq, x.d
    n, q = x.as_integer_ratio()
    return n, 0, q, None


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
        return {Sense.GE: Sense.LE, Sense.GT: Sense.LT,
                Sense.LE: Sense.GE, Sense.LT: Sense.GT}[self]

    def strictened(self) -> "Sense":
        return {Sense.GE: Sense.GT, Sense.LE: Sense.LT}.get(self, self)


@dataclass(frozen=True)
class HalfPlane:
    """Constraint `a*x + b*y (sense) c` over the line's stored coefficients."""

    line: Line
    sense: Sense

    def contains(self, p: Point) -> bool:
        s = self.line.side(p)
        if self.sense is Sense.GE:
            return s >= 0
        if self.sense is Sense.GT:
            return s > 0
        if self.sense is Sense.LE:
            return s <= 0
        return s < 0

    def normalized(self) -> Tuple[Scalar, Scalar, Scalar, bool]:
        """Rewrite as (a, b, c, strict) meaning a*x + b*y >= c (or > c)."""
        a, b, c = self.line.a, self.line.b, self.line.c
        if self.sense.upper:
            a, b, c = -a, -b, -c
        return a, b, c, self.sense.strict

    def canonical_key(self):
        a, b, c, strict = self.normalized()
        lead = abs(a) if a != 0 else abs(b)
        return (a / lead, b / lead, c / lead, strict)

    def strictened(self) -> "HalfPlane":
        return HalfPlane(self.line, self.sense.strictened())

    def complement(self) -> "HalfPlane":
        comp = {Sense.GE: Sense.LT, Sense.GT: Sense.LE,
                Sense.LE: Sense.GT, Sense.LT: Sense.GE}[self.sense]
        return HalfPlane(self.line, comp)


def half_plane(a: ScalarLike, b: ScalarLike, c: ScalarLike, sense: Sense) -> HalfPlane:
    return HalfPlane(Line(a, b, c), sense)


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility over (a*x + b*y >= c | > c) systems

_Norm = Tuple[Scalar, Scalar, Scalar, bool]


def _combine_bounds(lows, ups):
    """Pair every lower bound p+q*y <= x with every upper bound; yield the
    induced y-constraints as (coef, const, strict) meaning coef*y >= const."""
    for (p1, q1, s1) in lows:
        for (p2, q2, s2) in ups:
            # p1 + q1*y  <=  p2 + q2*y   (strict if either side is strict)
            yield (q2 - q1, p1 - p2, s1 or s2)


def _one_dim_feasible(bounds) -> bool:
    """bounds: iterable of (coef, const, strict) meaning coef*t >= const."""
    lo = up = None  # (value, strict)
    for coef, const, strict in bounds:
        if coef == 0:
            if const > 0 or (const == 0 and strict):
                return False
            continue
        val = const / coef
        if sign(coef) > 0:
            if lo is None or val > lo[0] or (val == lo[0] and strict):
                lo = (val, strict)
        else:
            if up is None or val < up[0] or (val == up[0] and strict):
                up = (val, strict)
    if lo is None or up is None:
        return True
    if lo[0] < up[0]:
        return True
    if lo[0] == up[0] and not lo[1] and not up[1]:
        return True
    return False


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


def _eliminate_x(norms: Sequence[_Norm]):
    """Project the system onto the y-axis; returns y-bounds plus the x-bound
    builders (functions of y) for point recovery."""
    lows, ups, pure = [], [], []
    for (a, b, c, strict) in norms:
        if a == 0:
            pure.append((b, c, strict))  # b*y >= c
        else:
            # a*x >= c - b*y; divide by a
            p, q = c / a, -b / a
            if sign(a) > 0:
                lows.append((p, q, strict))  # x >= p + q*y
            else:
                ups.append((p, q, strict))  # x <= p + q*y
    ybounds = list(pure)
    ybounds.extend(_combine_bounds(lows, ups))
    return ybounds, lows, ups


def _feasible(norms: Sequence[_Norm]) -> bool:
    ybounds, _, _ = _eliminate_x(norms)
    return _one_dim_feasible(ybounds)


def _pick_in_interval(lo, up, rng: Optional[Rng] = None, counter: int = 0):
    if lo is not None and up is not None:
        if lo[0] == up[0]:
            return lo[0]
        if rng is None:
            return (lo[0] + up[0]) / 2
        return rng.between(counter, lo[0], up[0])
    if lo is not None:
        return lo[0] + (1 if rng is None else rng.unit(counter))
    if up is not None:
        return up[0] - (1 if rng is None else rng.unit(counter))
    return Fraction(0) if rng is None else rng.unit(counter)


def _find_point(norms: Sequence[_Norm], rng: Optional[Rng] = None,
                counter: int = 0) -> Optional[Point]:
    """A point of the system, or None; deterministic, exact."""
    ybounds, lows, ups = _eliminate_x(norms)
    if not _one_dim_feasible(ybounds):
        return None
    ylo, yup = _one_dim_interval(ybounds)
    y = _pick_in_interval(ylo, yup, rng, 2 * counter)
    xbounds = [(Fraction(1), p + q * y, s) for (p, q, s) in lows]
    xbounds.extend((Fraction(-1), -(p + q * y), s) for (p, q, s) in ups)
    xlo, xup = _one_dim_interval(xbounds)
    x = _pick_in_interval(xlo, xup, rng, 2 * counter + 1)
    return Point(as_scalar(x), as_scalar(y))


# ---------------------------------------------------------------------------
# convex regions


class Location(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def _hp_sort_key(h: HalfPlane):
    a, b, c, strict = h.canonical_key()
    return (_scalar_sort_key(a), _scalar_sort_key(b), _scalar_sort_key(c), strict)


def _scalar_sort_key(x: Scalar):
    # (rational part, radical part) sorts Fractions and QuadExts consistently
    from .scalars import QuadExt

    if isinstance(x, QuadExt):
        return (x.a, x.b)
    return (x, Fraction(0))


class ConvexRegion:
    """Intersection of finitely many half-planes, kept in canonical form.

    Canonical form: exact duplicates merged, infeasible systems collapsed to
    the canonical empty region, redundant constraints removed in a fixed
    order.  Equality of full-dimensional (or empty) regions is then
    structural.
    """

    __slots__ = ("constraints", "is_empty", "_norms", "_sides")

    def __init__(self, constraints: Tuple[HalfPlane, ...], is_empty: bool):
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "is_empty", is_empty)
        object.__setattr__(self, "_norms", tuple(h.normalized() for h in constraints))
        # (line, orientation): the constraint holds where orientation * side >= 0
        object.__setattr__(self, "_sides", tuple((h.line, -1 if h.sense.upper else 1)
                                                 for h in constraints))

    def __setattr__(self, name, value):
        raise AttributeError("ConvexRegion is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_halfplanes(halfplanes: Iterable[HalfPlane]) -> "ConvexRegion":
        hps = list(halfplanes)
        # merge duplicates: for identical oriented lines keep the strict one
        by_line = {}
        for h in hps:
            a, b, c, strict = h.canonical_key()
            key = (_scalar_sort_key(a), _scalar_sort_key(b), _scalar_sort_key(c))
            prev = by_line.get(key)
            if prev is None or (strict and not prev.canonical_key()[3]):
                by_line[key] = h
        hps = sorted(by_line.values(), key=_hp_sort_key)
        norms = [h.normalized() for h in hps]
        if not _feasible(norms):
            return EMPTY_REGION
        # drop redundant constraints, in deterministic order
        keep = list(hps)
        i = 0
        while i < len(keep):
            h = keep[i]
            others = keep[:i] + keep[i + 1:]
            test = [o.normalized() for o in others] + [h.complement().normalized()]
            if not _feasible(test):
                keep.pop(i)
            else:
                i += 1
        return ConvexRegion(tuple(keep), False)

    @staticmethod
    def whole_plane() -> "ConvexRegion":
        return ConvexRegion((), False)

    @staticmethod
    def empty() -> "ConvexRegion":
        return EMPTY_REGION

    # -- queries ------------------------------------------------------------

    def contains(self, p: Point) -> Location:
        """Classify p against the region: interior, boundary (of the closure,
        including boundary lines of strict constraints), or outside."""
        if self.is_empty:
            return Location.OUTSIDE
        saw_zero = False
        for line, orientation in self._sides:
            s = orientation * line.side(p)
            if s < 0:
                return Location.OUTSIDE
            if s == 0:
                saw_zero = True
        return Location.BOUNDARY if saw_zero else Location.INTERIOR

    def has_interior(self) -> bool:
        if self.is_empty:
            return False
        return _feasible([(a, b, c, True) for (a, b, c, _) in self._norms])

    def interior_point(self, rng: Optional[Rng] = None, counter: int = 0) -> Point:
        if self.is_empty:
            raise EmptyRegionError("empty region has no interior point")
        p = _find_point([(a, b, c, True) for (a, b, c, _) in self._norms], rng, counter)
        if p is None:
            raise EmptyRegionError("region has empty interior")
        return p

    def recession_direction(self) -> Optional[Vec]:
        """A rational direction along which the region recedes to infinity,
        strictly interior to the recession cone when that cone has interior;
        None exactly when the region is bounded (or empty).

        Every nonzero direction is a positive multiple of (+-1, t) or (0, +-1),
        and d recedes when a*d.x + b*d.y >= 0 on every constraint.
        """
        if self.is_empty:
            return None
        for strict in (True, False):
            for dx in (1, -1):
                bounds = [(b, -a * dx, strict) for (a, b, _, _) in self._norms]
                if _one_dim_feasible(bounds):
                    t = _pick_in_interval(*_one_dim_interval(bounds))
                    return Vec(Fraction(dx), t)
        for dy in (1, -1):
            if all(sign(b * dy) >= 0 for (_, b, _, _) in self._norms):
                return Vec(Fraction(0), Fraction(dy))
        return None

    def is_bounded(self) -> bool:
        return self.recession_direction() is None

    def vertices(self) -> Tuple[Point, ...]:
        """Vertices of the closure, in clockwise order starting from the
        lexicographically smallest; empty tuple when there are none."""
        if self.is_empty:
            return ()
        uniq = []
        for h in self.constraints:
            if h.line not in uniq:
                uniq.append(h.line)
        cands = []
        for i in range(len(uniq)):
            for j in range(i + 1, len(uniq)):
                p = uniq[i].intersection(uniq[j])
                if p is None:
                    continue
                if all(o * line.side(p) >= 0 for line, o in self._sides):
                    if p not in cands:
                        cands.append(p)
        if len(cands) <= 2:
            return tuple(sorted(cands, key=lambda q: (_scalar_sort_key(q.x), _scalar_sort_key(q.y))))
        cx = sum((q.x for q in cands), start=Fraction(0)) / len(cands)
        cy = sum((q.y for q in cands), start=Fraction(0)) / len(cands)
        center = Point(cx, cy)

        def ccw_cmp(u: Point, v: Point) -> int:
            return direction_ccw_cmp(u - center, v - center)

        ordered = sorted(cands, key=cmp_to_key(ccw_cmp))
        ordered.reverse()  # clockwise under the y-up frame
        start = min(range(len(ordered)),
                    key=lambda i: (_scalar_sort_key(ordered[i].x), _scalar_sort_key(ordered[i].y)))
        return tuple(ordered[start:] + ordered[:start])

    def area(self) -> Scalar:
        """Exact area of the closure; zero for the empty region."""
        if self.is_empty:
            return Fraction(0)
        if not self.is_bounded():
            raise UnboundedRegionError("area of an unbounded region")
        verts = self.vertices()
        if len(verts) < 3:
            return Fraction(0)
        acc = Fraction(0)
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            acc = acc + (v.x * w.y - w.x * v.y)
        return abs(acc) / 2

    # -- constructors of derived regions ------------------------------------

    def intersect(self, other: "ConvexRegion") -> "ConvexRegion":
        if self.is_empty or other.is_empty:
            return EMPTY_REGION
        return ConvexRegion.from_halfplanes(self.constraints + other.constraints)

    def translate(self, v: Vec) -> "ConvexRegion":
        if self.is_empty:
            return self
        shifted = [HalfPlane(Line(h.line.a, h.line.b,
                                  h.line.c + h.line.a * v.x + h.line.b * v.y),
                             h.sense)
                   for h in self.constraints]
        return ConvexRegion.from_halfplanes(shifted)

    def point_reflect(self, center: Point) -> "ConvexRegion":
        if self.is_empty:
            return self
        out = []
        for h in self.constraints:
            a, b, c = h.line.a, h.line.b, h.line.c
            out.append(HalfPlane(Line(a, b, 2 * (a * center.x + b * center.y) - c),
                                 h.sense.flipped()))
        return ConvexRegion.from_halfplanes(out)

    # -- sampling -----------------------------------------------------------

    def sample_points(self, count: int, seed: int,
                      clip: Optional["ConvexRegion"] = None) -> Tuple[Point, ...]:
        """Deterministic rational points strictly interior to the region.

        Unbounded regions must be clipped by a caller-supplied box region.
        """
        if count <= 0:
            return ()
        if self.is_empty:
            raise EmptyRegionError("cannot sample an empty region")
        target = self
        if not self.is_bounded():
            if clip is None:
                raise ValueError("sampling an unbounded region requires a clip box")
            target = self.intersect(clip)
            if target.is_empty:
                raise EmptyRegionError("clip box misses the region")
        if not target.has_interior():
            raise EmptyRegionError("region has no interior to sample")
        verts = target.vertices()
        rng = Rng(seed).split(0x5A17)
        out = []
        if len(verts) >= 3:
            k = len(verts)
            for i in range(count):
                ws = [rng.unit(i * k + j) for j in range(k)]
                total = sum(ws)
                x = sum((w * v.x for w, v in zip(ws, verts)), start=Fraction(0)) / total
                y = sum((w * v.y for w, v in zip(ws, verts)), start=Fraction(0)) / total
                out.append(Point(as_scalar(x), as_scalar(y)))
        else:
            strict = [(a, b, c, True) for (a, b, c, _) in target._norms]
            for i in range(count):
                p = _find_point(strict, rng, i)
                if p is None:
                    raise EmptyRegionError("region has no interior to sample")
                out.append(p)
        for p in out:
            assert self.contains(p) is Location.INTERIOR
        return tuple(out)

    # -- identity ------------------------------------------------------------

    def canonical_key(self):
        if self.is_empty:
            return ("empty",)
        return tuple(h.canonical_key() for h in self.constraints)

    def __eq__(self, other):
        if not isinstance(other, ConvexRegion):
            return NotImplemented
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        if self.is_empty:
            return hash("empty-region")
        return hash(tuple((_hp_sort_key(h)) for h in self.constraints))

    def __repr__(self):
        if self.is_empty:
            return "ConvexRegion.empty()"
        return f"ConvexRegion({len(self.constraints)} constraints)"


EMPTY_REGION = ConvexRegion((), True)


def region(halfplanes: Iterable[HalfPlane]) -> ConvexRegion:
    return ConvexRegion.from_halfplanes(halfplanes)


def box_region(xmin: ScalarLike, ymin: ScalarLike, xmax: ScalarLike, ymax: ScalarLike) -> ConvexRegion:
    return region([
        half_plane(1, 0, xmin, Sense.GE),
        half_plane(1, 0, xmax, Sense.LE),
        half_plane(0, 1, ymin, Sense.GE),
        half_plane(0, 1, ymax, Sense.LE),
    ])


def polygon_region(vertices: Sequence[Point], open_region: bool = False) -> ConvexRegion:
    """Region of a convex polygon given by clockwise vertices."""
    n = len(vertices)
    sense = Sense.LT if open_region else Sense.LE
    hps = []
    for i in range(n):
        t, h = vertices[i], vertices[(i + 1) % n]
        d = h - t
        # interior of a clockwise polygon is the cross(d, p - t) < 0 side
        hps.append(HalfPlane(Line(-d.y, d.x, d.x * t.y - d.y * t.x), sense))
    return region(hps)


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Exact closed-segment intersection test."""

    def orient(a: Point, b: Point, c: Point) -> int:
        return sign((b - a).cross(c - a))

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
