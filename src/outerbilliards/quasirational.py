"""Quasirationality, necklace polygons, and the orbit-boundedness certificate.

A polygon is quasirational when the areas of the n overlap parallelograms of
consecutive strips have pairwise rational ratios (equivalently, the polygon
scales so all the areas are integers).  For such polygons the ring of
polygon copies spaced m*D_j shifts apart along each strip is carried around
strip by strip, which traps every orbit between consecutive rings.

One wrinkle the construction must respect: carrying a shifted copy from strip
j to strip j+1 multiplies the shift exponent by +-A_j/A_{j+1}, and the product
of the signs around the full cycle is -1 (the ring crosses each strip twice,
on opposite sides of the polygon, and one full turn lands on the other side).
The invariance checks therefore work with the two-sided ring |exponent| = m*D.

Every ring copy is P itself moved rigidly (translated, or rotated 180 degrees
about a strip's centre vertex and translated), so each of its edges is one of
P's edge forms moved along: at exponent m, the form A*X + B*Y - (C + m*D)*L
on a point's lattice triple (X, Y, L), with D the edge's rate along the shift.
"Is p inside this copy" is a sign per edge on integers; no copy's region is
built except where the copy is sampled, and then P's region is moved there.

A strip's ring is one `NecklaceSpec` value: `necklace` computes the strip's
frame once (the shift, the axis range of P and Q along it, shift.shift), and
the ring answers every query from it: copy membership, the annulus windows,
annulus membership, the point at given frame coordinates, and P's region
placed on a copy.  A caller builds each strip's ring once and asks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd
from typing import Optional, Tuple

from .errors import AnnulusNotFoundError, NotQuasirationalError
from .geometry import ConvexRegion, Point, Vec, integer_form, lattice
from .polygon import NicePolygon
from .scalars import Scalar, sign
from .strips import PinwheelPair, PinwheelSystem


@dataclass(frozen=True)
class QuasiData:
    areas: Tuple[Scalar, ...]          # A_j = area(strip_j overlap strip_{j+1})
    quasirational: bool
    # with every D/A_j integral: over Q the least positive integer such D
    # (areas 148/3 give D = 148, not 148/3), else the least positive such D
    D: Optional[Scalar]
    D_int: Optional[Tuple[int, ...]]   # the integers D/A_j


def overlap_area(system: PinwheelSystem, j: int) -> Scalar:
    return system.strip(j).intersect(system.strip(j + 1)).area()


def quasi_analyze(system: PinwheelSystem) -> QuasiData:
    n = system.n
    areas = tuple(overlap_area(system, j) for j in range(n))
    assert all(sign(a) > 0 for a in areas)
    if all(isinstance(a, Fraction) for a in areas):
        num = 1
        for a in areas:
            num = num * a.numerator // gcd(num, a.numerator)
        d = Fraction(num)
        ints = tuple(int(d / a) for a in areas)
        return QuasiData(areas, True, d, ints)
    ratios = [areas[j] / areas[0] for j in range(n)]
    if not all(isinstance(r, Fraction) for r in ratios):
        return QuasiData(areas, False, None, None)
    # irrational areas with rational ratios: D = lcm(ratio numerators) * A_0
    t = 1
    for r in ratios:
        t = t * r.numerator // gcd(t, r.numerator)
    d = areas[0] * t
    ints = []
    for a in areas:
        q = d / a
        assert isinstance(q, Fraction) and q.denominator == 1
        ints.append(int(q))
    return QuasiData(areas, True, d, tuple(ints))


# ---------------------------------------------------------------------------
# necklace rings, annulus membership and the boundedness certificate


@dataclass(frozen=True)
class NecklaceSpec:
    """Strip j's ring at exponent m: the copies P + m*shift and Q + m*shift,
    Q being P turned 180 degrees about the strip's centre vertex, stored as
    rigid motions of P together with the strip's frame.  A point's axis
    coordinate is shift.p; the ring spans the axis range [lo, hi] + m*dd.
    Membership reads `forms`, which do not depend on m: `necklace` builds
    them once per strip, and `at` carries them to another exponent."""

    j: int
    m: int
    shift: Vec                     # vector parallel to edge j spanning strip j+1
    pair: PinwheelPair             # strip j; its centre vertex is pair.w
    polygon: NicePolygon           # P
    lo: Scalar                     # axis range of P and Q together
    hi: Scalar
    dd: Scalar                     # shift.shift
    # integer forms (A, B, C, D) of P's edges, of Q's, and of the trapped
    # extent's two ends
    forms: Tuple = field(repr=False, compare=False)

    @property
    def center(self) -> Point:
        return self.pair.w

    def at(self, m: int) -> "NecklaceSpec":
        """The same strip's ring at exponent m."""
        return replace(self, m=m)

    @property
    def p_vertices(self) -> Tuple[Point, ...]:
        """The vertices of P + m*shift."""
        offset = self.shift * self.m
        return tuple(v + offset for v in self.polygon.vertices)

    @property
    def q_vertices(self) -> Tuple[Point, ...]:
        """The vertices of (P turned 180 degrees about center) + m*shift."""
        offset = self.shift * self.m
        return tuple(v.reflect_through(self.center) + offset
                     for v in self.polygon.vertices)

    def place(self, region: ConvexRegion, kind: str) -> ConvexRegion:
        """P's region moved onto the copy P + m*shift (kind "P") or
        Q + m*shift (kind "Q")."""
        if kind == "Q":
            region = region.point_reflect(self.center)
        return region.translate(self.shift * self.m)

    def _triple(self, p):
        return p if type(p) is tuple else self.polygon.homogeneous(p)

    def in_p(self, p) -> bool:
        """p (a Point or its lattice triple) is interior to P + m*shift."""
        return _least_sign(self.forms[0], self.m, self._triple(p)) > 0

    def in_q(self, p) -> bool:
        """p (a Point or its lattice triple) is interior to Q + m*shift."""
        return _least_sign(self.forms[1], self.m, self._triple(p)) > 0

    def contains(self, p) -> bool:
        here = self._triple(p)
        return any(_least_sign(forms, self.m, here) > 0 for forms in self.forms[:2])

    def windows(self):
        """The two axis windows strictly between the base ring and the
        +-m rings."""
        shift = self.m * self.dd
        return ((self.hi, self.lo + shift), (self.hi - shift, self.lo))

    def in_annulus(self, p: Point) -> bool:
        """Conservative membership: inside the strip and strictly within one
        of the windows (a subset of the pictorial 'between')."""
        if self.pair.location(p) != 1:
            return False
        s = self.shift.dot(p)
        return any(a < s < b for a, b in self.windows())

    def frame_point(self, s: Scalar, off: Scalar) -> Point:
        """The point with axis coordinate s and strip offset off (0 on the
        strip's edge line): where a*x + b*y = c + off meets shift.(x, y) = s."""
        line, d = self.pair.line, self.shift
        c = line.c + off
        det = line.a * d.y - d.x * line.b
        return Point((c * d.y - s * line.b) / det, (line.a * s - d.x * c) / det)


def necklace_shift(system: PinwheelSystem, j: int) -> Vec:
    """The vector parallel to edge j that spans strip j+1, oriented so the
    strip-(j+1) offset increases by one width."""
    pj = system.pair(j)
    nxt = system.pair(j + 1)
    e = system.polygon.edges[pj.edge_index]
    d = system.polygon.vertices[e.head] - system.polygon.vertices[e.tail]
    t = nxt.width / (nxt.line.a * d.x + nxt.line.b * d.y)
    return d * t


def _least_sign(forms, m: int, here) -> int:
    """The least sign of A*X + B*Y - (C + m*D)*L over the forms on the
    triple (X, Y, L): +1 inside all of them, 0 on a boundary, -1 outside."""
    X, Y, L = here
    low = 1
    for A, B, C, D in forms:
        t = A * X + B * Y - (C + m * D) * L
        s = (t > 0) - (t < 0) if type(t) is int else t.sign()
        if s < 0:
            return s
        low = min(low, s)
    return low


def necklace(system: PinwheelSystem, j: int, m: int) -> NecklaceSpec:
    """Strip j's ring at exponent m, its frame computed once: Q's axis range
    is P's reflected through twice the centre's axis coordinate.  An edge
    a*x + b*y > c of P has D = a*sx + b*sy, and its turned copy on Q is
    -a*x - b*y > c - 2(a*cx + b*cy) with -D, (cx, cy) the centre vertex;
    both are read on the edge's integer form over the shift's and the
    polygon's lattices."""
    pair = system.pair(j)
    polygon = system.polygon
    d = necklace_shift(system, j)
    vals = [d.dot(v) for v in polygon.vertices]
    lo, hi = min(vals), max(vals)
    twice_center = 2 * d.dot(pair.w)
    lo, hi = min(lo, twice_center - hi), max(hi, twice_center - lo)
    sq, ((SX, SY),) = lattice((d,))
    den, (WX, WY) = polygon.den, polygon.lattice[pair.w_index]
    p_forms, q_forms = [], []
    for A, B, C in (e.line.ints for e in polygon.edges):
        D = A * SX + B * SY
        p_forms.append((A * sq, B * sq, C * sq, D))
        q_forms.append((-A * sq * den, -B * sq * den, (C * den - 2 * (A * WX + B * WY)) * sq,
                        -D * den))
    dd = d.dot(d)
    # lo - m*dd <= shift.p <= hi + m*dd
    extent = (integer_form(d.x, d.y, lo, -dd), integer_form(-d.x, -d.y, -hi, -dd))
    return NecklaceSpec(j % system.n, m, d, pair, polygon, lo, hi, dd,
                        (tuple(p_forms), tuple(q_forms), extent))


def annulus_windows(system: PinwheelSystem, j: int, m_exponent: int):
    """The two axis-coordinate windows of strip j strictly between the base
    ring and the +-m_exponent rings."""
    return necklace(system, j, m_exponent).windows()


def in_trapped_extent(ring: NecklaceSpec, p) -> bool:
    """Loose membership: inside the ring's strip, within the closed axis
    extent of the rings at +-ring.m, and not interior to either of them.  The
    image of any between-point lands here; points here can never escape.
    p is a Point or its lattice triple."""
    here = ring._triple(p)
    if ring.pair.location(here) != 1 or _least_sign(ring.forms[2], ring.m, here) < 0:
        return False
    return not (ring.contains(here) or ring.at(-ring.m).contains(here))


def boundedness_certificate(system: PinwheelSystem, quasi: QuasiData,
                            p: Point, m: int) -> Tuple[bool, Scalar]:
    """Certify that p's orbit is bounded: p must sit in some strip's m-ring
    annulus; the returned radius is an L1 bound every future orbit point obeys.

    The certificate rests on the carried-ring invariance (checked separately);
    the radius covers the two-sided rings of every strip, so the orbit cannot
    leave the disk |x| + |y| <= radius.
    """
    if not quasi.quasirational:
        raise NotQuasirationalError("polygon is not quasirational")
    if m < 1:
        raise ValueError("m must be >= 1")
    rings = [necklace(system, j, m * quasi.D_int[j]) for j in range(system.n)]
    if not any(ring.in_annulus(p) for ring in rings):
        raise AnnulusNotFoundError(
            f"point {p} is not inside any strip's m={m} annulus")
    radius = Fraction(0)
    for ring in rings:
        shift = ring.m * ring.dd
        for s_val in (ring.lo - shift, ring.hi + shift):
            for off in (Fraction(0), ring.pair.width):
                corner = ring.frame_point(s_val, off)
                radius = max(radius, abs(corner.x) + abs(corner.y))
    return True, radius
