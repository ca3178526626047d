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
"Is p inside this copy" is a sign per edge on integers, and no copy's region
is built: samples drawn on P's lattice are carried there by its rigid motion.

A strip's ring is one `NecklaceSpec` value, built once per strip: `necklace`
reads its frame in ints off the strips' forms and P's lattice (the shift, the
axis range of P and Q along it, shift.shift), and the ring answers every query
from it: copy and annulus membership, a copy's samples, and the points at frame
coordinates given as (num, den) pairs, as the window and extent ends are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Tuple

from .errors import AnnulusNotFoundError, NotQuasirationalError
from .geometry import Point, Vec, barycentric_triples, least_sign, moved, vec_of
from .polygon import NicePolygon
from .scalars import Scalar, cleared, primitive, ratio, sign
from .strips import PinwheelPair, PinwheelSystem


@dataclass(frozen=True)
class QuasiData:
    areas: Tuple[Scalar, ...]          # A_j = area(strip_j overlap strip_{j+1})
    quasirational: bool
    # with every D/A_j integral: over Q the least positive integer such D
    # (areas 148/3 give D = 148, not 148/3), else the least positive such D
    D: Optional[Scalar]
    D_int: Optional[Tuple[int, ...]]   # the integers D/A_j


def quasi_analyze(system: PinwheelSystem) -> QuasiData:
    """The overlap areas A_j = W_j*W_{j+1} / |a_j*b_{j+1} - a_{j+1}*b_j| as
    (num, den) pairs on the strips' forms (A, B, C, wn, wq), a = A/s and
    s*W = wn/wq (the s cancel), and D and the D/A_j read off their ratios
    to a base (1 over Q, else A_0) by `ratio` and `lcm`."""
    parts = []
    for j in range(system.n):
        (A, B, _, wn, wq), (A1, B1, _, wn1, wq1) = system.pair(j).form, system.pair(j + 1).form
        num, den = cleared(wn * wn1, wq * wq1 * (A * B1 - A1 * B))
        parts.append((num if sign(num) > 0 else -num, den))
    areas = tuple(ratio(*a) for a in parts)
    bn, bd = (1, 1) if type(areas[0]) is Fraction else parts[0]
    ratios = [ratio(n * bd, q * bn) for n, q in parts]  # A_j over the base
    if not all(type(r) is Fraction for r in ratios):
        return QuasiData(areas, False, None, None)
    k = lcm(*(r.numerator for r in ratios))
    return QuasiData(areas, True, ratio(k * bn, bd),
                     tuple(k // r.numerator * r.denominator for r in ratios))


# ---------------------------------------------------------------------------
# necklace rings, annulus membership and the boundedness certificate


@dataclass(frozen=True)
class NecklaceSpec:
    """Strip j's ring at exponent m: the copies P + m*shift and Q + m*shift,
    Q being P turned 180 degrees about the strip's centre vertex, stored as
    rigid motions of P together with the strip's frame.  A point's axis
    coordinate is shift.p; the ring spans the axis range [lo, hi] + m*dd,
    dd = shift.shift.  `base` does not depend on m: `necklace` builds it once
    per strip, and `at` carries it to another exponent.  Membership reads
    `forms`, `base` resolved at m when the ring is made, and `mirror`, with
    `least_sign`."""

    m: int
    pair: PinwheelPair             # strip j = pair.index; its centre vertex is pair.w_index
    polygon: NicePolygon           # P
    # (lo, hi, dd, e): the axis range of P and Q together and shift.shift,
    # each over e = sq^2*den (ints, or QuadInts)
    axis: Tuple
    # integer forms (A, B, C, D) of P's edges, of Q's, of the trapped
    # extent's two ends, and of each annulus window's two ends
    base: Tuple = field(repr=False, compare=False)
    # ((SX, SY, sq), (u, v)): the shift on its lattice, and u/v = 1/(A*SY - SX*B) on `pair.form`
    frame: Tuple = field(repr=False, compare=False)
    # `base` at m, and P's and Q's edges at -m (`_resolved`)
    forms: Tuple = field(init=False, repr=False, compare=False)
    mirror: Tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "forms", _resolved(self.base, self.m))
        object.__setattr__(self, "mirror", _resolved(self.base[:2], -self.m))

    def at(self, m: int) -> "NecklaceSpec":
        """The same strip's ring at exponent m: its fields shared, `base` resolved at m."""
        ring = object.__new__(NecklaceSpec)
        ring.__dict__.update(vars(self), m=m)
        ring.__post_init__()
        return ring

    def carry(self, here, kind: str):
        """P's point `here`, a lattice triple with the polygon's den dividing
        L, moved onto the copy P + m*shift or Q + m*shift: a triple over L*sq."""
        X, Y, L = here
        _, _, sq = self.frame[0]
        if kind == "Q":  # 2*center - p, the centre (WX, WY)/den
            WX, WY = self.polygon.lattice[self.pair.w_index]
            k = 2 * (L // self.polygon.den)
            X, Y = WX * k - X, WY * k - Y
        return moved((X * sq, Y * sq, L * sq), self.frame[0], self.m)

    def samples(self, kind: str, count: int, seed: int) -> list:
        """The copy's region's `sample_points(count, seed)` as triples:
        `barycentric_triples` over P's vertices carried onto the copy, each
        asserted interior to it."""
        den = self.polygon.den
        cycle = [self.carry((X, Y, den), kind) for X, Y in self.polygon.lattice]
        out = list(barycentric_triples(cycle, count, seed))
        assert all(map(self.in_p if kind == "P" else self.in_q, out))
        return out

    def in_p(self, p) -> bool:
        """The point with lattice triple p is interior to P + m*shift."""
        return least_sign(self.forms[0], p) > 0

    def in_q(self, p) -> bool:
        """The point with lattice triple p is interior to Q + m*shift."""
        return least_sign(self.forms[1], p) > 0

    def contains(self, p) -> bool:
        """The point with lattice triple p is interior to either copy."""
        return self.in_p(p) or self.in_q(p)

    def window_ends(self):
        """The axis windows hi < s < lo + m*dd and hi - m*dd < s < lo, strictly
        between the base ring and the +-m rings, as (num, den) pairs over e."""
        lo, hi, dd, e = self.axis
        return ((hi, e), (lo + self.m * dd, e)), ((hi - self.m * dd, e), (lo, e))

    def in_annulus(self, p) -> bool:
        """Conservative membership of the lattice triple p: inside the strip and
        strictly within one of the windows (a subset of the pictorial 'between')."""
        return self.pair.location(p) == 1 and any(
            least_sign(window, p) > 0 for window in self.forms[3:])

    def frame_triple(self, s, off):
        """The point with axis coordinate s and strip offset off in widths (0
        on the edge line, 1 on the far one), (num, den) pairs with den > 0, as a
        triple over a multiple of den: where A*x + B*y = C + off*wn/wq (the
        strip's form (A, B, C, wn, wq)) meets SX*x + SY*y = sq*s, by Cramer's rule."""
        ((SX, SY, sq), (u, v)), (A, B, C, wn, wq) = self.frame, self.pair.form
        (sn, sd), (on, od) = s, off
        c, t, g = (C * wq * od + wn * on) * sd, sq * sn * wq * od, self.polygon.den * u
        return (c * SY - B * t) * g, (A * t - SX * c) * g, v * sd * od * wq * self.polygon.den


def _shift(system: PinwheelSystem, j: int) -> tuple:
    """The shift's triple (SX, SY, sq) in lowest terms: edge j's lattice
    direction (DX, DY) times W/(a*dx + b*dy), read off strip j+1's form
    (A, B, C, wn, wq) as wn/(wq*(A*DX + B*DY)) (the scales s and den cancel)."""
    pair, lattice = system.pair(j), system.polygon.lattice
    DX, DY = (v - u for u, v in zip(lattice[pair.edge_index], lattice[pair.v_index]))
    A, B, _, wn, wq = system.pair(j + 1).form
    t, q = cleared(wn, wq * (A * DX + B * DY))
    sq, SX, SY = primitive(q, DX * t, DY * t)
    return SX, SY, sq


def necklace_shift(system: PinwheelSystem, j: int) -> Vec:
    """The vector parallel to edge j that spans strip j+1, oriented so the
    strip-(j+1) offset increases by one width."""
    return vec_of(_shift(system, j))


def _resolved(groups, m: int) -> tuple:
    """Each group of integer forms (A, B, C, D) at exponent m: the forms
    (A, B, C + m*D) of A*X + B*Y - (C + m*D)*L, as `least_sign` reads them."""
    return tuple(tuple((A, B, C + m * D) for A, B, C, D in forms) for forms in groups)


def necklace(system: PinwheelSystem, j: int, m: int) -> NecklaceSpec:
    """Strip j's ring at exponent m, its frame read once off P's lattice and
    the shift's triple (SX, SY, sq): a vertex's axis value is SX*VX + SY*VY
    over sq*den.  An edge a*x + b*y > c of P has D = a*sx + b*sy, and its
    turned copy on Q is -a*x - b*y > c - 2(a*cx + b*cy) with -D, (cx, cy) the
    centre vertex; the extent and window ends are axis bounds over sq^2*den."""
    pair, polygon = system.pair(j), system.polygon
    SX, SY, sq = shift = _shift(system, j)
    den, (WX, WY) = polygon.den, polygon.lattice[pair.w_index]
    vals = [SX * VX + SY * VY for VX, VY in polygon.lattice]
    vals += [2 * (SX * WX + SY * WY) - x for x in vals]  # Q's: P's reflected in the centre
    lo, hi = min(vals), max(vals)
    p_forms = tuple((A * sq, B * sq, C * sq, A * SX + B * SY)
                    for A, B, C in (e.ints for e in polygon.edges))
    q_forms = tuple((-a * den, -b * den, c * den - 2 * (a * WX + b * WY), -D * den)
                    for a, b, c, D in p_forms)
    ax, ay, rate = SX * sq * den, SY * sq * den, (SX * SX + SY * SY) * den
    # lo - m*dd <= shift.p <= hi + m*dd
    extent = ((ax, ay, lo * sq, -rate), (-ax, -ay, -hi * sq, -rate))
    # hi < shift.p < lo + m*dd, and hi - m*dd < shift.p < lo
    windows = (((ax, ay, hi * sq, 0), (-ax, -ay, -lo * sq, -rate)),
               ((ax, ay, hi * sq, -rate), (-ax, -ay, -lo * sq, 0)))
    frame = (shift, cleared(1, pair.form[0] * SY - SX * pair.form[1]))
    return NecklaceSpec(m, pair, polygon, (lo * sq, hi * sq, rate, sq * sq * den),
                        (p_forms, q_forms, extent) + windows, frame)


def annulus_windows(system: PinwheelSystem, j: int, m_exponent: int):
    """The two axis-coordinate windows of strip j strictly between the base
    ring and the +-m_exponent rings, as scalars."""
    return tuple((ratio(*lo), ratio(*hi))
                 for lo, hi in necklace(system, j, m_exponent).window_ends())


def in_trapped_extent(ring: NecklaceSpec, p) -> bool:
    """Loose membership: inside the ring's strip, within the closed axis
    extent of the rings at +-ring.m, and not interior to either of them.  The
    image of any between-point lands here; points here can never escape.
    p is a lattice triple."""
    if ring.pair.location(p) != 1 or least_sign(ring.forms[2], p) < 0:
        return False
    return not any(least_sign(f, p) > 0 for f in ring.forms[:2] + ring.mirror)


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
    here = system.polygon.homogeneous(p)
    if not any(ring.in_annulus(here) for ring in rings):
        raise AnnulusNotFoundError(
            f"point {p} is not inside any strip's m={m} annulus")
    corners = (ring.frame_triple((s, e), off) for ring in rings
               for lo, hi, dd, e in [ring.axis] for s in (lo - ring.m * dd, hi + ring.m * dd)
               for off in ((0, 1), (1, 1)))
    num, den = 0, 1  # the largest (|X| + |Y|) / L over the corners, L > 0
    for r, L in ((max(X, -X) + max(Y, -Y), L) for X, Y, L in corners):
        if r * den > num * L:  # cross-multiplied
            num, den = r, L
    return True, ratio(num, den)
