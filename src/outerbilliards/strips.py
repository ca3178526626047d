"""Pinwheel pairs (each with its spoke), strip maps and their compositions.

For every polygon edge e there is a strip bounded by the edge's line L and the
parallel line L' placed so the vertex farthest from L sits exactly halfway,
together with the vector V = 2(w - v) from the edge's head vertex v to twice
the far vertex w.  The strips are indexed by the cyclic order of edge slopes;
index 0 goes to the edge whose direction angle in [0, pi) is smallest, so runs
are reproducible even though only the cyclic order is geometrically forced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Tuple

from .errors import OnStripBoundaryError
from .geometry import Line, moved, point_of, slope_angle_cmp
from .polygon import NicePolygon
from .scalars import floor_div, primitive, ratio, sign


@dataclass(frozen=True)
class PinwheelPair:
    """Strip, translation vector and spoke attached to one polygon edge.

    The strip lives only in `form`: its edge line L is the view `line`, the
    form's (a, b, c) over s = |a| (|b| when a = 0), and its width wn/(wq*s)
    the view `width`, both scalars for output.  The spoke is the oriented
    segment v -> w; it is special when it shares a vertex with both
    neighbouring spokes."""

    index: int              # position in the slope-cyclic order, 0-based
    edge_index: int         # index into polygon.edges: edge from vertex i to i+1
    form: Tuple             # (a, b, c, wn, wq): L's primitive form, s*width = wn/wq > 0, wq | den
    v_index: int            # head vertex of the edge
    w_index: int            # vertex farthest from L, on the centerline
    V: Tuple                # 2*(w - v) as (VX, VY, den) on P's lattice; spans the strip
    special: bool           # spoke v -> w shares a vertex with both neighbours

    @property
    def line(self) -> Line:  # L, containing the edge; polygon on its positive side
        A, B, _ = form = self.form[:3]
        return Line(form, abs(A if A != 0 else B))

    width = property(lambda self: ratio(self.form[3], self.form[4] * self.line.s))

    def offsets(self, p) -> tuple:
        """(t, w) at the lattice triple p = (X, Y, L): L's offset
        t = a*X + b*Y - c*L and the width on its scale, w = wn*(L // wq) > 0
        (ints, or QuadInts).  The open strip is 0 < t < w."""
        X, Y, L = p
        a, b, c, wn, wq = self.form
        return a * X + b * Y - c * L, wn * (L // wq)

    def location(self, p) -> int:
        """-1 outside, 0 on the boundary, +1 strictly inside the strip, for
        the point with lattice triple p."""
        t, w = self.offsets(p)
        # w > 0, so the signs of t and t - w are (-,-), (0,-), (+,-), (+,0) or (+,+)
        return -sign(t) * sign(t - w)


class PinwheelSystem:
    """All pinwheel pairs of a nice polygon, slope ordered; pair j carries
    spoke j."""

    __slots__ = ("polygon", "pairs")

    def __init__(self, polygon: NicePolygon, pairs: Tuple[PinwheelPair, ...]):
        self.polygon = polygon
        self.pairs = pairs

    @property
    def n(self) -> int:
        return len(self.pairs)

    def pair(self, j: int) -> PinwheelPair:
        return self.pairs[j % self.n]

    def max_width(self) -> tuple:
        """The largest strip width wn/(wq*s) as a (num, den) pair in lowest terms."""
        dens = [p.form[4] * p.line.s for p in self.pairs]
        den = math.lcm(*dens)
        den, num = primitive(den, max(p.form[3] * (den // q) for p, q in zip(self.pairs, dens)))
        return num, den


def build_pinwheel_system(polygon: NicePolygon) -> PinwheelSystem:
    """Construct the n pinwheel pairs and spokes, slope-cyclically indexed."""
    n = polygon.n
    entries = []
    for i, edge in enumerate(polygon.edges):
        # the edge line's primitive form, polygon on its positive side
        A, B, C = primitive(*edge.ints)
        # the vertices' offsets from it over s*den; the farthest is unique: no
        # two sides of a nice polygon are parallel
        offsets = [A * X + B * Y - C * polygon.den for X, Y in polygon.lattice]
        far = max(range(n), key=lambda i: offsets[i])
        wq, wn = primitive(polygon.den, 2 * offsets[far])  # s*width = wn/wq
        entries.append(((-B, A), i, far, (A, B, C, wn, wq)))  # (-B, A): the edge's direction

    entries.sort(key=cmp_to_key(lambda x, y: slope_angle_cmp(x[0], y[0])))

    ends = [{(i + 1) % n, far} for _, i, far, _ in entries]
    pairs = []
    for j, (_, i, far, form) in enumerate(entries):
        (vx, vy), (wx, wy) = polygon.lattice[(i + 1) % n], polygon.lattice[far]
        pairs.append(PinwheelPair(
            index=j,
            edge_index=i,
            form=form,
            v_index=(i + 1) % n,
            w_index=far,
            V=(2 * (wx - vx), 2 * (wy - vy), polygon.den),
            special=bool(ends[j - 1] & ends[j] & ends[(j + 1) % n]),
        ))

    system = PinwheelSystem(polygon, tuple(pairs))
    _assert_chain(system)
    return system


def _assert_chain(system: PinwheelSystem):
    """Consecutive spokes must share a vertex (pinwheel chain structure)."""
    n = system.n
    for j in range(n):
        s, t = system.pair(j), system.pair(j + 1)
        if not ({s.v_index, s.w_index} & {t.v_index, t.w_index}):
            raise AssertionError(f"spokes {j} and {(j + 1) % n} share no vertex")


def strip_map(pair: PinwheelPair, p):
    """One application of the strip map to the lattice triple p = (X, Y, L)
    (`NicePolygon.homogeneous`): identity strictly inside the slab (p itself
    is returned), otherwise the translate by +-V that is strictly closer to
    the slab (`moved` by V, whose den divides L).  V moves the offset by
    exactly one width, so that translate is +V below the slab and -V above
    it; the result may still be outside.  Undefined on the slab boundary
    (the error carries the Point)."""
    t, w = pair.offsets(p)
    near, far = sign(t), sign(t - w)
    if near == 0 or far == 0:
        raise OnStripBoundaryError(point_of(p), stage=pair.index)
    if near > 0 > far:
        return p
    return moved(p, pair.V, -near)


def strip_jump(pair: PinwheelPair, p):
    """Where iterating the strip map lands the lattice triple p = (X, Y, L)
    strictly inside the slab, as a triple over the same L, plus the number
    of translations taken.

    O(1) on the strip's (t, w) at p (`PinwheelPair.offsets`): the step count
    is k = -floor(t / w).  Raises OnStripBoundaryError when t is an exact
    multiple of w, where some iterate would sit on the slab boundary.
    """
    t, w = pair.offsets(p)
    k = -floor_div(t, w)
    if k == 0:  # 0 <= t < w
        if t == 0:
            raise OnStripBoundaryError(point_of(p), stage=pair.index)
        return p, 0
    here = moved(p, pair.V, k)
    if t + k * w == 0:  # the landing offset, in [0, w), is 0
        raise OnStripBoundaryError(point_of(here), stage=pair.index)
    return here, abs(k)
