"""The outer billiards map, its square, and the tangent-pair partitions.

The square map is a piecewise translation: away from a measure-zero wall set,
p moves by 2*(w - v) where v and w are the tangent vertices of the two
reflection steps.  An outside point sees one contiguous chain of edges, and
its tangent vertex, the end of that chain on the map's side, is searched
from the last one on the signs of its int edge-line offsets.  Both
reflections run on the polygon's integer lattice: the entry points take a
Point to its lattice triple once (`NicePolygon.homogeneous`) and divide out
only the result.  The ψ walk yields label runs: a run's first state, its
label, how many further states the same translation reaches, and that
translation.
The regions of constancy are convex tiles, computed here exactly as cone(v)
intersected with the point reflection of cone(w) through v; each tile is
open and carries its translation vector as a lattice triple.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import add, sub
from typing import Dict, Tuple

from .errors import InsidePolygonError, OnPrimaryWallError, UndefinedOnWallError
from .geometry import (
    ConvexRegion,
    HalfPlane,
    Line,
    Point,
    Sense,
    point_of,
    region,
)
from .polygon import NicePolygon
from .scalars import floor_div, quad_floor_div, quad_sign


class Chirality(enum.Enum):
    """Which side of the ray p -> v the polygon must lie on."""

    RIGHT = -1   # forward outer billiards
    LEFT = 1     # inverse map


def tangent_vertex(polygon: NicePolygon, ts, chirality: Chirality = Chirality.RIGHT,
                   start: int = 0) -> int:
    """The vertex v with every other vertex strictly on the chirality side of
    the ray p -> v, read off p's `edge_offsets` ts: the first i whose edges
    i-1 and i have the signs (before, after) = (chirality, -chirality), p
    seeing edge i-1 and not edge i for RIGHT.  The search starts at `start`
    and steps forward while edge i is before, backward while edge i-1 is
    after, one sign read a step.  A 0 or n steps raise, carrying ts (the
    entry points re-raise with p): OnPrimaryWallError where p sees an edge,
    and so is outside on an edge's line, else InsidePolygonError.

    A scan of every i finds the same vertex: the search returns only at a
    pair and never turns.  A pair exists only outside, at the after end i*
    of the one block of seen edges, and a 0 only next to that block; so the
    search walks forward along the block, or backward over after signs, to
    i*: the only 0 it could meet sits at the block's far end."""
    n, d, b = polygon.n, polygon.quad_d, chirality._value_
    i, j = start, (start - 1) % n
    s = (ts[i] if d is None else quad_sign(ts[i], ts[i + n], d)) * b
    r = 1 if s > 0 else (ts[j] if d is None else quad_sign(ts[j], ts[j + n], d)) * b
    for _ in range(n):  # r, s: edges i-1 and i, offset (or sign) times b; > 0: before
        if s > 0:
            i = (i + 1) % n
            r, s = s, (ts[i] if d is None else quad_sign(ts[i], ts[i + n], d)) * b
        elif r < 0:
            i, j = j, (j - 1) % n
            r, s = (ts[j] if d is None else quad_sign(ts[j], ts[j + n], d)) * b, r
        else:
            break
    if r > 0 > s:
        return i
    seen = min(ts) < 0 if d is None else any(quad_sign(ts[k], ts[k + n], d) < 0 for k in range(n))
    raise (OnPrimaryWallError if seen else InsidePolygonError)(ts)


def square_map(polygon: NicePolygon, p: Point) -> Tuple[Point, Tuple[int, int]]:
    """Two reflections: returns (p + 2*(w - v), (v_index, w_index))."""
    q, label, _, _ = next(psi_walk(polygon, polygon.homogeneous(p), Chirality.RIGHT))
    return point_of(q), label


def inverse_square_map(polygon: NicePolygon, p: Point) -> Tuple[Point, Tuple[int, int]]:
    """The inverse square map, via the mirrored tangency rule.  The label is
    the backward-partition label of p."""
    q, label, _, _ = next(psi_walk(polygon, polygon.homogeneous(p), Chirality.LEFT))
    return point_of(q), label


def psi_walk(polygon, here, chirality=Chirality.RIGHT):
    """The ψ walk (ψ⁻¹ for LEFT) of the lattice triple `here` (X, Y, L), by
    label runs, without end: each item ((X, Y, L), (v, w), k, (dx, dy)) is a
    run's first state, its label, the count k of the further states, each
    reached from the last by the step (dx, dy) alone, and that step, all over
    the same L.  Every run after the first is a maximal block of equal labels.
    Through vertex v, at its `lattice` numerators times s = L // den,
    X -> 2*s*VX - X and each edge offset t -> 2*s*E - t, E its
    `vertex_offsets` row doubled onto L; only `here`'s offsets are evaluated,
    as 2n ints over Q(sqrt d) (`edge_offsets`), so one int update serves both
    fields.  A step searches v (and w) from the last one.  Errors carry a
    step's start.

    A step with label (v, w) adds D = rw - rv to every offset (rv, rw the
    rows of v and w), and the next step keeps the label exactly while four
    offsets bounding its tile keep their signs.  Two of them only move away
    from 0 along D, so after a step through `tangent_vertex` the walk checks
    the other two (`_label_run`).  Where both hold, the run's k is one floor
    per exit bound, and the offsets move by k*D at once when the walk
    resumes; the next run starts with a step through `tangent_vertex`, so a
    wall at a run's end is raised by an ordinary step, when that run is
    asked for."""
    X, Y, L = here
    s2 = 2 * (L // polygon.den)
    n, d = polygon.n, polygon.quad_d
    first = n - 1 if chirality is Chirality.RIGHT else 0  # checked: edges v-1, w-1 (or v, w)
    rows = [None] * n
    runs = {}  # label -> `_label_run`, built the first time a run takes it
    ts, vi, wi = polygon.edge_offsets(here), 0, 0  # the offsets; where the searches start
    while True:
        stage = 1
        try:
            vi = tangent_vertex(polygon, ts, chirality, vi)
            rows[vi] = rows[vi] or [s2 * e for e in polygon.vertex_offsets[vi]]
            ts = list(map(sub, rows[vi], ts))
            stage = 2
            wi = tangent_vertex(polygon, ts, chirality, wi)
        except OnPrimaryWallError:
            raise UndefinedOnWallError(point_of((X, Y, L)), stage=stage) from None
        except InsidePolygonError:
            raise InsidePolygonError(point_of((X, Y, L))) from None
        rows[wi] = rows[wi] or [s2 * e for e in polygon.vertex_offsets[wi]]
        ts = list(map(sub, rows[wi], ts))
        (vx, vy), (wx, wy) = polygon.lattice[vi], polygon.lattice[wi]
        dx, dy = s2 * (wx - vx), s2 * (wy - vy)
        X, Y = X + dx, Y + dy
        label, rv, k = (vi, wi), rows[vi], 0
        a, p = (vi + first) % n, (wi + first) % n
        if (ts[a] < 0 and rv[p] < ts[p] if d is None else quad_sign(ts[a], ts[a + n], d) < 0
                < quad_sign(ts[p] - rv[p], ts[p + n] - rv[p + n], d)):
            D, exits = runs[label] = runs.get(label) or _label_run(rv, rows[wi], a, p, n)
            k = min(-(floor_div(ts[e] - c, D[e]) if d is None else quad_floor_div(
                ts[e] - c, ts[e + n] - cs, D[e], D[e + n], d)) for e, c, cs in exits)
        yield (X, Y, L), label, k, (dx, dy)
        if k:
            X, Y = X + k * dx, Y + k * dy
            ts = list(map(add, ts, D if k == 1 else [k * x for x in D]))


def _label_run(rv, rw, a, p, n):
    """(D, exits) of label (v, w) in a ψ walk over an n-gon with rows rv and
    rw (2s*E, `vertex_offsets` doubled onto L; 2n ints over Q(sqrt d)):
    D = rw - rv, what a step adds to every offset t, and the exit bounds
    (e, c, c') of the two the walk checks, t_a < 0 and rv_p < t_p, that D moves
    toward 0: e fails after -floor((t_e - c) / D_e) steps, c + c'*sqrt(d) over Q(sqrt d).

    For RIGHT, a = v-1 and p = w-1: the next step's tangent vertex is v
    while t_{v-1} < 0 < t_v, and the next is w while, at rv - t,
    rv_{w-1} < t_{w-1} and t_w < rv_w.  E[x][i] >= 0, zero exactly at the two
    ends of edge i, and v ends edge v-1 and starts edge v (w likewise), so
    t_{v-1}, t_v and rv_w - t_w move by 2s*E[w][v-1], 2s*E[w][v] and
    2s*E[v][w] >= 0, and t_{w-1} - rv_{w-1} by -2s*E[v][w-1] <= 0.  The
    bounds at v and w held when the walk took the label and only grow.
    Every label has an exit: E[w][v-1] = 0 only for w = v-1, and then
    v = w+1 does not end edge w-1, so E[v][w-1] > 0.  LEFT (a = v, p = w)
    mirrors all of this."""
    D = list(map(sub, rw, rv))
    h = len(D) - n  # entry e's sqrt(d) part sits at e + h: h = n over Q(sqrt d), 0 over Q
    return D, [(e, c, cs) for e, c, cs in ((a, 0, 0), (p, rv[p], rv[p + h])) if D[e] or D[e + h]]


def primary_cone(polygon: NicePolygon, v_index: int,
                 chirality: Chirality = Chirality.RIGHT) -> ConvexRegion:
    """Open cone of points whose tangent vertex is v, bounded by the lines of
    the two edges at v: edge v-1's turned (the polygon on its negative side)
    and edge v's (every other vertex line is redundant)."""
    sense = Sense.GT if chirality is Chirality.RIGHT else Sense.LT
    before, after = polygon.edges[v_index - 1], polygon.edges[v_index]
    A, B, C = before.ints
    return region((HalfPlane(Line((-A, -B, -C), before.s), sense),
                   HalfPlane(after, sense)))


@dataclass(frozen=True)
class Tile:
    """One open tile of a tangent-pair partition."""

    v_index: int
    w_index: int
    translation: tuple          # (TX, TY, den): 2*(w - v) on P's lattice, the map's move
    region: ConvexRegion

    @property
    def label(self) -> Tuple[int, int]:
        return (self.v_index, self.w_index)

    @property
    def unbounded(self) -> bool:
        return not self.region.is_bounded()


class Partition:
    """All nonempty tiles of the square map (or its inverse)."""

    __slots__ = ("polygon", "chirality", "tiles", "by_label")

    def __init__(self, polygon: NicePolygon, chirality: Chirality,
                 tiles: Tuple[Tile, ...]):
        self.polygon = polygon
        self.chirality = chirality
        self.tiles = tiles
        self.by_label: Dict[Tuple[int, int], Tile] = {t.label: t for t in tiles}

    def walk(self, here):
        """The ψ walk (ψ⁻¹ for LEFT) from the lattice triple `here` state by
        state, `here` first, each state with the tile of its step's label,
        asserted to hold it (or the partition is inconsistent): a run of
        `psi_walk` labels the state before it and its own first k states."""
        for (X, Y, L), label, k, (dx, dy) in psi_walk(self.polygon, here, self.chirality):
            tile = self.by_label[label]
            for j in range(k + 1):
                if tile.region.contains(here) <= 0:
                    raise AssertionError(
                        f"point {point_of(here)} labels tile {label} but sits on or off it")
                yield here, tile
                here = X + j * dx, Y + j * dy, L

    def classify(self, p) -> Tile:
        """Tile containing the point with lattice triple p
        (`NicePolygon.homogeneous`): the first tile of its `walk`."""
        return next(self.walk(p))[1]


def build_partition(polygon: NicePolygon,
                    chirality: Chirality = Chirality.RIGHT) -> Partition:
    """Construct every nonempty tile cone(v) * (2v - cone(w)) exactly."""
    n, den = polygon.n, polygon.den
    cones = [primary_cone(polygon, i, chirality) for i in range(n)]
    tiles = []
    for vi, (vx, vy) in enumerate(polygon.lattice):
        for wi, (wx, wy) in enumerate(polygon.lattice):
            if wi == vi:
                continue
            r = cones[vi].intersect(cones[wi].point_reflect((vx, vy, den)))
            if r.is_empty:
                continue
            tiles.append(Tile(
                v_index=vi,
                w_index=wi,
                translation=(2 * (wx - vx), 2 * (wy - vy), den),
                region=r,
            ))
    return Partition(polygon, chirality, tuple(tiles))
