"""The outer billiards map, its square, and the tangent-pair partitions.

The square map is a piecewise translation: away from a measure-zero wall set,
p moves by 2*(w - v) where v and w are the tangent vertices of the two
reflection steps.  An outside point sees one contiguous chain of edges, and
its tangent vertex, the end of that chain on the map's side, is read off the
signs of its n edge-line offsets.  Both reflections run on the polygon's
integer lattice (`NicePolygon.homogeneous`), dividing out only the result.
The regions of constancy are convex tiles, computed here exactly as cone(v)
intersected with the point reflection of cone(w) through v; each tile is
open and carries its translation vector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from .errors import InsidePolygonError, OnPrimaryWallError, UndefinedOnWallError
from .geometry import (
    ConvexRegion,
    HalfPlane,
    Line,
    Location,
    Point,
    Sense,
    Vec,
    point_of,
    region,
)
from .polygon import NicePolygon
from .scalars import ratio


class Chirality(enum.Enum):
    """Which side of the ray p -> v the polygon must lie on."""

    RIGHT = -1   # forward outer billiards
    LEFT = 1     # inverse map


def tangent_vertex(polygon: NicePolygon, p,
                   chirality: Chirality = Chirality.RIGHT) -> int:
    """The vertex v with every other vertex strictly on the chirality side of
    the ray p -> v: for RIGHT the vertex i with p seeing edge i-1 (negative
    offset) and not edge i (positive offset), the reverse for LEFT.  p is a
    Point or its `NicePolygon.homogeneous` triple.
    OnPrimaryWallError when p is on the line of the edge at that end;
    InsidePolygonError when p is not strictly outside."""
    signs = polygon.edge_signs(p)
    if min(signs) >= 0:
        raise InsidePolygonError(p)
    want = (chirality.value, -chirality.value)
    for i in range(polygon.n):
        if (signs[i - 1], signs[i]) == want:
            return i
    raise OnPrimaryWallError(p)


def outer_step(polygon: NicePolygon, p: Point,
               chirality: Chirality = Chirality.RIGHT) -> Point:
    """One outer billiards reflection: 2v - p through the tangent vertex."""
    v = polygon.vertices[tangent_vertex(polygon, p, chirality)]
    return p.reflect_through(v)


def square_map(polygon: NicePolygon, p: Point) -> Tuple[Point, Tuple[int, int]]:
    """Two reflections: returns (p + 2*(w - v), (v_index, w_index))."""
    return _double_step(polygon, p, Chirality.RIGHT)


def inverse_square_map(polygon: NicePolygon, p: Point) -> Tuple[Point, Tuple[int, int]]:
    """The inverse square map, via the mirrored tangency rule.  The label is
    the backward-partition label of p."""
    return _double_step(polygon, p, Chirality.LEFT)


def _double_step(polygon, p, chirality):
    """Both reflections on the polygon's lattice: p is (X, Y) over L, a
    vertex is its `lattice` numerators times s = L // den over L, so
    reflecting through it is X -> 2*s*VX - X.  p is a Point, whose image
    is divided out to a Point, or its `homogeneous` triple, whose image is
    the triple over the same L; errors carry the Point."""
    X, Y, L = here = p if type(p) is tuple else polygon.homogeneous(p)
    try:
        vi = tangent_vertex(polygon, here, chirality)
    except OnPrimaryWallError:
        raise UndefinedOnWallError(point_of(p), stage=1) from None
    except InsidePolygonError:
        raise InsidePolygonError(point_of(p)) from None
    s2 = 2 * (L // polygon.den)
    vx, vy = polygon.lattice[vi]
    X, Y = s2 * vx - X, s2 * vy - Y
    try:
        wi = tangent_vertex(polygon, (X, Y, L), chirality)
    except OnPrimaryWallError:
        raise UndefinedOnWallError(point_of(p), stage=2) from None
    wx, wy = polygon.lattice[wi]
    X, Y = s2 * wx - X, s2 * wy - Y
    if type(p) is tuple:
        return (X, Y, L), (vi, wi)
    return Point(ratio(X, L), ratio(Y, L)), (vi, wi)


def primary_cone(polygon: NicePolygon, v_index: int,
                 chirality: Chirality = Chirality.RIGHT) -> ConvexRegion:
    """Open cone of points whose tangent vertex is v; its boundary rays are
    the outward extensions of the two edges incident to v, i.e. the lines
    from v to its neighbours (every other vertex line is redundant)."""
    v = polygon.vertices[v_index]
    sense = Sense.GT if chirality is Chirality.RIGHT else Sense.LT
    ds = (polygon.vertex(v_index - 1) - v, polygon.vertex(v_index + 1) - v)
    return region(HalfPlane(Line(d.y, -d.x, d.y * v.x - d.x * v.y), sense)
                  for d in ds)


@dataclass(frozen=True)
class Tile:
    """One open tile of a tangent-pair partition."""

    v_index: int
    w_index: int
    translation: Vec            # the square map moves interior points by this
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

    def classify(self, p) -> Tile:
        """Tile containing p, from the dynamic tangent computation; the label
        and the region agree or the partition is inconsistent.  p is a Point
        or its `NicePolygon.homogeneous` triple, tested as it is given."""
        _, label = _double_step(self.polygon, p, self.chirality)
        tile = self.by_label[label]
        loc = tile.region.contains(p)
        if loc is not Location.INTERIOR:
            raise AssertionError(
                f"point {p} labels tile {label} but sits on/off it ({loc})")
        return tile


def build_partition(polygon: NicePolygon,
                    chirality: Chirality = Chirality.RIGHT) -> Partition:
    """Construct every nonempty tile cone(v) * (2v - cone(w)) exactly."""
    n = polygon.n
    cones = [primary_cone(polygon, i, chirality) for i in range(n)]
    tiles = []
    for vi in range(n):
        v = polygon.vertices[vi]
        for wi in range(n):
            if wi == vi:
                continue
            r = cones[vi].intersect(cones[wi].point_reflect(v))
            if r.is_empty:
                continue
            w = polygon.vertices[wi]
            tiles.append(Tile(
                v_index=vi,
                w_index=wi,
                translation=(w - v) * 2,
                region=r,
            ))
    return Partition(polygon, chirality, tuple(tiles))
