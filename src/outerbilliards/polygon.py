"""Nice polygons: validated convex n-gons with no parallel sides.

Vertices are stored clockwise under the y-up frame (negative signed area).
Input in either orientation is accepted and reoriented with a flag.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence, Tuple

from .errors import (DegenerateVerticesError, NotConvexError, ParallelEdgesError, ParseError,
                     PolygonError)
from .geometry import (Point, cross, direction_ccw_cmp, edge_lines, homogeneous, lattice_of,
                       least_sign, signed_area2)
from .scalars import (SCALAR_DIGITS, bounded_int, int_parts, is_radicand, radicand,
                      scalar_from_json, scalar_to_json, sign)


class NicePolygon:
    """A strictly convex polygon, clockwise vertices, no two sides parallel.

    quad_d is the d of the polygon's field Q(sqrt d) (None: Q).  When not
    given it is read off the vertices; a vertex over another field is a
    ValueError.

    `edges[i]` is the line of edge i, from vertex i to vertex i+1, oriented so
    that the polygon lies on its positive side: `edge_lines` of the lattice,
    positive right of the edge, inside a clockwise polygon; `_validate` reads the pairs too.

    The polygon's lattice, fixed at construction: `den` is the least common
    denominator D < 10**SCALAR_DIGITS of the vertex coordinates, and `lattice[i]` is vertex i's
    numerator pair over D (ints, or the `QuadInt`s of `as_integer_ratio()`).
    `vertex_offsets[v]` is vertex v's `edge_offsets` over D (2n ints over Q(sqrt d)), which
    the ψ walk reflects by.
    `_lattice` is `lattice_of(vertices)` where the caller has read it already.
    """

    __slots__ = ("vertices", "n", "reoriented", "edges", "quad_d", "den", "lattice",
                 "_forms", "vertex_offsets")

    def __init__(self, vertices: Sequence[Point], reoriented: bool = False,
                 quad_d: Optional[int] = None, _lattice: Optional[tuple] = None):
        verts = tuple(vertices)
        fields = {radicand(x) for v in verts for x in (v.x, v.y)} | {quad_d}
        fields.discard(None)
        if len(fields) > 1:
            raise ValueError("cannot mix " + " with ".join(f"sqrt({d})" for d in sorted(fields)))
        quad_d = fields.pop() if fields else None
        lattice, den = _lattice or lattice_of(verts)
        _validate(lattice)
        if den >= 10 ** SCALAR_DIGITS:
            raise PolygonError(f"the lattice's denominator is 10**{SCALAR_DIGITS} or more")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "n", len(verts))
        object.__setattr__(self, "reoriented", reoriented)
        object.__setattr__(self, "edges", edge_lines(lattice, den))
        object.__setattr__(self, "quad_d", quad_d)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "_forms", tuple(e.ints for e in self.edges))
        object.__setattr__(self, "vertex_offsets",
                           tuple(self.edge_offsets(v + (den,)) for v in lattice))

    def __setattr__(self, name, value):
        raise AttributeError("NicePolygon is immutable")

    @staticmethod
    def from_points(points: Sequence[Point], quad_d: Optional[int] = None) -> "NicePolygon":
        verts = tuple(points)
        pairs, den = lattice_of(verts)
        if signed_area2(pairs) > 0:
            return NicePolygon(verts[::-1], True, quad_d, (pairs[::-1], den))
        return NicePolygon(verts, False, quad_d, (pairs, den))

    def homogeneous(self, p: Point) -> Tuple:
        """p's lattice triple (X, Y, L) on the polygon's lattice (`den`
        divides L), so vertex i sits at `lattice[i]` times L // den over L."""
        return homogeneous(p, self.den)

    def edge_offsets(self, p) -> list:
        """The offsets a*X + b*Y - c*L of the lattice triple p = (X, Y, L)
        from the edges' integer forms, in edge order: n ints over Q; over
        Q(sqrt d) 2n ints, the offsets' rational parts, then their sqrt(d)
        parts (`int_parts`), so that one int update serves both fields."""
        X, Y, L = p
        ts = [a * X + b * Y - c * L for a, b, c in self._forms]
        return ts if self.quad_d is None else [x for xs in zip(*map(int_parts, ts)) for x in xs]

    def point_location(self, p: Point) -> int:
        """`least_sign` of p on the edges' forms: +1 inside, 0 on the
        boundary, -1 outside."""
        return least_sign(self._forms, self.homogeneous(p))

    def to_document(self) -> dict:
        field = "rational" if self.quad_d is None else {"quad": self.quad_d}
        return {
            "schema": "polygon/1",
            "field": field,
            "vertices": [[scalar_to_json(v.x), scalar_to_json(v.y)]
                         for v in self.vertices],
        }

    def __eq__(self, other):
        return isinstance(other, NicePolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"NicePolygon(n={self.n})"


def _validate(cycle):
    """Strictly convex, clockwise, no parallel sides, on lattice pairs: every
    corner turns strictly clockwise and the sides' direction wraps once
    around (a {n/k} star wraps k times)."""
    n = len(cycle)
    if n < 3:
        raise DegenerateVerticesError(f"need at least 3 vertices, got {n}",
                                      range(n))
    dirs = [(HX - X, HY - Y) for (X, Y), (HX, HY) in zip(cycle, cycle[1:] + cycle[:1])]
    wraps = 0
    for i in range(n):
        turn = sign(cross(dirs[i - 1], dirs[i]))
        if turn == 0:
            raise DegenerateVerticesError(
                f"collinear or repeated vertices at indices {(i - 1) % n}, {i}, {(i + 1) % n}",
                ((i - 1) % n, i, (i + 1) % n))
        if turn > 0:
            raise NotConvexError(f"reflex corner at vertex {i}", (i,))
        wraps += direction_ccw_cmp(dirs[i - 1], dirs[i]) < 0
    if wraps != 1:
        raise NotConvexError(f"the sides wind {wraps} times around", range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if cross(dirs[i], dirs[j]) == 0:
                raise ParallelEdgesError(
                    f"edges {i} and {j} are parallel", (i, j))


# ---------------------------------------------------------------------------
# document parsing


def parse_polygon(text: str) -> NicePolygon:
    """Parse the polygon file format; validation errors carry indices."""
    try:
        doc = json.loads(text, parse_int=bounded_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    return polygon_from_document(doc)


def polygon_from_document(doc) -> NicePolygon:
    if not isinstance(doc, dict):
        raise ParseError("polygon document must be an object")
    field = doc.get("field", "rational")
    quad_d = field.get("quad") if isinstance(field, dict) else None
    if field != "rational" and not is_radicand(quad_d):
        raise ParseError(f"unsupported field spec {field!r}: d square-free, 2 <= d < 2**64")
    raw = doc.get("vertices")
    if not isinstance(raw, list):
        raise ParseError("missing or malformed 'vertices' list")
    points = []
    for i, entry in enumerate(raw):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ParseError(f"vertex {i} must be a [x, y] pair")
        try:
            x = scalar_from_json(entry[0], quad_d=quad_d)
            y = scalar_from_json(entry[1], quad_d=quad_d)
        except ValueError as exc:
            raise ParseError(f"vertex {i}: {exc}") from exc
        points.append(Point(x, y))
    return NicePolygon.from_points(points, quad_d=quad_d)


def polygon_to_text(polygon: NicePolygon) -> str:
    return json.dumps(polygon.to_document(), sort_keys=True, indent=2) + "\n"
