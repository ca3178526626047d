"""Reference routes kept only as test oracles: each computes something the
package computes (or once computed) another way, on `Point`s and scalars."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional, Tuple

from outerbilliards.billiards import Chirality
from outerbilliards.dynamics import OrbitEvent, OrbitRecord, far_radius, section
from outerbilliards.errors import (
    BudgetExceededError,
    DegenerateVerticesError,
    InsidePolygonError,
    MapUndefinedError,
    NotConvexError,
    OnPrimaryWallError,
    OnStripBoundaryError,
    ParallelEdgesError,
    PolygonError,
    UndefinedOnWallError,
)
from outerbilliards.geometry import (ConvexRegion, HalfPlane, Line, Point, Sense, Vec,
                                     _one_dim_interval, homogeneous, integer_form, moved,
                                     point_of, region, signed_area2, vec_of)
from outerbilliards.quasirational import necklace, quasi_analyze
from outerbilliards.rng import Rng
from outerbilliards.strips import PinwheelPair, strip_map
from outerbilliards.scalars import QuadExt, Scalar, int_parts, primitive, quad_sign, ratio, sign


# ---------------------------------------------------------------------------
# scalar constructors: the package builds points, vectors and lines on its
# lattice; these build them from ints, Fractions and QuadExts


def as_scalar(x) -> Scalar:
    """x as a Fraction, or x itself where it is a QuadExt."""
    return x if isinstance(x, QuadExt) else Fraction(x)


def pt(x, y) -> Point:
    return Point(as_scalar(x), as_scalar(y))


def vec(x, y) -> Vec:
    return Vec(as_scalar(x), as_scalar(y))


# field arithmetic: the package's `Point`s and `Vec`s carry values only


def add(p, v):
    """p + v: the Point p moved by the Vec v, or the sum of two Vecs."""
    return type(p)(p.x + v.x, p.y + v.y)


def sub(p, q):
    """p - q: the Vec from q to p (both Points or both Vecs), or the Point p moved by -q."""
    return (Vec if type(p) is type(q) else Point)(p.x - q.x, p.y - q.y)


def scale(v: Vec, k) -> Vec:
    return Vec(v.x * k, v.y * k)


def cross(u: Vec, v: Vec):
    return u.x * v.y - u.y * v.x


def dot(u: Vec, v: Vec):
    return u.x * v.x + u.y * v.y


def line(a, b, c) -> Line:
    """The line a*x + b*y = c on scalars: `integer_form(a, b, c, 1)`, the
    last entry its scale, as `Line((A, B, C), s)`; (a, b) = (0, 0) or two
    radicands is a ValueError."""
    A, B, C, s = integer_form(a, b, c, 1)
    if (A == 0 and B == 0) or len({x.d for x in (A, B, C) if type(x) is not int}) > 1:
        raise ValueError("a line requires (a, b) != (0, 0) and one radicand")
    return Line((A, B, C), s)


def half_plane(a, b, c, sense: Sense) -> HalfPlane:
    return HalfPlane(line(a, b, c), sense)


def halved(pair: PinwheelPair) -> PinwheelPair:
    """The pair with its width halved: wq doubled, in lowest terms, as the
    halved-strip negative control builds it."""
    wq, wn = primitive(2 * pair.form[4], pair.form[3])
    return dataclasses.replace(pair, form=pair.form[:3] + (wn, wq))


def normalized(h: HalfPlane) -> tuple:
    """h rewritten as (a, b, c, strict), meaning a*x + b*y >= c (or > c), on
    the line's scalar coefficients."""
    a, b, c = h.line.a, h.line.b, h.line.c
    if h.sense.upper:
        a, b, c = -a, -b, -c
    return a, b, c, h.sense.strict


def sort_key(x) -> tuple:
    """(rational part, sqrt(d) part): a key that orders Fractions and
    QuadExts of one field consistently (not by value)."""
    return (x.a, x.b) if isinstance(x, QuadExt) else (x, 0)


def line_key(line: Line) -> tuple:
    """The line's coefficients over its leading one, in Fractions and
    QuadExts: equal exactly for equal lines (the Fraction key `Line` once
    kept beside its integer form)."""
    a, b, c = line.a, line.b, line.c
    lead = a if a != 0 else b
    return a / lead, b / lead, c / lead


def hp_key(h: HalfPlane) -> tuple:
    """The key that once ordered a region's constraints and identified a
    region: `normalized(h)` over its leading |coefficient|, each entry as
    its `sort_key` pair, then the strict flag; that is `line_key`, negated
    when the sense is upper XOR the leading coefficient is negative."""
    line = h.line
    neg = h.sense.upper != ((line.a if line.a != 0 else line.b) < 0)
    return tuple(sort_key(-x if neg else x) for x in line_key(line)) + (h.sense.strict,)


def per_call_key(h: HalfPlane) -> tuple:
    """The key a region once recomputed for each constraint on every `==`,
    `hash` and merge: the primitive form of the line's integer form, negated
    for an upper sense, then the strict flag."""
    a, b, c = h.line.ints
    if h.sense.upper:
        a, b, c = -a, -b, -c
    return primitive(a, b, c) + (h.sense.strict,)


def per_call_region_key(r: ConvexRegion) -> tuple:
    """`ConvexRegion.canonical_key` as it once read, on `per_call_key`."""
    return ("empty",) if r.is_empty else tuple(map(per_call_key, r.constraints))


def slab_distance(pair, p):
    """Offset distance from p to the pair's closed slab; 0 inside."""
    t = signed_offset(pair.line, p)
    if t < 0:
        return -t
    if t > pair.width:
        return t - pair.width
    return Fraction(0)


def compose_strip_maps(system, a: int, b: int, p: Point) -> Point:
    """Apply mu_a, ..., mu_b' in order, b' the smallest index >= a congruent
    to b mod n.  Raises OnStripBoundaryError with the failing stage."""
    n = system.n
    b_lifted = a + (b - a) % n
    q = system.polygon.homogeneous(p)
    for i in range(a, b_lifted + 1):
        try:
            q = strip_map(system.pair(i), q)
        except OnStripBoundaryError as exc:
            raise OnStripBoundaryError(exc.point, stage=i % n) from None
    return point_of(q)


def normal(line: Line) -> Vec:
    """The line's normal (a, b), on its scalar coefficients (what
    `Line.normal` once returned)."""
    return Vec(line.a, line.b)


def direction(line: Line) -> Vec:
    """The line's direction (-b, a), the normal turned a quarter
    counterclockwise (what `Line.direction` once returned)."""
    return Vec(-line.b, line.a)


def parallel_offset(line: Line, delta) -> Line:
    """The parallel line whose signed offsets are shifted down by delta (what
    `Line.parallel_offset` once computed, on the line's integer form)."""
    n, q = delta.as_integer_ratio()
    return line._moved(line.ints[2] * q + n * line.s, q)


def strip_region(pair) -> ConvexRegion:
    """The closed strip of a pinwheel pair as a region: between its line and
    the parallel line one width on (what `PinwheelPair.strip_region` once built)."""
    return region([HalfPlane(pair.line, Sense.GE),
                   HalfPlane(parallel_offset(pair.line, pair.width), Sense.LE)])


def sigma_range(system, a: int, b: int) -> ConvexRegion:
    """Intersection of the strips a, ..., b'-1; the whole plane when a == b."""
    n = system.n
    span = (b - a) % n
    if span == 0:
        return ConvexRegion.whole_plane()
    out = strip_region(system.pair(a))
    for i in range(a + 1, a + span):
        out = out.intersect(strip_region(system.pair(i)))
    return out


def region_area(r):
    """Exact area of a region's closure, the shoelace sum over its vertex
    cycle; zero for the empty region."""
    if r.is_empty:
        return Fraction(0)
    if not r.is_bounded():
        raise ValueError("area of an unbounded region")
    return abs(signed_area2([(p.x, p.y) for p in r.vertices()])) / 2


def line_intersection(first: Line, second: Line) -> Optional[Point]:
    """The meeting point of two lines, None when they are parallel."""
    det = first.a * second.b - second.a * first.b
    if det == 0:
        return None
    x = (first.c * second.b - second.c * first.b) / det
    y = (first.a * second.c - second.a * first.c) / det
    return Point(x, y)


def reflected(p: Point, center: Point) -> Point:
    """Point reflection: 2*center - p."""
    return Point(2 * center.x - p.x, 2 * center.y - p.y)


def scan_tangent_vertex(polygon, ts, chirality: Chirality = Chirality.RIGHT) -> int:
    """`billiards.tangent_vertex` by a scan of all n edge signs, read off
    `edge_offsets` ts (over Q(sqrt d), `quad_sign` of parts i and i + n):
    the first i whose edges i-1 and i have the signs (chirality,
    -chirality), else InsidePolygonError where no sign is negative and
    OnPrimaryWallError where one is, carrying ts."""
    n, d = polygon.n, polygon.quad_d
    signs = [sign(t) if d is None else quad_sign(t, ts[i + n], d) for i, t in enumerate(ts[:n])]
    before, after = chirality.value, -chirality.value
    for i, s in enumerate(signs):
        if s == after and signs[i - 1] == before:
            return i
    raise (InsidePolygonError if min(signs) >= 0 else OnPrimaryWallError)(ts)


def offset_parts(polygon, ts) -> list:
    """Offsets ts (ints or QuadInts) in the form `edge_offsets` returns them:
    over Q(sqrt d), the rational parts, then the sqrt(d) parts."""
    if polygon.quad_d is None:
        return list(ts)
    return [int_parts(t)[0] for t in ts] + [int_parts(t)[1] for t in ts]


def outer_step(polygon, p: Point, chirality: Chirality = Chirality.RIGHT) -> Point:
    """One outer billiards reflection: 2v - p through the tangent vertex."""
    try:
        vi = scan_tangent_vertex(polygon, polygon.edge_offsets(polygon.homogeneous(p)), chirality)
    except (InsidePolygonError, OnPrimaryWallError) as exc:
        raise type(exc)(p) from None
    return reflected(p, polygon.vertices[vi])


def fresh_offsets_step(polygon, here, chirality):
    """One state of `billiards.psi_walk` with every edge offset evaluated
    afresh: the tangent vertex is scanned (`scan_tangent_vertex`) off the
    signs of a*X + b*Y - c*L at the lattice triple `here` and again at its
    reflection, and both reflections are X -> 2*(L // den)*VX - X.  Returns
    (there, (v, w)) over the same L; errors carry `here` as a Point."""
    X, Y, L = here
    try:
        vi = scan_tangent_vertex(polygon, polygon.edge_offsets(here), chirality)
    except OnPrimaryWallError:
        raise UndefinedOnWallError(point_of(here), stage=1) from None
    except InsidePolygonError:
        raise InsidePolygonError(point_of(here)) from None
    s2 = 2 * (L // polygon.den)
    vx, vy = polygon.lattice[vi]
    X, Y = s2 * vx - X, s2 * vy - Y
    try:
        wi = scan_tangent_vertex(polygon, polygon.edge_offsets((X, Y, L)), chirality)
    except OnPrimaryWallError:
        raise UndefinedOnWallError(point_of(here), stage=2) from None
    wx, wy = polygon.lattice[wi]
    return (s2 * wx - X, s2 * wy - Y, L), (vi, wi)


def oracle_psi_walk(polygon, here, chirality=Chirality.RIGHT):
    """The ψ walk state by state, each next state (there, (v, w)) by
    `fresh_offsets_step`, without end."""
    while True:
        here, label = fresh_offsets_step(polygon, here, chirality)
        yield here, label


def run_states(runs):
    """The states (there, (v, w)) of `billiards.psi_walk`'s label runs,
    expanded: each run's first state, then its k translates."""
    for (X, Y, L), label, k, (dx, dy) in runs:
        for j in range(k + 1):
            yield (X + j * dx, Y + j * dy, L), label


def stepwise_psi_orbit(model, start: Point, budget: int, escape_radius=None):
    """`dynamics.orbit(model, start, "psi", budget, escape_radius)` as it was
    logged state by state, over `oracle_psi_walk` and on `Point`s: each state
    one "translated" event, up to the budget, a wall ("undefined", one step
    on) or the first state beyond the radius ("escaped"); the closing event
    repeats the last state.  Its `period` is left unset."""
    rec = OrbitRecord(selector="psi")
    log = rec.events.append
    log(OrbitEvent(0, start, None, None, "start" if budget else "budget-exhausted"))
    if not budget:
        return rec
    walk = oracle_psi_walk(model.polygon, model.polygon.homogeneous(start))
    try:
        for step, (here, label) in zip(range(1, budget + 1), walk):
            p = point_of(here)
            log(OrbitEvent(step, p, None, label, "translated"))
            if escape_radius is not None and p.x * p.x + p.y * p.y > escape_radius ** 2:
                log(rec.final._replace(label=None, tag="escaped"))
                return rec
    except MapUndefinedError:
        log(rec.final._replace(step=rec.final.step + 1, label=None, tag="undefined"))
        return rec
    log(rec.final._replace(label=None, tag="budget-exhausted"))
    return rec


def stepwise_first_return(polygon, p: Point, cap: int) -> Optional[int]:
    """The least P >= 1 with ψ^P(p) = p, walked by `oracle_psi_walk`, or
    None if there is none up to `cap`."""
    here = polygon.homogeneous(p)
    for P, (there, _) in zip(range(1, cap + 1), oracle_psi_walk(polygon, here)):
        if there == here:
            return P
    return None


def overlap_area_region(system, j: int):
    """Overlap area of strips j and j+1 read off the region kernel: the two
    strips intersected, and the area of that parallelogram."""
    strip, nxt = strip_region(system.pair(j)), strip_region(system.pair(j + 1))
    return region_area(strip.intersect(nxt))


def vec_necklace_shift(system, j: int) -> Vec:
    """`quasirational.necklace_shift` on `Vec`s, the way it was computed
    before the shift's triple was read off the strips' forms: edge j's
    direction d times W_{j+1} / (a*d.x + b*d.y), on strip j+1's line."""
    pj = system.pair(j)
    nxt = system.pair(j + 1)
    vs = system.polygon.vertices
    d = sub(vs[(pj.edge_index + 1) % system.n], vs[pj.edge_index])
    t = nxt.width / (nxt.line.a * d.x + nxt.line.b * d.y)
    return scale(d, t)


def ring_shift(ring) -> Vec:
    """The ring's shift, its triple divided out (`vec_of`)."""
    return vec_of(ring.frame[0])


def ring_axis(ring) -> tuple:
    """The ring's lo, hi and dd (`NecklaceSpec.axis`) as scalars."""
    lo, hi, dd, e = ring.axis
    return ratio(lo, e), ratio(hi, e), ratio(dd, e)


def ring_windows(ring) -> tuple:
    """The ring's two annulus windows (`NecklaceSpec.window_ends`) as
    pairs of scalars."""
    return tuple((ratio(*lo), ratio(*hi)) for lo, hi in ring.window_ends())


def transfer_ratio(system, j: int):
    """Signed ratio lambda with shift_j - V_{j+1} = lambda * shift_{j+1}.

    |lambda| always equals A_j / A_{j+1}; the sign says on which side of the
    polygon the carried ring lands.  The cycle product of the signs is -1.
    """
    lhs = sub(vec_necklace_shift(system, j), vec_of(system.pair(j + 1).V))
    rhs = vec_necklace_shift(system, (j + 1) % system.n)
    lam = lhs.x / rhs.x if rhs.x != 0 else lhs.y / rhs.y
    assert lhs.x == lam * rhs.x and lhs.y == lam * rhs.y
    return lam


def signed_offset(line: Line, p: Point):
    """a*p.x + b*p.y - c on the line's coefficients as given, in Fractions
    and QuadExts: zero exactly when p lies on the line."""
    return line.a * p.x + line.b * p.y - line.c


def side(line: Line, p) -> int:
    """The exact sign of the line's signed offset at the point with lattice
    triple p = (X, Y, L): the sign of a*X + b*Y - c*L on the line's integer
    form, an int, or over Q(sqrt d) a QuadInt whose sign is read once (what
    `Line.side` once computed)."""
    X, Y, L = p
    a, b, c = line.ints
    t = a * X + b * Y - c * L
    return (t > 0) - (t < 0) if type(t) is int else t.sign()


def _scalar_sides(pair, p: Point) -> Tuple[int, int]:
    """The signs of p's scalar `signed_offset`s from the strip's two lines,
    the far one built afresh from the width."""
    far = parallel_offset(pair.line, pair.width)
    return sign(signed_offset(pair.line, p)), sign(signed_offset(far, p))


def scalar_location(pair, p: Point) -> int:
    """`PinwheelPair.location` on a `Point`, from its scalar offsets."""
    near, far = _scalar_sides(pair, p)
    if near == 0 or far == 0:
        return 0
    return 1 if near > 0 > far else -1


def point_strip_map(pair, p: Point) -> Point:
    """`strips.strip_map` on a `Point`: the slab side from the scalar
    offsets, then p itself strictly inside the slab, else p +- V."""
    near, far = _scalar_sides(pair, p)
    if near == 0 or far == 0:
        raise OnStripBoundaryError(p, stage=pair.index)
    if near > 0 > far:
        return p
    return add(p, vec_of(pair.V)) if near < 0 else sub(p, vec_of(pair.V))


def offsets_location(pair, p) -> int:
    """`PinwheelPair.location` at the lattice triple p as it read the strip
    before comparing t and t - w with 0 directly: -sign(t) * sign(t - w) on
    `PinwheelPair.offsets`."""
    t, w = pair.offsets(p)
    return -sign(t) * sign(t - w)


def offsets_strip_map(pair, p):
    """`strips.strip_map` at the lattice triple p as it read the strip before
    comparing t and t - w with 0 directly: the signs of `offsets` through
    `sign`, then p itself strictly inside, else p `moved` by -sign(t)*V."""
    t, w = pair.offsets(p)
    near, far = sign(t), sign(t - w)
    if near == 0 or far == 0:
        raise OnStripBoundaryError(point_of(p), stage=pair.index)
    if near > 0 > far:
        return p
    return moved(p, pair.V, -near)


def _point_step(system, point: Point, index: int) -> Tuple[Point, int]:
    """One pinwheel step on a `Point`, the index rule applied here: strip
    map j = index + 1 advances the index where it fixes the point."""
    j = (index + 1) % system.n
    moved = point_strip_map(system.pair(j), point)
    return moved, (j if moved is point else index % system.n)


def point_route_theorem_step(model, p: Point) -> Tuple[Point, int, int]:
    """`dynamics.pinwheel_theorem_step` on `Point`s: the indexed-plane map
    from (p, a-1), one step at a time, until it reaches the section of
    psi(p); returns (psi(p), steps used, a)."""
    n = model.n
    tile = model.partition.classify(model.polygon.homogeneous(p))
    q = add(p, vec_of(tile.translation))
    a = model.path_of_tile(tile).start
    point, index = p, (a - 1) % n
    target = section(model, q)
    budget = 3 * n
    for used in range(1, budget + 1):
        point, index = _point_step(model.system, point, index)
        if point == target.point and index == target.index:
            return q, used, a
    raise BudgetExceededError(budget, f"pinwheel budget {budget} exceeded at {p}")


def point_route_structure2(model, tile, p: Point, q: Point):
    """verify's Structure 2 check walked afresh on `Point`s: the orbit of
    (p, a-1) must reach (q, b-1), q = psi(p), within 2n steps, and its
    planar trace must equal the telescoped prefix points.  None when it
    holds, else the (expected, actual) pair of the violation."""
    n = model.n
    path = model.path_of_tile(tile)
    point, index = p, (path.start - 1) % n
    target_index = (path.end_lifted - 1) % n
    expected = [p]
    for shift in path.prefix_sums:
        nxt = add(p, vec_of(shift))
        if nxt != expected[-1]:
            expected.append(nxt)
    trace = [p]
    for _ in range(2 * n):
        try:
            point, index = _point_step(model.system, point, index)
        except MapUndefinedError:
            return ("orbit off walls", "strip boundary hit")
        if point != trace[-1]:
            trace.append(point)
        if point == q and index == target_index:
            if trace != expected:
                return (f"planar trace {expected}", f"{trace}")
            return None
    return (f"(psi(p), b-1) within {2 * n} pinwheel steps", "not reached")


def point_strip_jump(pair, p: Point) -> Tuple[Point, int]:
    """`strips.strip_jump` on `Point`s: the step count floors the quotient of
    the scalar offset and width, the landing is p moved by whole V, and a
    landing off the open strip raises at that point."""
    t = signed_offset(pair.line, p)
    w = pair.width
    steps = -math.floor(t / w)
    if steps == 0:  # 0 <= t < w
        if t == 0:
            raise OnStripBoundaryError(p, stage=pair.index)
        return p, 0
    if steps > 0:
        q = add(p, scale(vec_of(pair.V), steps))
    else:
        steps = -steps
        q = sub(p, scale(vec_of(pair.V), steps))
    if scalar_location(pair, q) != 1:
        raise OnStripBoundaryError(q, stage=pair.index)
    return q, steps


def centre(ring) -> Point:
    """The ring's strip's centre vertex w, as a `Point`."""
    return ring.polygon.vertices[ring.pair.w_index]


def pulled_back_in_p(ring, p: Point) -> bool:
    """`NecklaceSpec.in_p` by pulling p back to P: p - m*shift asked of the
    polygon."""
    back = sub(p, scale(ring_shift(ring), ring.m))
    return ring.polygon.point_location(back) > 0


def pulled_back_in_q(ring, p: Point) -> bool:
    """`NecklaceSpec.in_q` by pulling p back to P: p - m*shift reflected
    through the strip's centre vertex, asked of the polygon."""
    back = reflected(sub(p, scale(ring_shift(ring), ring.m)), centre(ring))
    return ring.polygon.point_location(back) > 0


def pulled_back_trapped_extent(ring, p: Point) -> bool:
    """`quasirational.in_trapped_extent` on scalars: the strip, the axis
    coordinate shift.p against the extent, and the pulled-back copies at
    +-m."""
    lo, hi, dd = ring_axis(ring)
    shift = ring.m * dd
    if scalar_location(ring.pair, p) != 1 or not (
            lo - shift <= dot(ring_shift(ring), p) <= hi + shift):
        return False
    return not any(test(r, p) for r in (ring, ring.at(-ring.m))
                   for test in (pulled_back_in_p, pulled_back_in_q))


def scalar_in_annulus(ring, p: Point) -> bool:
    """`NecklaceSpec.in_annulus` on scalars: inside the strip, and the axis
    coordinate shift.p strictly within one of the ring's windows."""
    s = dot(ring_shift(ring), p)
    return scalar_location(ring.pair, p) == 1 and any(a < s < b for a, b in ring_windows(ring))


def placed_samples(ring, base, kind: str, count: int, seed: int):
    """A ring copy's samples by the region route: P's region `base` moved
    onto the copy (turned about the strip's centre vertex for kind "Q", then
    translated by m*shift) and sampled there."""
    region = base.point_reflect(homogeneous(centre(ring))) if kind == "Q" else base
    moved = region.translate(homogeneous(scale(ring_shift(ring), ring.m)))
    return tuple(map(point_of, moved.sample_points(count, seed=seed)))


def p_vertices(ring) -> Tuple[Point, ...]:
    """The vertices of the ring's copy P + m*shift, on `Point`s."""
    offset = scale(ring_shift(ring), ring.m)
    return tuple(add(v, offset) for v in ring.polygon.vertices)


def q_vertices(ring) -> Tuple[Point, ...]:
    """The vertices of the ring's copy (P turned 180 degrees about its
    centre vertex) + m*shift, on `Point`s."""
    offset = scale(ring_shift(ring), ring.m)
    return tuple(add(reflected(v, centre(ring)), offset) for v in ring.polygon.vertices)


def fraction_frame(system, j: int):
    """`quasirational.necklace`'s frame for strip j on `Fraction`s (or
    QuadExts) and `integer_form`, the way it was built before it was read
    off P's lattice: (lo, hi, dd, groups), groups the integer forms
    (A, B, C, D) of P's edges, of Q's, of the trapped extent's two ends and
    of each annulus window's two ends, in the ring's order.  An edge
    a*x + b*y > c of P has D = a*sx + b*sy; its turned copy on Q is
    -a*x - b*y > c - 2(a*cx + b*cy) with -D, (cx, cy) the centre vertex."""
    pair, polygon = system.pair(j), system.polygon
    d, w = vec_necklace_shift(system, j), polygon.vertices[pair.w_index]
    vals = [dot(d, v) for v in polygon.vertices]
    lo, hi = min(vals), max(vals)
    twice_center = 2 * dot(d, w)
    lo, hi = min(lo, twice_center - hi), max(hi, twice_center - lo)
    dd = dot(d, d)
    rates = [(e, e.a * d.x + e.b * d.y) for e in polygon.edges]
    p_forms = tuple(integer_form(e.a, e.b, e.c, D) for e, D in rates)
    q_forms = tuple(integer_form(-e.a, -e.b, e.c - 2 * (e.a * w.x + e.b * w.y), -D)
                    for e, D in rates)
    extent = (integer_form(d.x, d.y, lo, -dd), integer_form(-d.x, -d.y, -hi, -dd))
    windows = ((integer_form(d.x, d.y, hi, 0), integer_form(-d.x, -d.y, -lo, -dd)),
               (integer_form(d.x, d.y, hi, -dd), integer_form(-d.x, -d.y, -lo, 0)))
    return lo, hi, dd, (p_forms, q_forms, extent) + windows


def fraction_annulus_draws(model, m: int, samples: int, seed: int) -> list:
    """The annulus draws of `verify.check_necklace_invariance(model, m,
    samples, seed)` as Points, by the route they took on `Fraction`s: per
    strip, each window's openness compared per draw, the axis value
    `Rng.between` the window's ends and the offset the width times
    `Rng.unit`, both converted to (num, den) pairs at the frame point."""
    system = model.system
    quasi = quasi_analyze(system)
    rng = Rng(seed).split(0x9E, m)
    per_piece = max(2, samples // (2 * model.n))
    out = []
    for j in range(model.n):
        ring = necklace(system, j, m * quasi.D_int[j])
        windows = ring_windows(ring)
        draws = [t_i for t_i in range(6 * per_piece)
                 if windows[t_i % 2][0] < windows[t_i % 2][1]]
        for t_i in draws[:per_piece]:
            lo, hi = windows[t_i % 2]
            s_val = rng.split(7, j).between(t_i, lo, hi)
            off = ring.pair.width * rng.split(8, j).unit(t_i)
            out.append(point_of(ring.frame_triple(s_val.as_integer_ratio(),
                                                  (off / ring.pair.width).as_integer_ratio())))
    return out


# ---------------------------------------------------------------------------
# the Point route of the samples beyond K: unbounded-tile ray samples and
# strip-approach points, as they were drawn on scalars before they were born
# as lattice triples


def pick_in_interval(lo, up, rng: Optional[Rng] = None, counter: int = 0):
    """A scalar between the scalars lo and up (None: the interval runs off
    that way), strictly inside when the interval has length: the midpoint,
    or lo + `Rng.unit` * (up - lo); lo + 1 or up - 1 (0 with neither), or
    one `Rng.unit` past the finite end (a unit with neither)."""
    if lo is not None and up is not None:
        if lo == up:
            return lo
        if rng is None:
            return (lo + up) / 2
        return lo + rng.unit(counter) * (up - lo)
    if lo is not None:
        return lo + (1 if rng is None else rng.unit(counter))
    if up is not None:
        return up - (1 if rng is None else rng.unit(counter))
    return Fraction(0) if rng is None else rng.unit(counter)


def _point_y_bound(r: ConvexRegion, s: int):
    """The lowest (s = 1) or highest (s = -1) y of r's closure as a scalar;
    None when a recession ray runs off that way."""
    if any(s * gy < 0 for _, gy in r._rays):
        return None
    ys = [ratio(Y, L) for _, Y, L in r.vertex_triples]
    ys += [ratio(c, b) for a, b, c in r._forms if a == 0 and s * b > 0]
    return min(ys) if s > 0 else max(ys)


def point_interior_point(r: ConvexRegion, rng: Optional[Rng] = None, counter: int = 0) -> Point:
    """`ConvexRegion.interior_point` on scalars: y picked strictly inside the
    closure's y-range, then x strictly inside the slice at that y."""
    y = pick_in_interval(_point_y_bound(r, 1), _point_y_bound(r, -1), rng, 2 * counter)
    yn, yq = y.as_integer_ratio()
    xlo, xup = _one_dim_interval((a * yq, c * yq - b * yn, True) for a, b, c in r._forms)
    x = pick_in_interval(xlo and ratio(xlo[0], xlo[1]), xup and ratio(xup[0], xup[1]),
                         rng, 2 * counter + 1)
    return Point(as_scalar(x), as_scalar(y))


def point_recession_direction(r: ConvexRegion) -> Optional[Vec]:
    """`ConvexRegion.recession_direction` on scalars: (dx, t), t picked in
    the section of the cone at x = dx, else (0, +-1); None when bounded."""
    for dx in (1, -1):
        ts = [ratio(gy, gx * dx) for gx, gy in r._rays if gx * dx > 0]
        if ts:
            lo = None if r._recedes(-1) else min(ts)
            up = None if r._recedes(1) else max(ts)
            return Vec(Fraction(dx), pick_in_interval(lo, up))
    for dy in (1, -1):
        if any(gy * dy > 0 for _, gy in r._rays):
            return Vec(Fraction(0), Fraction(dy))
    return None


def point_tile_samples(tile, count: int, rng: Rng, radii_scale=None) -> list:
    """`verify.tile_samples` on an unbounded tile as Points: the scalar
    interior point plus the scalar recession direction times
    t = radii_scale * 2^(i % 3) * (1 + `Rng.unit`)."""
    direction = point_recession_direction(tile.region)
    radii = radii_scale if radii_scale is not None else Fraction(64)
    out = []
    for i in range(count):
        base = point_interior_point(tile.region, rng.split(11, i), i)
        out.append(add(base, scale(direction, radii * (2 ** (i % 3)) * (1 + rng.unit(1000 + i)))))
    return out


def point_strip_approach(model, seed: int) -> list:
    """The strip-approach points of `verify.check_pinwheel_theorem(model,
    seed=seed)`, before ψ⁻¹, as Points on the strips' scalar lines: per
    strip, offsets W/4, 3W/4, 5W/4 plus W*unit/64 from the line's foot, and
    sgn*(2 + t_i)*R along it in L1."""
    rng = Rng(seed).split(0x71, model.n)
    R = ratio(*far_radius(model))
    out = []
    for j in range(model.n):
        pair = model.system.pair(j)
        a, b, c = pair.line.a, pair.line.b, pair.line.c
        for t_i, sgn in enumerate((1, -1, 1)):
            off = (pair.width * Fraction(2 * t_i + 1, 4)
                   + pair.width * rng.split(0xA9, j).unit(t_i) / 64)
            along = sgn * (2 + t_i) * R / (abs(a) + abs(b))
            out.append(Point(a * (c + off) / (a * a + b * b) - b * along,
                             b * (c + off) / (a * a + b * b) + a * along))
    return out


# ---------------------------------------------------------------------------
# the Vec route of the pinwheel model's vectors: V, path steps, prefix sums,
# displacements, apex points and tile translations read off P's vertices as
# `Vec`s and `Point`s, as pairs, paths and tiles carried them before they
# carried lattice triples

ZERO_VEC = Vec(Fraction(0), Fraction(0))


def pair_V(polygon, pair) -> Vec:
    """The strip's V = 2*(w - v) on the vertices' scalars."""
    return scale(sub(polygon.vertices[pair.w_index], polygon.vertices[pair.v_index]), 2)


def tile_translation(polygon, tile) -> Vec:
    """The tile's translation 2*(w - v) on the vertices' scalars."""
    return scale(sub(polygon.vertices[tile.w_index], polygon.vertices[tile.v_index]), 2)


def path_steps(system, path) -> dict:
    """The path's steps by lifted index, walked on the vertices' Points: a
    traversed spoke's step runs from the endpoint the walk stands on to its
    other endpoint, and a skipped spoke's is the zero vector."""
    vs = system.polygon.vertices
    here, steps = system.pair(path.start).v_index, {}
    for i in range(path.start, path.end_lifted + 1):
        s = system.pair(i)
        if i not in path.involved:
            steps[i] = ZERO_VEC
            continue
        there = s.w_index if here == s.v_index else s.v_index
        steps[i], here = sub(vs[there], vs[here]), there
    return steps


def path_prefix_sums(system, path) -> Tuple[Vec, ...]:
    """Twice the step sums over start..start+i, one telescoping pass of `Vec`
    additions."""
    sums = []
    for _, step in sorted(path_steps(system, path).items()):
        sums.append(add(sums[-1], scale(step, 2)) if sums else scale(step, 2))
    return tuple(sums)


def path_displacement(system, path) -> Vec:
    """The last prefix sum: 2*(last vertex - first vertex) by telescoping."""
    return path_prefix_sums(system, path)[-1]


def path_apex_points(system, path) -> Tuple[Point, ...]:
    """The first vertex, then the first vertex plus each prefix sum."""
    v = system.polygon.vertices[path.first_vertex_index]
    return (v,) + tuple(add(v, shift) for shift in path_prefix_sums(system, path))


# ---------------------------------------------------------------------------
# the Point route of the polygon's construction: validation, orientation,
# edge lines, direction orders, strip order, the generator and
# `polygon_region` on `Point`s and `Vec`s of `Fraction`/`QuadExt` scalars, as
# they were computed before they read the polygon's lattice pairs


def vec_upper(u: Vec) -> bool:
    """Whether u is in the half-open upper half-plane: y > 0, or y = 0 and x > 0."""
    return sign(u.y) > 0 or (u.y == 0 and sign(u.x) > 0)


def vec_direction_ccw_cmp(u: Vec, v: Vec) -> int:
    """Compare directions by counterclockwise angle from the positive x-axis."""
    hu, hv = vec_upper(u), vec_upper(v)
    if hu != hv:
        return -1 if hu else 1
    return -sign(cross(u, v))


def vec_slope_angle_cmp(u: Vec, v: Vec) -> int:
    """Compare directions as projective slopes, each folded into the upper half-plane."""
    return vec_direction_ccw_cmp(u if vec_upper(u) else scale(u, -1),
                                 v if vec_upper(v) else scale(v, -1))


def point_signed_area2(points) -> Fraction:
    """The shoelace sum of a closed vertex cycle of `Point`s."""
    return sum((v.x * w.y - w.x * v.y for v, w in zip(points, points[1:] + points[:1])),
               start=Fraction(0))


def point_reoriented(points) -> bool:
    """Whether `NicePolygon.from_points` reverses the cycle: the shoelace sign."""
    return len(points) >= 3 and point_signed_area2(tuple(points)) > 0


def point_validate(verts):
    """`NicePolygon`'s validation on `Vec` differences of the vertices, with
    its messages and indices."""
    n = len(verts)
    if n < 3:
        raise DegenerateVerticesError(f"need at least 3 vertices, got {n}", range(n))
    dirs = [sub(verts[(i + 1) % n], verts[i]) for i in range(n)]
    wraps = 0
    for i in range(n):
        turn = sign(cross(dirs[i - 1], dirs[i]))
        if turn == 0:
            raise DegenerateVerticesError(
                f"collinear or repeated vertices at indices {(i - 1) % n}, {i}, {(i + 1) % n}",
                ((i - 1) % n, i, (i + 1) % n))
        if turn > 0:
            raise NotConvexError(f"reflex corner at vertex {i}", (i,))
        wraps += vec_direction_ccw_cmp(dirs[i - 1], dirs[i]) < 0
    if wraps != 1:
        raise NotConvexError(f"the sides wind {wraps} times around", range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if cross(dirs[i], dirs[j]) == 0:
                raise ParallelEdgesError(f"edges {i} and {j} are parallel", (i, j))


def point_from_points(points, direct: bool = False):
    """The clockwise vertex tuple `NicePolygon.from_points(points)` keeps (or
    `NicePolygon(points)` where direct), raising what its validation raises."""
    verts = tuple(points)
    if not direct and point_reoriented(verts):
        verts = verts[::-1]
    point_validate(verts)
    return verts


def point_edges(verts) -> Tuple[Line, ...]:
    """Each edge's line d.y*x - d.x*y = d.y*t.x - d.x*t.y, d = h - t, on
    the vertices' scalars."""
    return tuple(line(d.y, -d.x, d.y * t.x - d.x * t.y)
                 for t, h in zip(verts, verts[1:] + verts[:1]) for d in [sub(h, t)])


def point_pinwheel_pairs(polygon) -> Tuple[PinwheelPair, ...]:
    """`build_pinwheel_system`'s pairs, on `point_edges` and sorted by
    `vec_slope_angle_cmp` on the edges' `Vec` directions."""
    n, entries = polygon.n, []
    for i, edge in enumerate(point_edges(polygon.vertices)):
        A, B, C = primitive(*edge.ints)
        line = Line((A, B, C), abs(A if A != 0 else B))
        offsets = [A * X + B * Y - C * polygon.den for X, Y in polygon.lattice]
        far = max(range(n), key=lambda i: offsets[i])
        # s*width on the scalars, as `PinwheelPair` once read its form off a stored width
        width = ratio(2 * offsets[far], line.s * polygon.den)
        form = line.ints + (width * line.s).as_integer_ratio()
        d = sub(polygon.vertices[(i + 1) % n], polygon.vertices[i])
        entries.append((d, i, far, form))
    entries.sort(key=cmp_to_key(lambda x, y: vec_slope_angle_cmp(x[0], y[0])))
    ends = [{(i + 1) % n, far} for _, i, far, _ in entries]
    pairs = []
    for j, (_, i, far, form) in enumerate(entries):
        (vx, vy), (wx, wy) = polygon.lattice[(i + 1) % n], polygon.lattice[far]
        pairs.append(PinwheelPair(
            index=j, edge_index=i, form=form, v_index=(i + 1) % n, w_index=far,
            V=(2 * (wx - vx), 2 * (wy - vy), polygon.den),
            special=bool(ends[j - 1] & ends[j] & ends[(j + 1) % n])))
    return tuple(pairs)


def point_far_radius(model, factor: int = 8):
    """`far_radius` on the vertices' scalars and the pairs' `width`s."""
    xs = [v.x for v in model.polygon.vertices]
    ys = [v.y for v in model.polygon.vertices]
    extent = (max(xs) - min(xs)) + (max(ys) - min(ys))
    width = max(p.width for p in model.system.pairs)
    return Fraction(factor * model.polygon.n) * (extent + width)


def vec_random_nice_polygon(n: int, seed: int, bound: int = 20) -> Tuple[Point, ...]:
    """The clockwise vertices of `random_nice_polygon(n, seed, bound)`, drawn
    as `Vec`s of `Fraction`s: recentred on their mean, sorted by
    `vec_direction_ccw_cmp`, chained, recentred and scaled on `Point`s; an
    attempt that `point_from_points` refuses is resampled."""
    base = Rng(seed).split(0x9071, n)
    for attempt in range(200):
        rng = base.split(attempt)
        k = 6 + 2 * n
        raws = [Vec(Fraction(rng.int_range(2 * i, -k, k)),
                    Fraction(rng.int_range(2 * i + 1, -k, k)))
                for i in range(n)]
        mx = sum((v.x for v in raws), start=Fraction(0)) / n
        my = sum((v.y for v in raws), start=Fraction(0)) / n
        edges = [Vec(v.x - mx, v.y - my) for v in raws]
        edges.sort(key=cmp_to_key(vec_direction_ccw_cmp))
        verts = []
        acc = Point(Fraction(0), Fraction(0))
        for e in edges:
            verts.append(acc)
            acc = add(acc, e)
        cx = sum((v.x for v in verts), start=Fraction(0)) / n
        cy = sum((v.y for v in verts), start=Fraction(0)) / n
        verts = [Point(v.x - cx, v.y - cy) for v in verts]
        top = max(max(abs(v.x), abs(v.y)) for v in verts)
        if top > bound:
            scale = Fraction(bound) / (top.numerator // top.denominator + 1)
            verts = [Point(v.x * scale, v.y * scale) for v in verts]
        try:
            return point_from_points(verts)
        except PolygonError:
            continue
    raise AssertionError(f"no nice polygon after 200 attempts (n={n}, seed={seed})")


def point_polygon_region(vertices, open_region: bool = False) -> ConvexRegion:
    """Region of a convex polygon given by clockwise vertices: each edge's
    line built on the vertices' scalars, the inside on its upper side."""
    n = len(vertices)
    sense = Sense.LT if open_region else Sense.LE
    hps = []
    for i in range(n):
        t, h = vertices[i], vertices[(i + 1) % n]
        d = sub(h, t)
        # interior of a clockwise polygon is the cross(d, p - t) < 0 side
        hps.append(half_plane(-d.y, d.x, d.x * t.y - d.y * t.x, sense))
    return region(hps)
