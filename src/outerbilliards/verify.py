"""Sampled and exact verification of the structural properties.

Every check is deterministic given (polygon, seed, sample counts), reports
wall-skipped samples separately from violations, and makes each violation
replayable from its (seed, index) pair.  Containment assertions use closed
strips; exact assertions (tile vertices, region identities, label sets) use
no sampling at all.  Samples are born as lattice triples, and a sample's
tile and psi(p)'s come off one ψ walk (`Partition.walk`).
"""

from __future__ import annotations

import dataclasses
import time
from itertools import groupby, islice
from typing import List, Optional, Tuple

from .billiards import Chirality, psi_walk
from .dynamics import far_radius, pinwheel_theorem_step, pinwheel_walk
from .errors import BudgetExceededError, MapUndefinedError
from .geometry import lifted, moved, point_of, vec_of
from .model import BilliardModel
from .paths import PathFamily, apex_sequence, link_partition
from .polygon import NicePolygon
from .quasirational import in_trapped_extent, necklace, quasi_analyze
from .report import CheckReport
from .rng import Rng
from .scalars import cleared, primitive, ratio
from .strips import PinwheelSystem, strip_jump, strip_map

# ---------------------------------------------------------------------------
# sample generation over tiles


def tile_samples(model: BilliardModel, tile, count: int, rng: Rng,
                 radii_scale=(64, 1)) -> List[tuple]:
    """Interior samples of a tile as lattice triples on the polygon's lattice
    (`NicePolygon.homogeneous`): barycentric for bounded tiles; for unbounded ones,
    interior points moved along a recession ray by exponentially spaced
    radii_scale, a (num, den) pair."""
    polygon = model.polygon
    if not tile.unbounded:
        seed = rng.u64(hash(tile.label) & 0xFFFF)
        return [lifted(t, polygon.den) for t in tile.region.sample_points(count, seed=seed)]
    VX, VY, q = tile.region.recession_direction()
    sn, sd = radii_scale
    out = []
    for i in range(count):  # the base moved by radii_scale * 2^(i % 3) * (1 + unit) = tn/td
        tn, td = rng.draw(1000 + i, (sn * 2 ** (i % 3), sd), (sn * 2 ** (i % 3 + 1), sd))
        base = lifted(tile.region.interior_point(rng.split(11, i), i), q * td)
        out.append(lifted(moved(base, (VX, VY, q * td), tn), polygon.den))
    return out


# ---------------------------------------------------------------------------
# the checks


def check_pinwheel_theorem(model: BilliardModel, samples: int = 60,
                           seed: int = 0) -> CheckReport:
    """Every sampled tile point must reach its landing state within 3n
    pinwheel steps; bounded-tile samples additionally realize the 2n-step
    bound and visit exactly the telescoped prefix points on the way."""
    rep = CheckReport("pinwheel-theorem", model.document, seed)
    n = model.n
    rng = Rng(seed).split(0x71, n)
    tiles = model.partition.tiles
    per_tile = max(3, -(-samples // max(len(tiles), 1)))
    pool = []
    scale = far_radius(model, factor=1)
    for t_i, tile in enumerate(tiles):
        pool += [(tile, p) for p in tile_samples(model, tile, per_tile, rng.split(t_i), scale)]
    # strip-approach samples: preimages of points spread across each strip's
    # width at far radius, so the k = 2 branch is exercised on every strip
    Rn, Rq = far_radius(model)
    for j in range(n):
        A, B, C, wn, wq = model.system.pair(j).form  # A*x + B*y = C + off, 0 < off < wn/wq
        N2, L1, draws = A * A + B * B, max(A, -A) + max(B, -B), rng.split(0xA9, j)
        for t_i, sgn in enumerate((1, -1, 1)):
            # (A, B)*(C + off)/N2 + (-B, A)*along/L1: off W/4, 3W/4 or 5W/4 (inside the strip
            # twice, beyond it once) plus a draw below W/64, along sgn*(2 + t_i)*R in L1
            on, od = draws.draw(t_i, (wn * (2 * t_i + 1), 4 * wq), (wn * (32 * t_i + 17), 64 * wq))
            K, M = (C * od + on) * Rq * L1, sgn * (2 + t_i) * Rn * od * N2
            (X, L), (Y, _) = (cleared(Z, od * N2 * Rq * L1) for Z in (A * K - B * M, B * K + A * M))
            try:
                p0 = next(psi_walk(model.polygon, lifted((X, Y, L), model.polygon.den),
                                   Chirality.LEFT))[0]
            except MapUndefinedError:
                continue
            pool.append((None, p0))

    def reaches(tile, p):
        try:
            _, orbit, _ = pinwheel_theorem_step(model, p)
        except BudgetExceededError as exc:
            return repr(point_of(p)), f"k <= {exc.budget}", "budget exceeded"
        if tile is not None and not tile.unbounded:
            err = _structure2_realization(model, tile, p, orbit)
            if err is not None:
                return (repr(point_of(p)), *err)
        return None

    for idx, (tile, p) in enumerate(pool, 1):
        rep.judge(idx, reaches, tile, p)
    return rep


def _structure2_realization(model: BilliardModel, tile, here, orbit):
    """The pinwheel orbit of (p, a-1), p the lattice triple `here`, as the
    theorem step's `orbit`, must pass (psi(p), b-1) within 2n steps, and its
    trace up to there must equal p moved by each prefix sum over its L."""
    n = model.n
    path = model.path_of_tile(tile)
    try:
        used = orbit.index((orbit[-1][0], (path.end_lifted - 1) % n), 0, 2 * n) + 1
    except ValueError:
        return (f"(psi(p), b-1) within {2 * n} pinwheel steps", "not reached")
    # each with its consecutive repeats collapsed
    expected = [q for q, _ in groupby([here] + [moved(here, s) for s in path.prefix_sums])]
    trace = [q for q, _ in groupby([here] + [state for state, _ in orbit[:used]])]
    if trace != expected:
        planar = [[point_of(t) for t in pts] for pts in (expected, trace)]
        return (f"planar trace {planar[0]}", f"{planar[1]}")
    return None


def check_far_field(model: BilliardModel, samples: int = 200, seed: int = 0) -> CheckReport:
    """Beyond the far radius: k is 1 or 2, and k = 2 exactly when the image
    lands inside a pinwheel strip (which is then the index-shifting strip)."""
    rep = CheckReport("far-field-dichotomy", model.document, seed)
    n = model.n
    Rn, Rq = far_radius(model)  # the sample 2R*(ux, uy)/s as a triple, R = Rn/Rq
    rep.notes.append(f"far radius = {ratio(Rn, Rq)}")
    rng = Rng(seed).split(0xFA7)

    def dichotomy(p):
        try:
            _, orbit, a = pinwheel_theorem_step(model, p)
        except BudgetExceededError as exc:
            return repr(point_of(p)), f"k <= {exc.budget}", "budget exceeded"
        k, here = len(orbit), orbit[-1][0]
        strips_in = [j for j in range(n) if model.system.pair(j).location(here) == 1]
        if k not in (1, 2):
            return repr(point_of(p)), "k in {1, 2}", f"k = {k}"
        if (k == 2) != bool(strips_in):
            return (repr(point_of(p)), "k = 2 iff psi(p) inside a strip",
                    f"k = {k}, strips = {strips_in}")
        if k == 2 and strips_in != [a % n]:
            return repr(point_of(p)), f"landing strip = {a % n}", f"strips = {strips_in}"
        return None

    i = 0
    while rep.valid + len(rep.violations) < samples and i < 20 * samples:
        i += 1
        ux = rng.int_range(2 * i, -9973, 9973)
        uy = rng.int_range(2 * i + 1, -9973, 9973)
        if ux == 0 and uy == 0:
            continue
        s = abs(ux) + abs(uy)
        rep.judge(i, dichotomy, lifted((2 * Rn * ux, 2 * Rn * uy, Rq * s), model.polygon.den))
    return rep


def check_structure3(model: BilliardModel, samples: int = 40,
                     seed: int = 0) -> CheckReport:
    """For q = psi(p): q lies in the closed strips b..c-1 and the pinwheel
    map shifts (q, b-1) to (q, c-1) within n steps without moving q."""
    rep = CheckReport("structure3", model.document, seed)
    n = model.n
    rng = Rng(seed).split(0x53)
    tiles = model.partition.tiles
    per_tile = max(2, samples // max(len(tiles), 1))

    def shifts(p):
        (_, tile), (here, landing) = islice(model.partition.walk(p), 2)
        b, c = model.path_of_tile(tile).end, model.path_of_tile(landing).start
        span = (c - b) % n
        bad = None
        for d in range(span):
            if model.system.pair(b + d).location(here) < 0:
                bad = f"q outside closed strip {(b + d) % n}"
                break
        if bad is None and span:
            bad = _index_shift(model, here, b, c)
        return None if bad is None else (repr(point_of(p)), "containment and index shift", bad)

    idx = 0
    for tile in tiles:
        for p in tile_samples(model, tile, per_tile, rng.split(idx)):
            idx += 1
            rep.judge(idx, shifts, p)
    return rep


def _index_shift(model: BilliardModel, here, b: int, c: int) -> Optional[str]:
    """The walk from (q, b-1), q as the lattice triple `here`, must reach
    index c-1 within n steps without moving q."""
    n = model.n
    walk = pinwheel_walk(model.system, here, b - 1)
    try:
        for _, (there, index) in zip(range(n), walk):
            if there != here:
                return "pinwheel map moved the point during index shift"
            if index == (c - 1) % n:
                return None
    except MapUndefinedError:
        return "strip boundary during index shift"
    return f"index not shifted to {(c - 1) % n} within {n} steps"


def check_pin1_pin2_move(model: BilliardModel, samples_per_tile: int = 20,
                         seed: int = 0) -> CheckReport:
    """Bounded tiles: the translated-tile containments (exact on vertices),
    the final strip-map action, the displacement identity, and the bounded
    depth bound."""
    rep = CheckReport("pin1-pin2-move", model.document, seed)
    n = model.n
    rng = Rng(seed).split(0x91)

    def moves(tile, path):
        # move: exact displacement identity per tile
        if path.displacement() != tile.translation:
            return (path.display(), f"displacement {vec_of(tile.translation)}",
                    f"{vec_of(path.displacement())}")
        corners = [lifted(v, model.polygon.den) for v in tile.region.vertex_triples]
        # pin1: translated closed tile inside each closed strip, on vertices
        for k, shift in zip(range(path.start, path.end_lifted), path.prefix_sums):
            for here in corners:
                if model.system.pair(k).location(moved(here, shift)) < 0:
                    return (path.display(), "closed containments",
                            f"vertex {point_of(here)} + prefix({k}) outside strip {k % n}")
        # bounded depth: the tile sits within half a width of its start strip
        pair_a = model.system.pair(path.start)
        for here, (t, w) in zip(corners, map(pair_a.offsets, corners)):
            if 2 * t < -w or 2 * t > 3 * w:
                return (path.display(), "closed containments",
                        f"vertex {point_of(here)} deeper than half the width of strip {path.start}")
        return None

    def acts(s, path, shift, step):
        here = moved(lifted(s, model.polygon.den), shift)
        got, want = strip_map(model.system.pair(path.end_lifted), here), moved(here, step, 2)
        if got != want:  # all three over here's L
            X, Y, L = here
            adds = [vec_of((U - X, V - Y, L)) for U, V, _ in (want, got)]
            return repr(point_of(s)), f"mu_{path.end_lifted % n} adds {adds[0]}", f"{adds[1]}"
        return None

    idx = 0
    for tile in model.partition.tiles:
        if tile.unbounded:
            continue
        path = model.path_of_tile(tile)
        idx += 1
        # the tile counts once, valid only when none of its pin2 samples is a
        # violation; a pin2 violation is that sample's, not the tile's
        rep.attempted += 1
        bad = moves(tile, path)
        if bad is not None:
            rep.fail(*bad, idx)
            continue
        # pin2: the b-th strip map acts by the doubled terminal step
        if path.span >= 1:
            shift, step = path.prefix_sum(path.end_lifted - 1), path.steps[path.end_lifted]
            pts = tile.region.sample_points(samples_per_tile, seed=rng.u64(idx) & 0xFFFF)
            if any(rep.judge(idx, acts, s, path, shift, step) is False for s in pts):
                continue
        rep.valid += 1
    return rep


def check_apex(model: BilliardModel) -> CheckReport:
    """Each start spoke's maximal path: every telescoped apex point lies in
    the corresponding closed strip."""
    rep = CheckReport("apex", model.document, 0)
    n = model.n

    def contained(path):
        for i, q in enumerate(apex_sequence(path)[1:]):
            if model.system.pair(path.start + i).location(q) < 0:
                return (path.display(), "closed strip containment",
                        f"apex point {i} of {path.display()} outside "
                        f"closed strip {(path.start + i) % n}")
        return None

    for a in range(n):
        rep.judge(a, contained, model.paths.maximal_from(a))
    return rep


def check_structure1(model: BilliardModel) -> CheckReport:
    """Exact bijection between admissible paths and nonempty tiles."""
    rep = CheckReport("structure1", model.document, 0)
    mismatch = link_partition(model.partition, model.paths)
    rep.judge(-1, lambda: mismatch and ("label sets", *map(str, mismatch)))
    unbounded = sum(t.unbounded for t in model.partition.tiles)
    bounded = len(model.partition.tiles) - unbounded
    rep.notes.append(f"paths={len(model.paths.paths)} unbounded_tiles={unbounded} "
                     f"bounded_tiles={bounded}")
    rep.judge(-1, lambda: None if unbounded == 2 * model.n else
              ("unbounded tile count", f"{2 * model.n}", f"{unbounded}"))
    return rep


def check_exit_reversal_conjugate(model: BilliardModel, samples: int = 20,
                                  seed: int = 0) -> CheckReport:
    """Exit characterization (exact region arithmetic, both directions),
    reversal onto the backward partition (exact + sampled labels), and the
    reflected-polygon index laws."""
    rep = CheckReport("exit-reversal-conjugate", model.document, seed)
    tiles = model.partition.tiles

    # exit: a tile is unbounded exactly when its translate meets it
    def exits(tile):
        meets = not tile.region.translate(tile.translation).intersect(tile.region).is_empty
        if meets != tile.unbounded:
            return (f"tile {tile.label}", f"psi(T) meets T iff unbounded ({tile.unbounded})",
                    f"meets = {meets}")
        return None

    # reversal: psi(T+(v,w)) equals the backward tile (w,v), exactly
    def reverses(tile):
        back = model.backward_partition.by_label.get((tile.w_index, tile.v_index))
        if back is None:
            return f"tile {tile.label}", "backward tile (w,v) exists", "missing"
        if tile.region.translate(tile.translation) != back.region:
            return f"tile {tile.label}", "psi(T+) == T-(w,v) as regions", "region mismatch"
        return None

    # sampled labels: the backward label of psi(p) reverses the forward label,
    # each the first run's state of a walk on the lattice triple
    def relabels(p):
        q, lab, _, _ = next(psi_walk(model.polygon, p))
        back_lab = next(psi_walk(model.polygon, q, Chirality.LEFT))[1]
        if back_lab != (lab[1], lab[0]):
            return repr(point_of(p)), f"backward label {(lab[1], lab[0])}", f"{back_lab}"
        return None

    for check in (exits, reverses):
        for tile in tiles:
            rep.judge(-1, check, tile)
    rng = Rng(seed).split(0xEE)
    for i, tile in enumerate(tiles):
        for p in tile_samples(model, tile, max(1, samples // len(tiles)), rng.split(i)):
            rep.judge(i, relabels, p)
    _conjugate_laws(model, rep)
    return rep


def _conjugate_laws(model: BilliardModel, rep: CheckReport):
    """Reflection in the x-axis: strips map by j -> c - j, spokes by
    j -> c + 1 - j (one extra shift), special flags preserved, vectors
    matching up to the orientation of the endpoint correspondence.  Strips
    compare by `PinwheelPair.form`; the reflection of (a, b, c, wn, wq) is
    (a, -b, c, wn, wq).  Spokes compare on the two lattices, of one den."""
    n = model.n
    reflected = NicePolygon.from_points(
        [point_of((X, -Y, model.polygon.den)) for X, Y in model.polygon.lattice])
    other = BilliardModel(reflected)
    theirs = [pair.form for pair in other.system.pairs]
    mine = [(a, -b, c, wn, wq) for a, b, c, wn, wq in (pair.form for pair in model.system.pairs)]
    hits = [k for k in range(n) if theirs[k] == mine[0]]
    if not rep.judge(-1, lambda: None if len(hits) == 1 else
                     ("strip reflection", "unique matching strip", f"{hits}")):
        return
    c = hits[0]
    rep.notes.append(f"conjugate index origin c = {c}")
    mine_at, theirs_at = model.polygon.lattice, other.polygon.lattice

    def reflects(j):
        if theirs[(c - j) % n] != mine[j]:
            return f"strip {j}", f"reflects onto strip {(c - j) % n}", "mismatch"
        k = (c + 1 - j) % n
        s, s2 = model.system.pair(j), other.system.pair(k)
        rt, rh = ((x, -y) for x, y in (mine_at[s.v_index], mine_at[s.w_index]))
        if {theirs_at[s2.v_index], theirs_at[s2.w_index]} != {rt, rh}:
            return f"spoke {j}", f"reflects onto spoke {k}", "endpoint mismatch"
        if s.special != s2.special:
            return f"spoke {j}", "special flag preserved", f"{s2.special}"
        (VX, VY, _), (UX, UY, _) = s.V, s2.V
        plus, minus = ((VX, -VY) == (k * UX, k * UY) for k in (1, -1))
        if not (plus or minus) or plus != (rt == theirs_at[s2.v_index]):
            return (f"spoke {j}", "V reflects onto +-V with matching tails",
                    f"plus={plus} minus={minus}")
        return None

    for j in range(n):
        rep.judge(-1, reflects, j)


def check_necklace_invariance(model: BilliardModel, m: int = 1,
                              samples: int = 24, seed: int = 0,
                              exponent_offset: int = 0) -> CheckReport:
    """Quasirational necklace transfer: each ring copy at exponent m*D_j is
    carried rigidly onto the copy at exponent +-m*D_{j+1} (exact vertex-set
    identity plus sampled membership), and annulus points stay between the
    rings.  exponent_offset != 0 is the harness negative-control hook."""
    rep = CheckReport("necklace-invariance", model.document, seed)
    system = model.system
    quasi = quasi_analyze(system)
    if not quasi.quasirational:
        rep.notes.append("polygon not quasirational; nothing to check")
        return rep
    n = model.n
    rng = Rng(seed).split(0x9E, m)
    per_piece = max(2, samples // (2 * n))
    corners = [(X, Y, system.polygon.den) for X, Y in system.polygon.lattice]
    # one ring per strip: the source of strip j and the target of strip j - 1
    rings = [necklace(system, j, 0) for j in range(n)]

    def lands(here, kind, targets, landings):
        land, _ = strip_jump(targets[0].pair, here)
        hit = [t for t in targets if (t.in_p if kind == "P" else t.in_q)(land)]
        if not hit:
            return (repr(point_of(here)), f"lands in ring copy |{targets[0].m}| of strip "
                                          f"{targets[0].pair.index}", f"{point_of(land)}")
        landings.append((here, land, hit[0]))
        return None

    # rigid-translation identity: the whole copy maps by one vector,
    # (X1 - X0, Y1 - Y0)/L0, onto the target copy, vertex by vertex
    def rigid(ring, kind, landing):
        (X0, Y0, L0), (X1, Y1, _), tgt = landing
        carried = (moved((X * L0, Y * L0, L * L0), (X1 - X0, Y1 - Y0, L0))
                   for X, Y, L in (ring.carry(v, kind) for v in corners))
        if all(X * M == U * L and Y * M == V * L for (X, Y, L), (U, V, M)
               in zip(carried, (tgt.carry(v, kind) for v in corners))):
            return None
        return (f"copy {kind}^{ring.m} of strip {ring.pair.index}",
                "maps rigidly onto the target copy", "vertex sets differ")

    def trapped(here, target):
        land, _ = strip_jump(target.pair, here)
        if in_trapped_extent(target, land):
            return None
        return (repr(point_of(here)), f"between the rings of strip {target.pair.index}",
                f"{point_of(land)}")

    for j in range(n):
        ring = rings[j].at(m * quasi.D_int[j] + exponent_offset)
        target = rings[(j + 1) % n].at(m * quasi.D_int[(j + 1) % n])
        targets = [target, target.at(-target.m)]
        for kind in ("P", "Q"):
            landings = []
            for here in ring.samples(kind, per_piece, seed=rng.u64(4 * j) & 0xFFFF):
                rep.judge(j, lands, here, kind, targets, landings)
            if landings and exponent_offset == 0:
                rep.judge(j, rigid, ring, kind, landings[0])
        # annulus membership transfer: each frame point drawn (`Rng.draw`)
        # strictly inside a window and the strip lies in the annulus
        if exponent_offset == 0:
            ends = [(lo, hi) if lo[0] < hi[0] else None  # both over the ring's one den
                    for lo, hi in ring.window_ends()]
            along, across = rng.split(7, j), rng.split(8, j)
            for t_i in [t_i for t_i in range(6 * per_piece) if ends[t_i % 2]][:per_piece]:
                s_val, off = along.draw(t_i, *ends[t_i % 2]), across.draw(t_i, (0, 1), (1, 1))
                rep.judge(j, trapped, ring.frame_triple(s_val, off), target)
    return rep


# ---------------------------------------------------------------------------
# suite driver and negative controls


CHECKS: Tuple[str, ...] = (
    "structure1", "pinwheel-theorem", "far-field-dichotomy", "structure3",
    "pin1-pin2-move", "apex", "exit-reversal-conjugate", "necklace-invariance",
)


def run_all(polygon: NicePolygon, profile: str = "quick", seed: int = 0,
            samples: Optional[int] = None) -> List[CheckReport]:
    """Run the whole suite on one polygon, timing each check into its
    report's runtime; sample counts follow the profile, or the explicit
    `samples` override."""
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    model = BilliardModel(polygon)
    quick = profile == "quick"

    def count(quick_n, full_n):
        return samples if samples is not None else (quick_n if quick else full_n)

    def timed(check, **kwargs):
        t0 = time.monotonic()
        rep = check(model, **kwargs)
        rep.runtime = time.monotonic() - t0
        return rep

    reports = [
        timed(check_structure1),
        timed(check_pinwheel_theorem, samples=count(40, 200), seed=seed),
        timed(check_far_field, samples=count(60, 400), seed=seed),
        timed(check_structure3, samples=count(30, 120), seed=seed),
        timed(check_pin1_pin2_move, samples_per_tile=6 if quick else 20, seed=seed),
        timed(check_apex),
        timed(check_exit_reversal_conjugate, samples=count(12, 40), seed=seed),
        timed(check_necklace_invariance, m=1, samples=count(12, 30), seed=seed),
    ]
    for rep in reports:
        rate = rep.wall_skip_rate()
        if rate > 0.01:
            rep.fail("wall-skip rate", "<= 1%", f"{rate:.3%}")
    return reports


def negative_controls(polygon: NicePolygon, seed: int = 0) -> List[CheckReport]:
    """Deliberate corruptions that must each produce at least one violation;
    guards the harness against vacuous passes."""
    out = []

    # 1. halve one strip's width: strip containment / the pinwheel budget break
    model = BilliardModel(polygon)
    pair, *rest = model.system.pairs
    wq, wn = primitive(2 * pair.form[4], pair.form[3])  # wq doubled, in lowest terms
    hacked = dataclasses.replace(pair, form=pair.form[:3] + (wn, wq))
    broken = BilliardModel(polygon)
    broken.system = PinwheelSystem(polygon, (hacked, *rest))
    rep = check_structure3(broken, samples=40, seed=seed)
    rep.absorb(check_pinwheel_theorem(broken, samples=40, seed=seed))
    rep.check = "negative-control-halved-strip"
    out.append(rep)

    # 2. flip the terminal step sign of every path: the displacement
    # identity must break (it runs before pin2, so pin2 is never reached)
    def flip(p):
        X, Y, q = p.steps[p.end_lifted]
        return dataclasses.replace(p, steps={**p.steps, p.end_lifted: (-X, -Y, q)})

    flipped = BilliardModel(polygon)
    flipped.paths = PathFamily(model.system, tuple(map(flip, model.paths.paths)))
    rep = check_pin1_pin2_move(flipped, samples_per_tile=6, seed=seed)
    rep.check = "negative-control-flipped-terminal"
    out.append(rep)

    # 3. wrong necklace exponent: the invariance must break
    rep = check_necklace_invariance(model, m=1, samples=16, seed=seed,
                                    exponent_offset=1)
    rep.check = "negative-control-necklace-exponent"
    out.append(rep)
    return out
