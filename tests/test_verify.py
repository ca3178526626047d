"""The verification harness itself: determinism, sensitivity, generation."""

import dataclasses
import hashlib
import inspect
import json
import textwrap
from fractions import Fraction
from itertools import islice, repeat

import pytest

from oracles import halved, point_route_structure2, point_strip_approach, point_tile_samples, pt
from outerbilliards import dynamics, strips, verify
from outerbilliards.dynamics import pinwheel_theorem_step
from outerbilliards.billiards import Chirality, Partition
from outerbilliards.errors import (
    BudgetExceededError,
    GenerationFailedError,
    MapUndefinedError,
    OnStripBoundaryError,
    UndefinedOnWallError,
)
from outerbilliards.generate import random_nice_polygon
from outerbilliards.geometry import Point, moved, point_of, vec_of
from outerbilliards.model import BilliardModel
from outerbilliards.paths import AdmissiblePath, PathFamily, enumerate_paths
from outerbilliards.polygon import NicePolygon, parse_polygon, polygon_to_text
from outerbilliards.report import CheckReport, Violation
from outerbilliards.rng import Rng
from outerbilliards.scalars import quadext, ratio
from outerbilliards.strips import PinwheelSystem
from test_billiards import CORPUS, corpus_polygon
from outerbilliards.verify import (
    check_apex,
    check_exit_reversal_conjugate,
    check_far_field,
    check_pin1_pin2_move,
    check_pinwheel_theorem,
    check_structure1,
    check_structure3,
    negative_controls,
    run_all,
    tile_samples,
)

TRIANGLE = NicePolygon.from_points([pt(0, 0), pt(1, 3), pt(4, 0)])


def penrose_kite():
    # the Penrose kite K(sqrt 5 - 2) of Schwartz, a nice polygon over Q(sqrt 5)
    return NicePolygon.from_points(
        [Point(Fraction(-1), Fraction(0)), Point(Fraction(0), Fraction(1)),
         Point(quadext(-2, 1, 5), Fraction(0)), Point(Fraction(0), Fraction(-1))],
        quad_d=5)


def test_random_polygon_is_valid_and_deterministic():
    for n in (3, 5, 8, 12):
        p1 = random_nice_polygon(n, seed=42)
        p2 = random_nice_polygon(n, seed=42)
        assert p1.n == n
        assert p1 == p2
        assert parse_polygon(polygon_to_text(p1)) == p1
        assert p1 != random_nice_polygon(n, seed=43)


def test_random_polygon_respects_bound():
    p = random_nice_polygon(6, seed=1, bound=10)
    for v in p.vertices:
        assert abs(v.x) <= 10 and abs(v.y) <= 10


def test_random_polygon_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_nice_polygon(2, seed=0)
    with pytest.raises(ValueError):
        random_nice_polygon(13, seed=0)
    with pytest.raises(ValueError):
        random_nice_polygon(5, seed=0, bound=0)


def test_structure1_reports_triangle_counts():
    rep = check_structure1(BilliardModel(TRIANGLE))
    assert rep.passed
    assert any("paths=3" in note and "unbounded_tiles=6" in note
               and "bounded_tiles=0" in note for note in rep.notes)


def test_structure1_reports_a_dropped_path():
    """Negative control: a path family with one path dropped, assigned to
    `model.paths`, is reported as a label-set violation, not raised."""
    model = BilliardModel(random_nice_polygon(5, 77))
    full = model.paths
    model.paths = PathFamily(model.system, full.paths[1:])
    rep = check_structure1(model)
    assert not rep.passed
    assert [(v.expected, v.actual) for v in rep.violations] == [
        (f"{sorted(model.paths.by_endpoints)}", f"{sorted(full.by_endpoints)}")]
    assert rep.violations[0].input == "label sets"


def test_quick_suite_passes_on_mixed_polygons():
    for poly in (TRIANGLE, random_nice_polygon(4, 7), random_nice_polygon(6, 19)):
        for rep in run_all(poly, "quick", seed=3):
            assert rep.passed, (rep.check, rep.violations[:2])


def test_run_all_serializes_the_polygon_once(monkeypatch):
    """`run_all` builds one model, and its eight reports share the model's
    one polygon document, equal to `to_document()`."""
    calls = []
    to_document = NicePolygon.to_document
    monkeypatch.setattr(NicePolygon, "to_document",
                        lambda self: calls.append(self) or to_document(self))
    reports = run_all(TRIANGLE, "full")
    assert calls == [TRIANGLE]
    assert all(rep.polygon is reports[0].polygon for rep in reports)
    assert reports[0].polygon == to_document(TRIANGLE)


def test_checks_are_deterministic():
    m = BilliardModel(random_nice_polygon(5, 31))
    a = check_pinwheel_theorem(m, samples=30, seed=9)
    b = check_pinwheel_theorem(BilliardModel(m.polygon), samples=30, seed=9)
    assert a.to_json() == b.to_json()
    a = check_far_field(m, samples=50, seed=9)
    b = check_far_field(m, samples=50, seed=9)
    assert a.to_json() == b.to_json()


def test_reports_never_serialize_runtime():
    for rep in run_all(TRIANGLE, "quick", samples=4):
        assert rep.runtime is not None
        assert "runtime" not in rep.to_json()


def test_wall_skip_rate_low():
    m = BilliardModel(random_nice_polygon(6, 23))
    rep = check_pinwheel_theorem(m, samples=60, seed=0)
    assert rep.wall_skip_rate() <= 0.01


def test_negative_controls_all_trip():
    reports = negative_controls(random_nice_polygon(5, 77), seed=2)
    assert len(reports) == 3
    for rep in reports:
        assert not rep.passed, rep.check


def test_individual_checks_pass_on_hexagon_with_special_spoke():
    hexagon = NicePolygon.from_points(
        [pt(0, 0), pt(-2, 3), pt(1, 6), pt(5, 5), pt(8, 1), pt(4, -2)])
    m = BilliardModel(hexagon)
    assert any(s.special for s in m.system.pairs)
    assert check_structure3(m, samples=30, seed=1).passed
    assert check_pin1_pin2_move(m, samples_per_tile=8, seed=1).passed
    assert check_apex(m).passed
    assert check_exit_reversal_conjugate(m, samples=12, seed=1).passed


def _negated(v):
    """-v for the vector with triple v = (VX, VY, q)."""
    VX, VY, q = v
    return -VX, -VY, q


def test_violations_carry_replay_information():
    m = BilliardModel(random_nice_polygon(5, 77))
    m.paths = PathFamily(m.system, tuple(
        dataclasses.replace(p, steps={**p.steps, p.end_lifted: _negated(p.steps[p.end_lifted])})
        for p in enumerate_paths(m.system).paths))
    rep = check_pin1_pin2_move(m, samples_per_tile=4, seed=5)
    assert not rep.passed
    v = rep.violations[0]
    assert v.input and v.expected and v.actual
    assert rep.seed == 5


def test_flipped_terminal_control_trips_the_displacement_identity():
    """The flipped terminal step breaks the displacement identity, which is
    checked before pin2: every violation on criterion 10's polygon is a
    displacement one (pin2 is tripped by the negated translations below)."""
    controls = {rep.check: rep for rep in negative_controls(random_nice_polygon(5, 77), seed=3)}
    rep = controls["negative-control-flipped-terminal"]
    assert rep.violations
    assert all(v.expected.startswith("displacement ") for v in rep.violations)


def _raise(exc):
    raise exc


def test_judge_counts_valid_violation_and_wall_skip():
    rep = CheckReport("c", {}, 0)
    assert rep.judge(1, lambda: None) is True
    assert rep.judge(2, lambda x: ("in", "want", f"got {x}"), 7) is False
    assert rep.judge(3, _raise, OnStripBoundaryError(pt(0, 0), stage=1)) is None
    assert rep.judge(4, _raise, UndefinedOnWallError(pt(1, 0), stage=2)) is None
    assert rep.judge(5, lambda: None) is True
    assert (rep.attempted, rep.valid, rep.wall_skipped) == (5, 2, 2)
    assert rep.violations == [Violation(2, "in", "want", "got 7")]


@pytest.mark.parametrize("exc", [BudgetExceededError(9), AssertionError("broken")])
def test_judge_propagates_errors_that_are_not_walls(exc):
    rep = CheckReport("c", {}, 0)
    with pytest.raises(type(exc)):
        rep.judge(1, _raise, exc)
    assert (rep.valid, rep.wall_skipped, rep.violations) == (0, 0, [])


def test_absorb_sums_counts_and_violations():
    first, second = Violation(1, "a", "b", "c"), Violation(2, "d", "e", "f")
    rep = CheckReport("one", {}, 0, attempted=5, valid=3, wall_skipped=1, violations=[first])
    rep.absorb(CheckReport("two", {}, 4, attempted=7, valid=4, wall_skipped=2,
                           violations=[second]))
    assert (rep.attempted, rep.valid, rep.wall_skipped) == (12, 7, 3)
    assert rep.violations == [first, second]
    assert (rep.check, rep.seed) == ("one", 0)


@pytest.mark.parametrize("kite_key", ["sqrt5_kite", "penrose_kite"])
def test_quadratic_kites_pass_suite_and_trip_controls(kite_key):
    from test_quasirational import sqrt5_kite

    kite = {"sqrt5_kite": sqrt5_kite, "penrose_kite": penrose_kite}[kite_key]()
    reports = {rep.check: rep for rep in run_all(kite, "quick", seed=0)}
    for rep in reports.values():
        assert rep.passed, (rep.check, rep.violations[:2])
    assert reports["far-field-dichotomy"].valid > 0
    controls = {rep.check: rep for rep in negative_controls(kite, seed=0)}
    assert not controls["negative-control-halved-strip"].passed
    assert not controls["negative-control-flipped-terminal"].passed
    necklace = controls["negative-control-necklace-exponent"]
    assert necklace.attempted == 0  # not quasirational: nothing to corrupt


def _count_psi_walks(monkeypatch, check, samples):
    """`check` run on a heptagon model with `billiards.psi_walk` counted,
    the partition (and its own classifications) built first: (report,
    walks started)."""
    from outerbilliards import billiards

    model = BilliardModel(random_nice_polygon(7, 3))
    model.partition
    calls = []
    real = billiards.psi_walk

    def counted(polygon, p, chirality):
        calls.append(p)
        return real(polygon, p, chirality)

    monkeypatch.setattr(billiards, "psi_walk", counted)
    return check(model, samples=samples, seed=0), len(calls)


def test_far_field_evaluates_psi_once_per_sample(monkeypatch):
    """p's tile and psi(p)'s are the first two states of one ψ walk, inside
    the pinwheel theorem step: one walk per sample, not two."""
    rep, walks = _count_psi_walks(monkeypatch, check_far_field, 50)
    assert rep.attempted == 50 and rep.valid == 50
    assert walks == 50


def test_structure3_evaluates_psi_once_per_sample(monkeypatch):
    """Structure 3 reads p's tile and q = psi(p)'s off one ψ walk too."""
    rep, walks = _count_psi_walks(monkeypatch, check_structure3, 40)
    assert rep.attempted == rep.valid > 0
    assert walks == rep.attempted


def test_wrong_landing_tile_trips_the_region_assertion(monkeypatch):
    """Negative control for the region assertion kept on psi(p): a partition
    whose `by_label` sends psi(p)'s label to p's own tile must raise in the
    theorem step and in Structure 3, though p still classifies."""
    model = BilliardModel(random_nice_polygon(7, 3))
    tile = next(t for t in model.partition.tiles if not t.unbounded)
    p = tile_samples(model, tile, 1, Rng(0))[0]
    pinwheel_theorem_step(model, p)
    (_, first), (_, landing) = islice(model.partition.walk(p), 2)
    assert first is tile and landing is not tile
    monkeypatch.setitem(model.partition.by_label, landing.label, tile)
    assert model.partition.classify(p) is tile
    with pytest.raises(AssertionError, match="labels tile"):
        pinwheel_theorem_step(model, p)
    with pytest.raises(AssertionError, match="labels tile"):
        check_structure3(model, samples=40, seed=0)


@pytest.mark.parametrize("n, seed", [(5, 1), (7, 3), (3, 1)])
def test_far_field_records_an_exceeded_budget(n, seed):
    """A model that breaks k <= 3n (pair 0's V negated) is a far-field
    violation, recorded as the pinwheel-theorem check records it, and the
    check goes on sampling; the true model passes."""
    polygon = random_nice_polygon(n, seed)
    model = BilliardModel(polygon)
    assert check_far_field(model, samples=20, seed=0).passed
    pair, *rest = model.system.pairs
    broken = BilliardModel(polygon)
    broken.system = PinwheelSystem(polygon, (dataclasses.replace(pair, V=_negated(pair.V)), *rest))
    rep = check_far_field(broken, samples=20, seed=0)
    assert rep.attempted == 20
    assert any((v.expected, v.actual) == (f"k <= {3 * n}", "budget exceeded")
               for v in rep.violations)


# controls for checks the shipped negative controls never trip: each
# corruption must produce its own violation, and the check passes without it


def _reorder_prefix_sums(monkeypatch):
    """Every path's prefix sums, all but the last, in reverse order: the
    displacement holds, the telescoped points on the way do not."""
    sums = AdmissiblePath.prefix_sums.func
    monkeypatch.setattr(AdmissiblePath, "prefix_sums",
                        property(lambda path: sums(path)[-2::-1] + sums(path)[-1:]))


@pytest.mark.parametrize("n", [4, 5, 7, 12])
def test_reordered_prefix_sums_trip_the_planar_trace(monkeypatch, n):
    model = BilliardModel(random_nice_polygon(n, n))
    assert check_pinwheel_theorem(model, samples=40, seed=0).passed
    _reorder_prefix_sums(monkeypatch)
    rep = check_pinwheel_theorem(model, samples=40, seed=0)
    assert any(v.expected.startswith("planar trace ") for v in rep.violations)


# n -> the first violation's (expected, actual) texts, recorded while pin2
# subtracted the Points of its triples
PIN2_FIRST = {
    4: ("mu_0 adds Vec(x=Fraction(-9, 1), y=Fraction(26, 1))",
        "Vec(x=Fraction(9, 1), y=Fraction(-26, 1))"),
    5: ("mu_0 adds Vec(x=Fraction(14, 5), y=Fraction(174, 5))",
        "Vec(x=Fraction(-14, 5), y=Fraction(-174, 5))"),
    6: ("mu_2 adds Vec(x=Fraction(-22, 1), y=Fraction(74, 3))",
        "Vec(x=Fraction(22, 1), y=Fraction(-74, 3))"),
    7: ("mu_2 adds Vec(x=Fraction(-372, 7), y=Fraction(36, 7))",
        "Vec(x=Fraction(372, 7), y=Fraction(-36, 7))"),
    8: ("mu_5 adds Vec(x=Fraction(-1300, 27), y=Fraction(-620, 27))",
        "Vec(x=Fraction(1300, 27), y=Fraction(620, 27))"),
    9: ("mu_3 adds Vec(x=Fraction(-40, 1), y=Fraction(4820, 153))",
        "Vec(x=Fraction(40, 1), y=Fraction(-4820, 153))"),
    10: ("mu_6 adds Vec(x=Fraction(-48, 1), y=Fraction(-32, 1))",
         "Vec(x=Fraction(48, 1), y=Fraction(32, 1))"),
    11: ("mu_8 adds Vec(x=Fraction(-13140, 253), y=Fraction(-11200, 253))",
         "Vec(x=Fraction(13140, 253), y=Fraction(11200, 253))"),
    12: ("mu_9 adds Vec(x=Fraction(-515, 11), y=Fraction(-570, 11))",
         "Vec(x=Fraction(515, 11), y=Fraction(570, 11))"),
}


@pytest.mark.parametrize("n", range(4, 13))
def test_negated_translations_trip_pin2(n):
    polygon = random_nice_polygon(n, n)
    model = BilliardModel(polygon)
    assert check_pin1_pin2_move(model, samples_per_tile=6, seed=0).passed
    system = model.system
    negated = PinwheelSystem(polygon, tuple(dataclasses.replace(p, V=_negated(p.V))
                                            for p in system.pairs))
    broken = BilliardModel(polygon)
    broken.system = negated
    rep = check_pin1_pin2_move(broken, samples_per_tile=6, seed=0)
    assert any(v.expected.startswith("mu_") and " adds " in v.expected
               for v in rep.violations)
    assert (rep.violations[0].expected, rep.violations[0].actual) == PIN2_FIRST[n]


@pytest.mark.parametrize("n", [3, 5, 8])
def test_halved_strip_trips_the_strip_reflection_law(n):
    """Pair 0's width halved: no strip of the reflected polygon is the
    reflection of strip 0, so the conjugate laws report it; the true model
    passes."""
    polygon = random_nice_polygon(n, n)
    model = BilliardModel(polygon)
    assert check_exit_reversal_conjugate(model, samples=8, seed=0).passed
    pair, *rest = model.system.pairs
    broken = BilliardModel(polygon)
    broken.system = PinwheelSystem(polygon, (halved(pair), *rest))
    rep = check_exit_reversal_conjugate(broken, samples=8, seed=0)
    assert [v.input for v in rep.violations] == ["strip reflection"]


def test_moving_strip_map_trips_the_index_shift(monkeypatch):
    """A strip map that translates every point, inside its strip too, must
    show up as Structure 3's index shift moving psi(p)."""
    model = BilliardModel(random_nice_polygon(6, 6))
    assert check_structure3(model, samples=40, seed=0).passed

    def moving(pair, p):
        if type(p) is tuple:
            (X, Y, L), (VX, VY, q) = p, pair.V
            return X + VX * (L // q), Y + VY * (L // q), L
        return p + vec_of(pair.V)

    monkeypatch.setattr(dynamics, "strip_map", moving)
    rep = check_structure3(model, samples=40, seed=0)
    assert any(v.actual == "pinwheel map moved the point during index shift"
               for v in rep.violations)


def test_pinwheel_theorem_check_walks_each_orbit_once(monkeypatch):
    """Structure 2 is read off the theorem step's orbit: every strip map the
    check applies runs inside `pinwheel_theorem_step`."""
    model = BilliardModel(random_nice_polygon(6, 23))
    model.partition
    depth, inside, outside = [0], [], []
    real_map = strips.strip_map

    def counted(pair, p):
        (inside if depth[0] else outside).append(p)
        return real_map(pair, p)

    def step(model, p):
        depth[0] += 1
        try:
            return pinwheel_theorem_step(model, p)
        finally:
            depth[0] -= 1

    for module in (strips, dynamics, verify):
        if vars(module).get("strip_map") is real_map:
            monkeypatch.setattr(module, "strip_map", counted)
    monkeypatch.setattr(verify, "pinwheel_theorem_step", step)
    assert check_pinwheel_theorem(model, samples=60, seed=0).passed
    assert inside and not outside


@pytest.mark.parametrize("poly_key", [k for k in CORPUS if k not in ("triangle", "n3")])
def test_structure2_matches_point_route(monkeypatch, poly_key):
    """Structure 2 read off the theorem step's lattice orbit equals the
    Point-route walk (`oracles.point_route_structure2`) on bounded-tile
    samples, on the true system and with every path's prefix sums
    reordered.  Triangles have no bounded tiles."""
    model = BilliardModel(corpus_polygon(poly_key))
    rng = Rng(3).split(model.n)
    cases = []
    for t_i, tile in enumerate(model.partition.tiles):
        if tile.unbounded:
            continue
        for p in tile_samples(model, tile, 2, rng.split(t_i)):
            try:
                cases.append((tile, p, pinwheel_theorem_step(model, p)))
            except MapUndefinedError:
                continue
    assert cases

    def outcomes():
        return [(verify._structure2_realization(model, tile, p, orbit),
                 point_route_structure2(model, tile, point_of(p), point_of(q)))
                for tile, p, (q, orbit, _) in cases]

    assert all(got is None and want is None for got, want in outcomes())
    _reorder_prefix_sums(monkeypatch)
    for got, want in outcomes():
        assert got is not None and got == want


@pytest.mark.parametrize("poly_key", CORPUS)
def test_samples_beyond_k_match_point_route(poly_key, monkeypatch):
    """The samples beyond K, born as lattice triples, equal in value and
    scalar type those of the Point route (`oracles.point_tile_samples`,
    `oracles.point_strip_approach`): every unbounded tile's `tile_samples`
    for counts 1-6 and three seeds, at the default radii scale and the far
    radius, and every strip-approach point `check_pinwheel_theorem` hands to
    ψ⁻¹, over Q and Q(sqrt 5)."""
    model = BilliardModel(corpus_polygon(poly_key))
    far = dynamics.far_radius(model, factor=1)
    unbounded = [t for t in model.partition.tiles if t.unbounded]
    assert len(unbounded) == 2 * model.n
    for seed in (0, 1, 5):
        for t_i, tile in enumerate(unbounded):
            for count in range(1, 7):
                r = Rng(seed).split(t_i, count)
                for scale, radius in (((), ()), ((far,), (ratio(*far),))):
                    got = tuple(map(point_of, verify.tile_samples(model, tile, count, r, *scale)))
                    want = tuple(point_tile_samples(tile, count, r, *radius))
                    assert repr(got) == repr(want), (seed, tile.label, count, scale)
        starts = []
        walk = verify.psi_walk

        def recording(polygon, here, *chirality):
            starts.append(point_of(here))
            return walk(polygon, here, *chirality)

        monkeypatch.setattr(verify, "psi_walk", recording)
        check_pinwheel_theorem(model, samples=1, seed=seed)
        monkeypatch.setattr(verify, "psi_walk", walk)
        assert repr(starts) == repr(point_strip_approach(model, seed))


@pytest.mark.parametrize("owner, name, edits", [
    (Rng, "draw", [("one = lo, hi, 2 << 32", "one = lo, hi, 1 << 32")]),
    (verify, "tile_samples", [("rng.split(11, i), i)", "rng, i)"),
                              ("rng.draw(1000 + i,", "rng.split(11, i).draw(1000 + i,")]),
], ids=["halved-denominator", "swapped-streams"])
def test_sample_parity_catches_broken_draws(monkeypatch, owner, name, edits):
    """Negative controls: draws over 2^32 in place of 2^33, and the ray
    samples' base point and distance drawn from each other's streams, must
    each fail the parity test."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    namespace = dict(vars(inspect.getmodule(getattr(owner, name))))
    for old, new in edits:
        assert source.count(old) == 1
        source = source.replace(old, new)
    exec(source, namespace)
    monkeypatch.setattr(owner, name, namespace[name])
    with pytest.raises(AssertionError):
        test_samples_beyond_k_match_point_route("n5", monkeypatch)


# sha256 of `run_all(polygon, profile="full", seed=1)`'s reports as compact
# sorted-key JSON, on four of the benchmark's verify polygons: the seeded
# random n5 and n12 (`random_nice_polygon(n, 7000 + 10 * n)`) and the kite with
# apex sqrt 5, recorded before the sampled checks drew their samples as
# lattice triples and read p's tile and psi(p)'s off one ψ walk; and the
# Penrose kite, whose unbounded tiles draw their ray samples over Q(sqrt 5),
# recorded while those samples and the strip-approach points were Points
FULL_PROFILE_GOLDEN = {
    5: "fa5fbd5f6929801a2f81f571dad81b37aaba2c8a31bbdb1e6b8c2340757edf70",
    12: "2117074058eac2e7e3fc68db05c81ac2c05a731693a139e5e93ba313251ae299",
    "sqrt5_kite": "523b46354fb686652d3956d28929d7e34e908b36a33715873716ceaca50bd436",
    "penrose_kite": "5bb301e3c1580b79c2aaff383d907530480cb987e3a3a51f2ce025048230ea74",
}


@pytest.mark.parametrize("key", list(FULL_PROFILE_GOLDEN))
def test_full_profile_reports_golden(key):
    polygon = (corpus_polygon(key) if isinstance(key, str)
               else random_nice_polygon(key, 7000 + 10 * key))
    reports = run_all(polygon, profile="full", seed=1)
    text = json.dumps([r.to_json() for r in reports], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_PROFILE_GOLDEN[key]


# ---------------------------------------------------------------------------
# every verdict a check can return trips: one corruption per verdict, made as
# `negative_controls` makes its own (a model's system, paths or partitions
# assigned) or by patching a name `verify` imports; the true model passes


def _pairs(model, change, j=None):
    """The model's system with `change` applied to pair j (every pair for
    None), assigned after its paths are built on the true one."""
    model.paths
    model.system = PinwheelSystem(model.polygon, tuple(
        change(p) if j is None or p.index == j else p for p in model.system.pairs))


def _far_line_first(pair):
    """The same closed strip written from its far line: offset wq*t - wn*L
    over the width -wn*L, so every point of it is 'deeper than half'."""
    a, b, c, wn, wq = pair.form
    return dataclasses.replace(pair, form=(a * wq, b * wq, c * wq + wn, -wn * wq, wq))


def _patched(monkeypatch, name, wrap):
    """verify's `name` replaced by wrap(its real value)."""
    monkeypatch.setattr(verify, name, wrap(getattr(verify, name)))


def _backward_as_forward(real):
    """A ψ walk that walks ψ for either chirality."""
    def walk(polygon, here, chirality=None):
        return real(polygon, here)
    return walk


def _orbit_changed(change):
    """A theorem step whose (psi(p), orbit, a) goes through `change`."""
    return lambda real: lambda model, p: change(*real(model, p))


def _on_boundary(system, here, index):
    raise OnStripBoundaryError(point_of(here), stage=index)
    yield


def _jump_landing(move):
    """A strip jump whose landing goes through move(pair, landing)."""
    def wrap(real):
        def jump(pair, p):
            land, k = real(pair, p)
            return move(pair, land), k
        return jump
    return wrap


def _raise_wall(model, p):
    raise OnStripBoundaryError(point_of(p), stage=0)


# id -> (corruption, check, expected, a part of the actual text), on
# random_nice_polygon(5, 5); the expected texts that name an index or a label
# were read off the corrupted runs.  Far-field samples land inside a strip
# (k = 2) rarely: the first of the 400 is sample 287
VERDICTS = {
    "structure2-not-reached": (
        lambda m, mp: setattr(m, "paths", PathFamily(m.system, tuple(
            dataclasses.replace(p, end_lifted=p.end_lifted - 1) if p.span else p
            for p in m.paths.paths))),
        lambda m: check_pinwheel_theorem(m, samples=20, seed=0),
        "(psi(p), b-1) within 10 pinwheel steps", "not reached"),
    "far-field-k": (
        lambda m, mp: _patched(mp, "pinwheel_theorem_step", _orbit_changed(
            lambda q, orbit, a: (q, orbit + orbit[-1:] * 2, a))),
        lambda m: check_far_field(m, samples=10, seed=0), "k in {1, 2}", "k = "),
    "far-field-strip-iff": (
        lambda m, mp: _patched(mp, "pinwheel_theorem_step", _orbit_changed(
            lambda q, orbit, a: (q, orbit[-1:], a))),
        lambda m: check_far_field(m, samples=400, seed=0),
        "k = 2 iff psi(p) inside a strip", "k = 1, strips = ["),
    "far-field-landing-strip": (
        lambda m, mp: _patched(mp, "pinwheel_theorem_step", _orbit_changed(
            lambda q, orbit, a: (q, orbit, a + 1))),
        lambda m: check_far_field(m, samples=400, seed=0), "landing strip = 0", "strips = ["),
    "structure3-boundary": (
        lambda m, mp: mp.setattr(verify, "pinwheel_walk", _on_boundary),
        lambda m: check_structure3(m, samples=10, seed=0),
        "containment and index shift", "strip boundary during index shift"),
    "structure3-not-shifted": (
        lambda m, mp: mp.setattr(verify, "pinwheel_walk",
                                 lambda system, here, index: repeat((here, index))),
        lambda m: check_structure3(m, samples=10, seed=0),
        "containment and index shift", "index not shifted to "),
    "pin1-containment": (
        lambda m, mp: _pairs(m, halved),
        lambda m: check_pin1_pin2_move(m, samples_per_tile=2, seed=0),
        "closed containments", ") outside strip "),
    "pin1-depth": (
        lambda m, mp: _pairs(m, _far_line_first),
        lambda m: check_pin1_pin2_move(m, samples_per_tile=2, seed=0),
        "closed containments", " deeper than half the width of strip "),
    "apex": (
        lambda m, mp: _pairs(m, halved), check_apex,
        "closed strip containment", "apex point 0 of "),
    "exit": (
        lambda m, mp: setattr(m, "partition", Partition(m.polygon, Chirality.RIGHT, tuple(
            dataclasses.replace(t, translation=(0, 0, 1)) for t in m.partition.tiles))),
        lambda m: check_exit_reversal_conjugate(m, samples=4, seed=0),
        "psi(T) meets T iff unbounded (False)", "meets = True"),
    "reversal-missing": (
        lambda m, mp: setattr(m, "backward_partition", Partition(
            m.polygon, Chirality.LEFT, m.backward_partition.tiles[1:])),
        lambda m: check_exit_reversal_conjugate(m, samples=4, seed=0),
        "backward tile (w,v) exists", "missing"),
    "reversal-region": (
        lambda m, mp: setattr(m, "backward_partition", m.partition),
        lambda m: check_exit_reversal_conjugate(m, samples=4, seed=0),
        "psi(T+) == T-(w,v) as regions", "region mismatch"),
    "relabel": (
        lambda m, mp: _patched(mp, "psi_walk", _backward_as_forward),
        lambda m: check_exit_reversal_conjugate(m, samples=4, seed=0),
        "backward label (1, 0)", "("),
    "conjugate-strip": (
        lambda m, mp: _pairs(m, halved, 1),
        lambda m: check_exit_reversal_conjugate(m, samples=4, seed=0),
        "reflects onto strip 3", "mismatch"),
    "conjugate-spoke": (
        lambda m, mp: _pairs(m, lambda p: dataclasses.replace(p, w_index=(p.w_index + 1) % 5), 1),
        lambda m: check_exit_reversal_conjugate(m, samples=4, seed=0),
        "reflects onto spoke 4", "endpoint mismatch"),
    "conjugate-special": (
        lambda m, mp: _pairs(m, lambda p: dataclasses.replace(p, special=not p.special), 1),
        lambda m: check_exit_reversal_conjugate(m, samples=4, seed=0),
        "special flag preserved", ""),
    "conjugate-V": (
        lambda m, mp: _pairs(m, lambda p: dataclasses.replace(p, V=moved(p.V, p.V)), 1),
        lambda m: check_exit_reversal_conjugate(m, samples=4, seed=0),
        "V reflects onto +-V with matching tails", "plus=False minus=False"),
    "necklace-rigid": (
        lambda m, mp: _patched(mp, "strip_jump", _jump_landing(  # 1/L further along x
            lambda pair, q: (q[0] + 1, q[1], q[2]))),
        lambda m: verify.check_necklace_invariance(m, samples=10, seed=0),
        "maps rigidly onto the target copy", "vertex sets differ"),
    "necklace-trapped": (
        lambda m, mp: _patched(mp, "strip_jump", _jump_landing(  # one translation too many
            lambda pair, q: moved(q, pair.V))),
        lambda m: verify.check_necklace_invariance(m, samples=10, seed=0),
        "between the rings of strip 1", "Point("),
    "wall-skip-gate": (
        lambda m, mp: mp.setattr(verify, "pinwheel_theorem_step", _raise_wall),
        lambda m: run_all(m.polygon, "quick", seed=0)[1], "<= 1%", "100.000%"),
}


@pytest.mark.parametrize("verdict", list(VERDICTS))
def test_every_verdict_trips(monkeypatch, verdict):
    corrupt, check, expected, actual = VERDICTS[verdict]
    polygon = random_nice_polygon(5, 5)
    assert check(BilliardModel(polygon)).passed
    model = BilliardModel(polygon)
    corrupt(model, monkeypatch)
    rep = check(model)
    hits = [v for v in rep.violations if v.expected == expected]
    assert hits and all(actual in v.actual for v in hits), rep.violations[:3]
