"""Acceptance suite: one test per criterion, exact tolerances, no deferrals.

Each test prints a single ACCEPTANCE line; run with `pytest -v` to get the
per-criterion pass/fail listing.  Zero-tolerance criteria use exact
arithmetic; sampled criteria require zero violations at the stated counts.
"""

import time
from fractions import Fraction

import pytest

from oracles import pt, region_area, ring_windows, sigma_range
from test_quasirational import certified_start, oracle_l1_max, psi_l1_max
from outerbilliards.billiards import square_map
from outerbilliards.dynamics import orbit
from outerbilliards.errors import EmptyRegionError
from outerbilliards.generate import random_nice_polygon
from outerbilliards.geometry import point_of
from outerbilliards.model import BilliardModel
from outerbilliards.paths import apex_sequence
from outerbilliards.polygon import NicePolygon
from outerbilliards.quasirational import (
    boundedness_certificate,
    necklace,
    quasi_analyze,
)
from outerbilliards.rng import Rng
from outerbilliards.strips import build_pinwheel_system, strip_map
from outerbilliards.svg import default_viewport, partition_scene, render_scene
from outerbilliards.verify import (
    check_apex,
    check_exit_reversal_conjugate,
    check_far_field,
    check_necklace_invariance,
    check_pin1_pin2_move,
    check_pinwheel_theorem,
    check_structure1,
    check_structure3,
    negative_controls,
    run_all,
)

TRIANGLE = NicePolygon.from_points([pt(0, 0), pt(1, 3), pt(4, 0)])

CORPUS_SEED = 20240
CORPUS_SIZE = 50          # criterion 1: at least 50 random nice polygons
SAMPLES_PER_POLY = 200    # criterion 1: at least 200 samples each
FAR_SAMPLES_PER_POLY = 40  # criterion 2: 50 * 40 = 2000 far samples


def _corpus_polygons():
    polys = []
    i = 0
    while len(polys) < CORPUS_SIZE:
        n = 3 + (i % 5)  # n in 3..7
        polys.append(random_nice_polygon(n, CORPUS_SEED + i))
        i += 1
    return polys


@pytest.fixture(scope="module")
def corpus():
    return [(p, BilliardModel(p)) for p in _corpus_polygons()]


@pytest.fixture(scope="module")
def small_corpus(corpus):
    picked = corpus[::4][:12]
    assert len(picked) >= 12
    return picked


def _announce(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_pinwheel_theorem_suite(corpus):
    t0 = time.monotonic()
    total_valid = 0
    for poly, model in corpus:
        rep = check_pinwheel_theorem(model, samples=SAMPLES_PER_POLY, seed=11)
        assert rep.passed, (poly.to_document(), rep.violations[:2])
        assert rep.valid >= SAMPLES_PER_POLY * 0.98
        assert rep.wall_skip_rate() <= 0.01
        total_valid += rep.valid
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"runtime {elapsed:.0f}s exceeds 5 minutes"
    _announce(1, f"{len(corpus)} polygons, {total_valid} samples, "
                 f"k <= 3n everywhere, {elapsed:.0f}s")


def test_criterion_02_far_field_dichotomy(corpus):
    total = 0
    for poly, model in corpus:
        rep = check_far_field(model, samples=FAR_SAMPLES_PER_POLY, seed=13)
        assert rep.passed, (poly.to_document(), rep.violations[:2])
        total += rep.valid
    assert total >= 2000
    _announce(2, f"{total} far-field samples, k in {{1,2}} with the "
                 f"strip dichotomy, zero violations")


def test_criterion_03_structure1_bijection(corpus):
    for poly, model in corpus:
        rep = check_structure1(model)
        assert rep.passed, poly.to_document()
    tri = BilliardModel(TRIANGLE)
    assert len(tri.paths.paths) == 3
    assert sum(t.unbounded for t in tri.partition.tiles) == 6
    assert sum(not t.unbounded for t in tri.partition.tiles) == 0
    rep = check_structure1(tri)
    assert rep.passed
    _announce(3, f"exact path/tile bijection on {len(corpus)} polygons; "
                 f"triangle: 3 paths, 6 unbounded, 0 bounded")


def test_criterion_04_structure3_pin_move_apex(small_corpus):
    for poly, model in small_corpus:
        rep = check_structure3(model, samples=60, seed=7)
        assert rep.passed, (poly.to_document(), rep.violations[:2])
        rep = check_pin1_pin2_move(model, samples_per_tile=20, seed=7)
        assert rep.passed, (poly.to_document(), rep.violations[:2])
        rep = check_apex(model)
        assert rep.passed, (poly.to_document(), rep.violations[:2])
    _announce(4, f"structure3, pin1 (exact vertices), pin2 (>=20 samples per "
                 f"bounded tile), move (exact), apex on "
                 f"{len(small_corpus)} polygons")


def test_criterion_05_exit_lemma_exact(small_corpus):
    tiles_checked = 0
    for poly, model in small_corpus:
        for tile in model.partition.tiles:
            image = tile.region.translate(tile.translation)
            meets = not image.intersect(tile.region).is_empty
            assert meets == tile.unbounded, (poly.to_document(), tile.label)
            tiles_checked += 1
    _announce(5, f"exact exit characterization on {tiles_checked} tiles "
                 f"(both directions)")


def test_criterion_06_reversal_and_conjugation(small_corpus):
    for poly, model in small_corpus:
        rep = check_exit_reversal_conjugate(model, samples=24, seed=5)
        assert rep.passed, (poly.to_document(), rep.violations[:2])
    _announce(6, f"reversal (exact regions + labels) and reflected-polygon "
                 f"index laws on {len(small_corpus)} polygons")


def test_criterion_07_quasirational_boundedness():
    t0 = time.monotonic()
    count = 0
    seed = 0
    while count < 10:
        poly = random_nice_polygon(5, 9000 + seed)
        seed += 1
        model = BilliardModel(poly)
        quasi = quasi_analyze(model.system)
        assert quasi.quasirational
        for mm in (1, 2, 3):
            rep = check_necklace_invariance(model, m=mm, samples=100, seed=mm)
            assert rep.passed, (poly.to_document(), mm, rep.violations[:2])
            assert rep.valid >= 100
        count += 1
    # a long orbit from a certified start stays within the certified radius
    model = BilliardModel(TRIANGLE)
    quasi = quasi_analyze(model.system)
    ring = necklace(model.system, 0, quasi.D_int[0])
    (a1, b1), _ = ring_windows(ring)
    start = point_of(ring.frame_triple(((a1 + b1) / 2).as_integer_ratio(),
                                       (Fraction(7, 3) / ring.pair.width).as_integer_ratio()))
    assert ring.in_annulus(TRIANGLE.homogeneous(start))
    bounded, radius = boundedness_certificate(model.system, quasi, start, m=1)
    assert bounded
    rec = orbit(model, start, "psi", budget=100_000)
    assert rec.final.tag == "budget-exhausted", rec.final
    for e in rec.events:
        assert abs(e.point.x) + abs(e.point.y) <= radius
    # that orbit has period 3; certified starts on the pentagons above have
    # long ones, walked by label runs (`psi_l1_max`) with both ends of each
    # run within the radius: on 9000 + 0 the orbit returns after 56,231 runs,
    # on 9000 + 1 it does not within 10**5 runs (about 3.5e13 ψ steps).  The
    # runs agree with the stepwise oracle over their first 10**5 states
    for seed, runs in ((0, 56_231), (1, 10 ** 5)):
        poly = random_nice_polygon(5, 9000 + seed)
        system = BilliardModel(poly).system
        quasi = quasi_analyze(system)
        start = certified_start(system, quasi, 0, Rng(3).split(0))
        bounded, radius = boundedness_certificate(system, quasi, start, m=1)
        assert bounded
        top, read = psi_l1_max(poly, start, radius)
        assert read == runs
        assert oracle_l1_max(poly, start, 10 ** 5) <= top
    with pytest.raises(AssertionError):  # control: a radius just below the max trips
        psi_l1_max(poly, start, top * Fraction(10 ** 6 - 1, 10 ** 6))
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"runtime {elapsed:.0f}s exceeds 10 minutes"
    _announce(7, f"10 rational polygons, m in {{1,2,3}}, >=100 samples each, "
                 f"zero violations; 100000-step orbit within radius; "
                 f"certified orbits of 56231 and 100000 label runs within radius, "
                 f"{elapsed:.0f}s")


def test_criterion_08_worked_example_regressions():
    # square map at (8,-2)
    q, label = square_map(TRIANGLE, pt(8, -2))
    assert q == pt(10, 4)
    assert (TRIANGLE.vertices[label[0]], TRIANGLE.vertices[label[1]]) == (
        pt(0, 0), pt(1, 3))
    # overlap parallelogram area, two independent routes
    system = build_pinwheel_system(TRIANGLE)
    r = sigma_range(system, 0, 2)
    assert region_area(r) == 48
    assert quasi_analyze(system).areas[0] == 48
    # one-step-closer strip map example
    assert point_of(strip_map(system.pair(0), TRIANGLE.homogeneous(pt(0, 13)))) == pt(-2, 7)
    _announce(8, "psi(8,-2) = (10,4) with label ((0,0),(1,3)); "
                 "overlap area 48; strip step (0,13) -> (-2,7)")


def test_criterion_09_determinism(tmp_path, capsys):
    from outerbilliards.cli import main

    argv = ["verify", "--random", "n=5 count=3", "--profile", "quick",
            "--seed", "77"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    model = BilliardModel(random_nice_polygon(5, 31))
    vp = default_viewport(model)
    svg1 = render_scene(partition_scene(model), viewport=vp)
    svg2 = render_scene(partition_scene(BilliardModel(model.polygon)), viewport=vp)
    assert svg1 == svg2
    _announce(9, "verify output and SVG byte-identical across runs")


def test_criterion_10_negative_controls():
    poly = random_nice_polygon(5, 77)  # has bounded tiles: all controls apply
    reports = negative_controls(poly, seed=3)
    assert len(reports) == 3
    for rep in reports:
        assert rep.attempted > 0, rep.check
        assert not rep.passed, f"{rep.check} failed to trip"
    _announce(10, "halved strip, flipped terminal step, wrong necklace "
                  "exponent each trip at least one check")
