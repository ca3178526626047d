"""Admissible path enumeration and its exact link to the partition."""

import inspect
import textwrap
from fractions import Fraction

import pytest

from oracles import (pair_V, path_apex_points, path_displacement, path_prefix_sums, path_steps,
                     pt, region_area, scale, signed_offset, sub, tile_translation, vec)
from test_billiards import CORPUS, corpus_polygon
from outerbilliards import paths
from outerbilliards.errors import IndexOutOfRangeError, NotAdmissiblePairError
from outerbilliards.geometry import homogeneous, point_of, vec_of
from outerbilliards.generate import random_nice_polygon
from outerbilliards.model import BilliardModel
from outerbilliards.paths import AdmissiblePath, PathFamily, apex_sequence
from outerbilliards.polygon import NicePolygon
from outerbilliards.scalars import QuadExt

TRIANGLE = NicePolygon.from_points([pt(0, 0), pt(1, 3), pt(4, 0)])
HEXAGON = NicePolygon.from_points(
    [pt(0, 0), pt(-2, 3), pt(1, 6), pt(5, 5), pt(8, 1), pt(4, -2)])


def models():
    yield BilliardModel(TRIANGLE)
    yield BilliardModel(HEXAGON)
    for n in (4, 5, 6, 7):
        yield BilliardModel(random_nice_polygon(n, seed=11 * n + 2))


def test_triangle_exactly_three_length_one_paths():
    m = BilliardModel(TRIANGLE)
    assert len(m.paths.paths) == 3
    assert all(p.length == 1 for p in m.paths.paths)
    # cross-check: 6 unbounded tiles, two per path
    assert len(m.partition.tiles) == 6


def test_paths_are_odd_and_do_not_wrap():
    for m in models():
        for p in m.paths.paths:
            assert p.length % 2 == 1
            assert 0 <= p.span < m.n
            assert p.first_vertex_index != p.last_vertex_index


def test_interior_skipped_spokes_are_exactly_the_special_ones():
    for m in models():
        for p in m.paths.paths:
            involved = set(p.involved)
            for i in range(p.start + 1, p.end_lifted):
                spoke = m.system.pair(i)
                assert (i not in involved) == spoke.special


def test_terminal_orientation_flips_exactly_on_special_spokes():
    for m in models():
        for p in m.paths.paths:
            if p.length == 1:
                continue
            vs = m.polygon.vertices
            last = m.system.pair(p.end_lifted)
            w = vec_of(p.steps[p.end_lifted])
            if last.special:
                assert w == sub(vs[last.v_index], vs[last.w_index])
            else:
                assert w == sub(vs[last.w_index], vs[last.v_index])
            for i in p.involved[:-1]:
                s = m.system.pair(i)
                # pinwheel orientation
                assert vec_of(p.steps[i]) == sub(vs[s.w_index], vs[s.v_index])


def test_displacement_telescopes_to_endpoints():
    for m in models():
        for p in m.paths.paths:
            assert vec_of(p.displacement()) == scale(
                sub(point_of(p.last_vertex), point_of(p.first_vertex)), 2)


def test_triangle_bottom_spoke_displacement():
    m = BilliardModel(TRIANGLE)
    p = m.paths.path_for_label((0, 1))  # (0,0) -> (1,3)
    assert vec_of(p.displacement()) == vec_of(m.system.pair(p.start).V)
    assert vec_of(p.displacement()) == vec(2, 6)


def test_endpoint_arc_oracle():
    """Independent oracle: the endpoints of the paths out of each start
    vertex march counterclockwise one vertex at a time from the spoke head,
    stopping before the start vertex."""
    for m in models():
        n = m.n
        ccw_next = {i: (i - 1) % m.polygon.n for i in range(m.polygon.n)}
        for a in range(n):
            group = sorted((q for q in m.paths.paths if q.start == a),
                           key=lambda q: q.end_lifted)
            expect = m.system.pair(a).w_index
            for p in group:
                assert p.first_vertex_index == m.system.pair(a).v_index
                assert p.last_vertex_index == expect
                assert expect != p.first_vertex_index
                expect = ccw_next[expect]


def test_path_labels_match_tiles_exactly():
    for m in models():
        tile_labels = set(m.partition.by_label)
        path_labels = set()
        for p in m.paths.paths:
            path_labels.add(p.endpoint_pair())
            if p.length == 1:
                path_labels.add((p.last_vertex_index, p.first_vertex_index))
        assert tile_labels == path_labels


def test_path_for_label_resolves_both_maximal_orders():
    m = BilliardModel(TRIANGLE)
    p = m.paths.path_for_label((0, 1))
    assert m.paths.path_for_label((1, 0)) is p  # reversed maximal pair
    with pytest.raises(NotAdmissiblePairError):
        BilliardModel(HEXAGON).paths.path_for_label((0, 0))


def test_nonadmissible_pair_on_hexagon():
    m = BilliardModel(HEXAGON)
    all_pairs = {(i, j) for i in range(6) for j in range(6) if i != j}
    admissible = set(m.paths.by_endpoints)
    missing = all_pairs - admissible
    assert missing  # some ordered pairs are not admissible
    with pytest.raises(NotAdmissiblePairError):
        m.paths.path_for_label(sorted(missing)[0])


def test_prefix_closure():
    for m in models():
        by_id = {(q.start, q.end_lifted) for q in m.paths.paths}
        for p in m.paths.paths:
            if p.length < 3:
                continue
            shorter_end = p.involved[-3]
            assert (p.start, shorter_end) in by_id


def test_tile_translate_k_equals_b_is_the_psi_image():
    for m in models():
        for p in m.paths.paths:
            tile = m.partition.by_label[p.endpoint_pair()]
            moved = tile.region.translate(p.prefix_sum(p.end_lifted))
            assert moved == tile.region.translate(tile.translation)
            assert moved.is_bounded() == tile.region.is_bounded()
            if not tile.unbounded:
                assert region_area(moved) == region_area(tile.region)


def test_tile_translate_index_out_of_range():
    m = BilliardModel(HEXAGON)
    p = max(m.paths.paths, key=lambda q: q.length)
    with pytest.raises(IndexOutOfRangeError):
        p.prefix_sum(p.start - 1)
    with pytest.raises(IndexOutOfRangeError):
        p.prefix_sum(p.end_lifted + 1)


def test_tile_translate_single_spoke_path():
    m = BilliardModel(TRIANGLE)
    p = m.paths.path_for_label((0, 1))
    tile = m.partition.by_label[p.endpoint_pair()]
    moved = tile.region.translate(p.prefix_sum(p.start))
    assert moved == tile.region.translate(homogeneous(scale(vec_of(p.steps[p.start]), 2)))


def test_apex_sequence_endpoints():
    for m in models():
        for p in m.paths.paths:
            seq = apex_sequence(p)
            assert point_of(seq[0]) == point_of(p.first_vertex)
            assert sub(point_of(seq[-1]), point_of(seq[0])) == vec_of(p.displacement())
            assert len(seq) == p.span + 2


def test_apex_points_in_closed_strips_for_maximal_paths():
    for m in models():
        for a in range(m.n):
            p = m.paths.maximal_from(a)
            seq = apex_sequence(p)
            for i, q in enumerate(seq[1:]):
                pair = m.system.pair(p.start + i)
                assert 0 <= signed_offset(pair.line, point_of(q)) <= pair.width


# ---------------------------------------------------------------------------
# the lattice triples of pairs, paths and tiles against their Vec route


def vec_route_mismatches(model) -> list:
    """Each vector of the model whose lattice triple's `point_of` differs in
    value or in scalar type from its `Vec` route (`oracles.pair_V`,
    `path_steps`, `path_prefix_sums`, `path_displacement`,
    `path_apex_points`, `tile_translation`): every pair's V; every path's
    steps, prefix sums, displacement, apex points and endpoint vertices;
    the translation of every tile of both partitions."""
    system, polygon = model.system, model.polygon
    bad = []

    def same(what, triple, want):
        got = point_of(triple)
        if [(type(c), c) for c in (got.x, got.y)] != [(type(c), c) for c in (want.x, want.y)]:
            bad.append((what, got, want))

    for pair in system.pairs:
        same(("V", pair.index), pair.V, pair_V(polygon, pair))
    for path in model.paths.paths:
        name = path.display()
        steps = path_steps(system, path)
        assert sorted(path.steps) == sorted(steps)
        for i, step in steps.items():
            same((name, "step", i), path.steps[i], step)
        sums = path_prefix_sums(system, path)
        assert len(path.prefix_sums) == len(sums)
        for i, (got, want) in enumerate(zip(path.prefix_sums, sums)):
            same((name, "prefix sum", i), got, want)
        same((name, "displacement"), path.displacement(), path_displacement(system, path))
        apex = path_apex_points(system, path)
        assert len(apex_sequence(path)) == len(apex)
        for i, (got, want) in enumerate(zip(apex_sequence(path), apex)):
            same((name, "apex", i), got, want)
        same((name, "first vertex"), path.first_vertex, polygon.vertices[path.first_vertex_index])
        same((name, "last vertex"), path.last_vertex, polygon.vertices[path.last_vertex_index])
    for part in (model.partition, model.backward_partition):
        for tile in part.tiles:
            same((part.chirality.name, tile.label), tile.translation,
                 tile_translation(polygon, tile))
    return bad


@pytest.mark.parametrize("poly_key", CORPUS)
def test_lattice_vectors_match_vec_route(poly_key):
    """Pairs, paths and tiles carry their vectors as lattice triples over
    the polygon's den; each triple equals its `Vec` route in value and
    scalar type.  On the kites both types occur."""
    model = BilliardModel(corpus_polygon(poly_key))
    assert vec_route_mismatches(model) == []
    types = {type(c) for pair in model.system.pairs for V in [point_of(pair.V)] for c in (V.x, V.y)}
    assert types == ({Fraction, QuadExt} if "kite" in poly_key else {Fraction})


def _mutated(function, old, new):
    """`function` recompiled from its source with `old` replaced by `new`,
    in the `paths` module's namespace, undecorated."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(vars(paths))
    exec(source.replace(old, new), namespace)
    compiled = namespace[function.__name__]
    return getattr(compiled, "func", compiled)


@pytest.mark.parametrize("poly_key", ["n7", "penrose_kite"])
def test_vec_route_parity_catches_undoubled_prefix_sums(monkeypatch, poly_key):
    """Negative control: prefix sums that add each step once, not twice,
    must fail the parity test (the model's paths are built first, so the
    displacement identity at enumeration does not catch it)."""
    model = BilliardModel(corpus_polygon(poly_key))
    assert model.paths and vec_route_mismatches(model) == []
    undoubled = _mutated(AdmissiblePath.prefix_sums.func,
                         "moved(total, self.steps[i], 2)", "moved(total, self.steps[i])")
    monkeypatch.setattr(AdmissiblePath, "prefix_sums", property(undoubled))
    assert any(what[1] == "prefix sum" for what, _, _ in vec_route_mismatches(model))


@pytest.mark.parametrize("poly_key", ["n7", "penrose_kite"])
def test_vec_route_parity_catches_reversed_steps(poly_key):
    """Negative control: a walk that takes each step as v - w must fail the
    parity test on the paths it emits (taken straight from the walk, so the
    displacement identity at enumeration does not catch it)."""
    model = BilliardModel(corpus_polygon(poly_key))
    walk = _mutated(paths._walk_from, "moved(vertex[j], vertex[i], -1)",
                    "moved(vertex[i], vertex[j], -1)")
    model.paths = PathFamily(model.system, tuple(
        p for a in range(model.n) for p in walk(model.system, a)))
    assert any(what[1] == "step" for what, _, _ in vec_route_mismatches(model))
