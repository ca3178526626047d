"""Admissible path enumeration and its exact link to the partition."""

import pytest

from oracles import region_area, signed_offset
from outerbilliards.errors import IndexOutOfRangeError, NotAdmissiblePairError
from outerbilliards.geometry import pt
from outerbilliards.generate import random_nice_polygon
from outerbilliards.model import BilliardModel
from outerbilliards.paths import apex_sequence
from outerbilliards.polygon import NicePolygon

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
            last = m.system.pair(p.end_lifted)
            w = p.steps[p.end_lifted]
            if last.special:
                assert w == last.v - last.w
            else:
                assert w == last.w - last.v
            for i in p.involved[:-1]:
                s = m.system.pair(i)
                assert p.steps[i] == s.w - s.v  # pinwheel orientation


def test_displacement_telescopes_to_endpoints():
    for m in models():
        for p in m.paths.paths:
            assert p.displacement() == (p.last_vertex - p.first_vertex) * 2


def test_triangle_bottom_spoke_displacement():
    m = BilliardModel(TRIANGLE)
    p = m.paths.path_for_label((0, 1))  # (0,0) -> (1,3)
    assert p.displacement() == m.system.pair(p.start).V
    from outerbilliards.geometry import vec

    assert p.displacement() == vec(2, 6)


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
    assert moved == tile.region.translate(p.steps[p.start] * 2)


def test_apex_sequence_endpoints():
    for m in models():
        for p in m.paths.paths:
            seq = apex_sequence(p)
            assert seq[0] == p.first_vertex
            assert seq[-1] - seq[0] == p.displacement()
            assert len(seq) == p.span + 2


def test_apex_points_in_closed_strips_for_maximal_paths():
    for m in models():
        for a in range(m.n):
            p = m.paths.maximal_from(a)
            seq = apex_sequence(p)
            for i, q in enumerate(seq[1:]):
                pair = m.system.pair(p.start + i)
                assert 0 <= signed_offset(pair.line, q) <= pair.width
