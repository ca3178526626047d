"""SVG rendering: determinism, clipping, structure."""

import pytest

from oracles import half_plane, pt
from outerbilliards.geometry import box_region, region, Sense
from outerbilliards.model import BilliardModel
from outerbilliards.polygon import NicePolygon
from outerbilliards.svg import (
    EmptySceneError,
    default_viewport,
    draw_points,
    draw_polygon,
    draw_polyline,
    draw_region,
    partition_scene,
    render_scene,
)

TRIANGLE = NicePolygon.from_points([pt(0, 0), pt(1, 3), pt(4, 0)])


def test_triangle_alone_renders_one_polygon():
    doc = render_scene([draw_polygon(TRIANGLE.vertices)])
    assert doc.startswith('<?xml version="1.0"')
    assert doc.count("<polygon") == 1
    assert "</svg>" in doc


def test_same_scene_twice_is_byte_identical():
    scene = [draw_polygon(TRIANGLE.vertices),
             draw_polyline([pt(0, 0), pt(10, 10)]),
             draw_points([pt(1, 1), pt(2, 2)])]
    assert render_scene(scene) == render_scene(scene)


def test_partition_scene_is_deterministic_and_clips():
    model = BilliardModel(TRIANGLE)
    scene = partition_scene(model)
    vp = default_viewport(model)
    doc1 = render_scene(scene, viewport=vp)
    doc2 = render_scene(partition_scene(BilliardModel(TRIANGLE)), viewport=vp)
    assert doc1 == doc2
    # polygon plus the six clipped unbounded tiles
    assert doc1.count("<polygon") == 1 + 6


def test_unbounded_region_clipped_to_viewport():
    half = region([half_plane(0, 1, 0, Sense.GE)])
    doc = render_scene([draw_region(half)], viewport=(-5, -5, 5, 5))
    assert doc.count("<polygon") == 1
    # all rendered ordinates stay within the 10x10 viewBox
    import re

    for token in re.findall(r'points="([^"]+)"', doc):
        for pair in token.split():
            x, y = map(float, pair.split(","))
            assert -1e-9 <= x <= 10 + 1e-9
            assert -1e-9 <= y <= 10 + 1e-9


def test_empty_scene_raises():
    with pytest.raises(EmptySceneError):
        render_scene([])


def test_region_items_do_not_mutate_inputs():
    sq = box_region(0, 0, 1, 1)
    before = sq.canonical_key()
    render_scene([draw_region(sq)], viewport=(-2, -2, 2, 2))
    assert sq.canonical_key() == before


def test_polyline_and_empty_region_items():
    doc = render_scene([
        draw_polyline([pt(0, 0), pt(1, 2), pt(3, 1)]),
        draw_region(box_region(0, 0, 1, 1).intersect(
            region([half_plane(1, 0, 5, Sense.GE)]))),  # empty: skipped
    ], viewport=(-1, -1, 4, 4))
    assert doc.count("<polyline") == 1
    assert doc.count("<polygon") == 0


def test_coordinates_have_12_significant_digits():
    from fractions import Fraction

    doc = render_scene([draw_points([pt(Fraction(1, 3), Fraction(2, 7))])],
                       viewport=(0, 0, 1, 1))
    assert "0.333333333333" in doc


# A scene whose viewport box has no interior, and one whose closed box region
# meets the viewport only along the line x = 1: every clip that has no
# interior is skipped, the polygon, polyline and points are drawn.
DEGENERATE_SCENES = {
    "zero-width viewport": (0, 0, 0, 1),
    "box on the viewport's edge": (0, 0, 1, 1),
}
# sha256 of each document, recorded while the region kernel still built the
# clips without interior as segments
DEGENERATE_SCENE_SHA256 = {
    "zero-width viewport": "f22a999899c4b8dc296d1a351d734721aa00dda860279290f7e29772b47b8463",
    "box on the viewport's edge":
        "5c12692d444522e76f5c1d7db35d77e26cdfbecd3c0fce21fb4ef9d0394ec01f",
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_SCENE_SHA256))
def test_degenerate_clip_scenes_golden(name):
    import hashlib

    doc = render_scene([draw_polygon(TRIANGLE.vertices),
                        draw_region(box_region(1, 0, 2, 1)),
                        draw_region(region([half_plane(0, 1, 0, Sense.GE)])),
                        draw_polyline([pt(0, 0), pt(1, 1)]),
                        draw_points([pt(0, 1)])], viewport=DEGENERATE_SCENES[name])
    assert hashlib.sha256(doc.encode()).hexdigest() == DEGENERATE_SCENE_SHA256[name]
