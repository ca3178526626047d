"""Deterministic SVG rendering of polygons, regions, orbits and necklaces.

Exact coordinates are converted to decimal only at render time, with 12
significant digits; identical scenes produce byte-identical documents.
Rendering output never feeds back into any computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .geometry import ConvexRegion, Point, box_region
from .scalars import ratio


class EmptySceneError(ValueError):
    pass


@dataclass(frozen=True)
class SceneItem:
    kind: str                  # polygon | region | polyline | points
    points: Tuple[Point, ...]  # payload for everything except region
    region: Optional[ConvexRegion] = None
    style: Tuple[Tuple[str, str], ...] = ()


def draw_polygon(vertices: Sequence[Point], **style) -> SceneItem:
    return SceneItem("polygon", tuple(vertices), None, _style(style))


def draw_region(region: ConvexRegion, **style) -> SceneItem:
    return SceneItem("region", (), region, _style(style))


def draw_polyline(points: Sequence[Point], **style) -> SceneItem:
    return SceneItem("polyline", tuple(points), None, _style(style))


def draw_points(points: Sequence[Point], **style) -> SceneItem:
    return SceneItem("points", tuple(points), None, _style(style))


def _style(d: dict) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k.replace("_", "-"), str(v)) for k, v in d.items()))


_DEFAULTS = {
    "polygon": (("fill", "#dddddd"), ("stroke", "#333333"), ("stroke-width", "0.05")),
    "region": (("fill", "#cfe2ff"), ("fill-opacity", "0.6"), ("stroke", "#446688"),
               ("stroke-width", "0.03")),
    "polyline": (("fill", "none"), ("stroke", "#aa3333"), ("stroke-width", "0.04")),
    "points": (("fill", "#222222"),),
}


def _fmt(x) -> str:
    return format(float(x), ".12g")


def render_scene(items: Sequence[SceneItem],
                 viewport: Optional[Tuple] = None) -> str:
    """Render items to an SVG 1.1 document string.

    viewport is (xmin, ymin, xmax, ymax) in exact scalars; when omitted it is
    the bounding box of all finite payload geometry, padded by a tenth of its
    extent plus 1.  Unbounded regions are clipped to the viewport.
    """
    items = list(items)
    if not items:
        raise EmptySceneError("no items to render")
    if viewport is None:
        xs, ys = [], []
        for it in items:
            for p in it.points:
                xs.append(p.x)
                ys.append(p.y)
            if it.region is not None and not it.region.is_empty:
                for p in it.region.vertices():
                    xs.append(p.x)
                    ys.append(p.y)
        if not xs:
            raise EmptySceneError("no finite geometry to set a viewport from")
        pad_x = (max(xs) - min(xs)) / 10 + 1
        pad_y = (max(ys) - min(ys)) / 10 + 1
        viewport = (min(xs) - pad_x, min(ys) - pad_y,
                    max(xs) + pad_x, max(ys) + pad_y)
    xmin, ymin, xmax, ymax = viewport
    width, height = xmax - xmin, ymax - ymin
    clip = box_region(xmin, ymin, xmax, ymax)

    def map_pt(p: Point) -> str:
        return f"{_fmt(p.x - xmin)},{_fmt(ymax - p.y)}"

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    for i, it in enumerate(items):
        style = dict(_DEFAULTS.get(it.kind, ()))
        style.update(dict(it.style))
        attrs = " ".join(f'{k}="{v}"' for k, v in sorted(style.items()))
        ident = f'id="item{i}"'
        if it.kind == "region":
            reg = it.region
            if reg is None or reg.is_empty:
                continue
            clipped = reg.intersect(clip)
            verts = clipped.vertices()
            if len(verts) < 3:
                continue
            pts = " ".join(map_pt(p) for p in verts)
            out.append(f'  <polygon {ident} points="{pts}" {attrs}/>')
        elif it.kind == "polygon":
            pts = " ".join(map_pt(p) for p in it.points)
            out.append(f'  <polygon {ident} points="{pts}" {attrs}/>')
        elif it.kind == "polyline":
            pts = " ".join(map_pt(p) for p in it.points)
            out.append(f'  <polyline {ident} points="{pts}" {attrs}/>')
        elif it.kind == "points":
            r = _fmt(max(width, height) / 200)
            for j, p in enumerate(it.points):
                px, py = map_pt(p).split(",")
                out.append(f'  <circle id="item{i}p{j}" cx="{px}" cy="{py}" '
                           f'r="{r}" {attrs}/>')
        else:
            raise ValueError(f"unknown scene item kind {it.kind!r}")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def partition_scene(model) -> List[SceneItem]:
    """Scene items for a forward partition: the polygon plus one filled
    region per tile (unbounded tiles get clipped by the viewport)."""
    palette = ("#cfe2ff", "#ffe0cc", "#d8f0d0", "#f0d0e8", "#fff3bf", "#d0ecf0")
    items = [draw_polygon(model.polygon.vertices, fill="#aaaaaa")]
    for i, tile in enumerate(sorted(model.partition.tiles, key=lambda t: t.label)):
        items.append(draw_region(tile.region, fill=palette[i % len(palette)]))
    return items


def default_viewport(model):
    """Bounded-tile extent padded by two strip widths on every side."""
    xs, ys = [], []
    for tile in model.partition.tiles:
        if not tile.unbounded:
            for p in tile.region.vertices():
                xs.append(p.x)
                ys.append(p.y)
    for v in model.polygon.vertices:
        xs.append(v.x)
        ys.append(v.y)
    pad = 2 * ratio(*model.system.max_width())
    return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)
