"""Exact-arithmetic polygonal outer billiards and pinwheel strip dynamics.

The package computes, over exact rational (optionally quadratic-extension)
coordinates: the square outer billiards map and its tangent-pair partition,
the pinwheel strips/spokes/strip-map system, admissible spoke paths, the
indexed-plane pinwheel dynamics with its section and return maps, the
quasirational necklace construction with an orbit-boundedness certificate,
a property-verification harness, and deterministic SVG rendering.
"""

from .billiards import (
    Chirality,
    Partition,
    Tile,
    build_partition,
    inverse_square_map,
    primary_cone,
    square_map,
    tangent_vertex,
)
from .dynamics import (
    IndexedPoint,
    OrbitEvent,
    OrbitRecord,
    exit_map,
    far_radius,
    first_return_psi,
    orbit,
    pinwheel_step,
    pinwheel_theorem_step,
    section,
    strip_system_return,
)
from .generate import random_nice_polygon
from .geometry import (
    ConvexRegion,
    HalfPlane,
    Line,
    Point,
    Sense,
    Vec,
    box_region,
    polygon_region,
    region,
)
from .model import BilliardModel
from .paths import (
    AdmissiblePath,
    PathFamily,
    apex_sequence,
    enumerate_paths,
    link_partition,
)
from .polygon import NicePolygon, parse_polygon, polygon_to_text
from .quasirational import (
    NecklaceSpec,
    QuasiData,
    boundedness_certificate,
    necklace,
    quasi_analyze,
)
from .report import CheckReport
from .scalars import QuadExt, quadext, scalar_from_json, scalar_to_json
from .strips import (
    PinwheelPair,
    PinwheelSystem,
    build_pinwheel_system,
    strip_jump,
    strip_map,
)
from .svg import draw_points, draw_polygon, draw_polyline, draw_region, render_scene
from .verify import negative_controls, run_all

__version__ = "0.1.0"
