"""One-stop bundle of the derived structures of a nice polygon."""

from __future__ import annotations

from functools import cached_property

from .billiards import Chirality, Partition, build_partition
from .paths import PathFamily, enumerate_paths
from .polygon import NicePolygon
from .strips import PinwheelSystem, build_pinwheel_system


class BilliardModel:
    """Polygon plus lazily built pinwheel system, partitions, and paths.

    The forward partition's labels are matched against the admissible path
    enumeration by `verify.check_structure1`, which reports a mismatch.  A
    negative control corrupts a model by assigning its `system` or `paths`
    before anything reads them; what is built from them then reads the
    corrupted one.
    """

    def __init__(self, polygon: NicePolygon):
        self.polygon = polygon

    @cached_property
    def system(self) -> PinwheelSystem:
        return build_pinwheel_system(self.polygon)

    @cached_property
    def paths(self) -> PathFamily:
        return enumerate_paths(self.system)

    @cached_property
    def partition(self) -> Partition:
        return build_partition(self.polygon, Chirality.RIGHT)

    @cached_property
    def backward_partition(self) -> Partition:
        return build_partition(self.polygon, Chirality.LEFT)

    @cached_property
    def document(self) -> dict:
        """The polygon's `to_document()`, built once and shared by every check's report."""
        return self.polygon.to_document()

    @property
    def n(self) -> int:
        return self.polygon.n

    def path_of_tile(self, tile):
        """The admissible path of a forward tile, found by the tile's label."""
        return self.paths.path_for_label(tile.label)
