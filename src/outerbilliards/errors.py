"""Exception taxonomy shared across the library."""

from __future__ import annotations


class EmptyRegionError(Exception):
    """An operation required a nonempty (full-dimensional) region."""


class PolygonError(ValueError):
    """Base for polygon validation failures; carries offending indices."""

    def __init__(self, message: str, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class NotConvexError(PolygonError):
    pass


class ParallelEdgesError(PolygonError):
    pass


class DegenerateVerticesError(PolygonError):
    pass


class ParseError(ValueError):
    pass


class MapUndefinedError(Exception):
    """Base for 'the map is undefined here' conditions (walls, boundaries)."""


class OnStripBoundaryError(MapUndefinedError):
    def __init__(self, point, stage=None):
        label = f" at stage {stage}" if stage is not None else ""
        super().__init__(f"strip map undefined on the strip boundary{label}: {point}")
        self.point = point
        self.stage = stage


class OnPrimaryWallError(MapUndefinedError):
    def __init__(self, point):
        super().__init__(f"tangent vertex undefined on a primary wall: {point}")
        self.point = point


class InsidePolygonError(MapUndefinedError):
    def __init__(self, point):
        super().__init__(f"point is not outside the polygon: {point}")
        self.point = point


class UndefinedOnWallError(MapUndefinedError):
    def __init__(self, point, stage=None):
        label = f" (stage {stage})" if stage is not None else ""
        super().__init__(f"map undefined on a wall{label}: {point}")
        self.point = point
        self.stage = stage


class BudgetExceededError(Exception):
    def __init__(self, budget: int, message: str = ""):
        super().__init__(message or f"step budget {budget} exhausted")
        self.budget = budget


class NotAdmissiblePairError(KeyError):
    pass


class IndexOutOfRangeError(IndexError):
    pass


class NotQuasirationalError(Exception):
    pass


class AnnulusNotFoundError(Exception):
    pass


class GenerationFailedError(Exception):
    pass
