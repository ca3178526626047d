"""Admissible spoke paths and their link to the forward partition.

A path starts at a spoke, traverses spokes in increasing cyclic index order,
skips over the special spokes strictly between its endpoints, and stops after
an odd number of traversed spokes without winding fully around the polygon.
The walk below is forced: after settling index j the current vertex is the
head of spoke j, and the next spoke is incident to it either at its tail
(ordinary: traverse forward) or at its head (special: skip, or end there by
traversing it backward).

Each emitted path is validated against the telescoping displacement identity.
A path's endpoint pair is the label of its forward tile, so a tile finds its
path by label (`PathFamily.path_for_label`); `link_partition` returns where the
labels fail to match the paths one-to-one, which `verify` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .billiards import Partition
from .errors import IndexOutOfRangeError, NotAdmissiblePairError
from .geometry import moved
from .strips import PinwheelSystem


@dataclass(frozen=True)
class AdmissiblePath:
    """Path a -> b with its per-spoke traversal vectors.

    steps maps each lifted index in [start, end_lifted] to the vector from the
    traversal's entry endpoint of that spoke to its exit endpoint; skipped
    (special interior) spokes map to the zero vector.  Twice each step is the
    translation the square map contributes at that spoke.  Steps, endpoint
    vertices and prefix sums are triples over den on P's lattice (`moved`).
    """

    start: int                         # a, reduced index
    end_lifted: int                    # b', start <= b' < start + n
    n: int
    involved: Tuple[int, ...]          # lifted indices actually traversed
    steps: Dict[int, tuple]
    first_vertex_index: int
    last_vertex_index: int
    first_vertex: tuple
    last_vertex: tuple

    @property
    def end(self) -> int:
        return self.end_lifted % self.n

    @property
    def length(self) -> int:
        return len(self.involved)

    @property
    def span(self) -> int:
        return self.end_lifted - self.start

    def display(self) -> str:
        return f"{self.start + 1}->{self.end + 1}"

    def endpoint_pair(self) -> Tuple[int, int]:
        return (self.first_vertex_index, self.last_vertex_index)

    def displacement(self) -> tuple:
        """Sum of twice the step vectors; telescopes to 2*(w - v)."""
        return self.prefix_sum(self.end_lifted)

    @cached_property
    def prefix_sums(self) -> Tuple[tuple, ...]:
        """Entry i is twice the step-vector sum over lifted indices
        start..start+i, from one telescoping pass."""
        total = (0, 0, self.first_vertex[2])
        sums = []
        for i in range(self.start, self.end_lifted + 1):
            total = moved(total, self.steps[i], 2)
            sums.append(total)
        return tuple(sums)

    def prefix_sum(self, k: int) -> tuple:
        """Sum of twice the step vectors for indices start..k."""
        if not (self.start <= k <= self.end_lifted):
            raise IndexOutOfRangeError(
                f"index {k} outside [{self.start}, {self.end_lifted}]")
        return self.prefix_sums[k - self.start]


class PathFamily:
    """All admissible paths of a pinwheel system, with endpoint lookup."""

    __slots__ = ("system", "paths", "by_endpoints")

    def __init__(self, system: PinwheelSystem, paths: Tuple[AdmissiblePath, ...]):
        self.system = system
        self.paths = paths
        self.by_endpoints: Dict[Tuple[int, int], AdmissiblePath] = {}
        for p in paths:
            self.by_endpoints[p.endpoint_pair()] = p
            if p.length == 1:
                # a single spoke owns both unbounded tiles: (v,w) and (w,v)
                rev = (p.last_vertex_index, p.first_vertex_index)
                self.by_endpoints[rev] = p

    def path_for_label(self, label: Tuple[int, int]) -> AdmissiblePath:
        try:
            return self.by_endpoints[label]
        except KeyError:
            raise NotAdmissiblePairError(label) from None

    def maximal_from(self, a: int) -> AdmissiblePath:
        return max((p for p in self.paths if p.start == a % self.system.n),
                   key=lambda p: p.end_lifted)


def enumerate_paths(system: PinwheelSystem) -> PathFamily:
    """Walk every start spoke, emitting odd non-wrapping prefixes."""
    family = PathFamily(system, tuple(p for a in range(system.n) for p in _walk_from(system, a)))
    for p in family.paths:
        (fx, fy, den), (lx, ly, _) = p.first_vertex, p.last_vertex
        if p.displacement() != (2 * (lx - fx), 2 * (ly - fy), den):
            raise AssertionError(f"displacement identity fails for {p.display()}")
    return family


def _walk_from(system: PinwheelSystem, a: int) -> List[AdmissiblePath]:
    n, den = system.n, system.polygon.den
    vertex = [(X, Y, den) for X, Y in system.polygon.lattice]

    def step(i, j):  # vertex j - vertex i
        return moved(vertex[j], vertex[i], -1)

    first = system.pair(a)
    v0_index = first.v_index
    paths: List[AdmissiblePath] = []

    def emit(end_lifted, involved, steps, last_index):
        paths.append(AdmissiblePath(
            start=a, end_lifted=end_lifted, n=n,
            involved=tuple(involved), steps=dict(steps),
            first_vertex_index=v0_index, last_vertex_index=last_index,
            first_vertex=vertex[v0_index], last_vertex=vertex[last_index],
        ))

    involved = [a]
    steps = {a: step(first.v_index, first.w_index)}
    current_index = first.w_index
    emit(a, involved, steps, current_index)

    for j in range(a + 1, a + n):
        s = system.pair(j)
        if s.v_index == current_index:
            # ordinary continuation; the prefix ending here traverses forward
            if s.special:
                raise AssertionError(
                    f"special spoke {j % n} met at its tail in walk from {a}")
            involved.append(j)
            steps[j] = step(s.v_index, s.w_index)
            current_index = s.w_index
            if len(involved) % 2 == 1:
                if current_index == v0_index:
                    break  # wrapped all the way around the polygon
                emit(j, involved, steps, current_index)
        elif s.w_index == current_index:
            # special spoke: may terminate the path backward, else is skipped
            if not s.special:
                raise AssertionError(
                    f"ordinary spoke {j % n} met at its head in walk from {a}")
            if (len(involved) + 1) % 2 == 1:
                if s.v_index == v0_index:
                    break
                end_steps = dict(steps)
                end_steps[j] = step(s.w_index, s.v_index)
                emit(j, involved + [j], end_steps, s.v_index)
            steps[j] = (0, 0, den)  # skipped: the current vertex stays put
        else:
            raise AssertionError(
                f"spoke {j % n} not incident to the walk vertex from start {a}")
    return paths


def link_partition(partition: Partition, family: PathFamily) -> Optional[tuple]:
    """None when the tile labels are exactly the paths' endpoint pairs (a
    one-to-one match), else the mismatch: both label sets, sorted, paths'
    first."""
    path_labels, tile_labels = sorted(family.by_endpoints), sorted(partition.by_label)
    return None if path_labels == tile_labels else (path_labels, tile_labels)


def apex_sequence(path: AdmissiblePath) -> Tuple[tuple, ...]:
    """Points v, v + 2*W_a, v + 2*(W_a + W_{a+1}), ... as triples over den;
    entry i >= 1 is the prefix through lifted index start + i - 1."""
    v = path.first_vertex
    return (v,) + tuple(moved(v, shift) for shift in path.prefix_sums)
