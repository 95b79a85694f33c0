"""Approximate intertwinings of inverse systems of simplices.

Two towers of simplices with column-stochastic connecting maps are linked by
diagonal cross maps; when the defect series are summable the limits are
affinely homeomorphic, and truncations estimate the limit map with a
certified error.  The metric belongs to the intertwining, not to either
tower: one defect series in one metric certifies the pair.  The default is
l1 (total variation), in which every column-stochastic map is automatically
nonexpansive, so the contractivity hypothesis costs nothing; l2 is available
read-only through exactly representable squared distances.

Conventions: in a `MapSequence`, maps[j] sends level-(j+1) points to level-j
points.  The two towers run over identical levels, so the cross map from
top level j+1 to bottom level j is the top map f_j itself and the defects
are the levelwise gaps d(f_j, f'_j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from .errors import BratteliError
from .simplex import SimplexPoint, StochasticAffineMap

_METRICS = ("l1", "l2")


def map_distance(f: StochasticAffineMap, g: StochasticAffineMap, metric: str = "l1") -> Fraction:
    """Uniform distance between two maps with the same shape.

    The pointwise distance x -> d(f(x), g(x)) is convex, so its sup over the
    simplex is attained at a vertex; the result is the exact max over
    columns.  For l2 the squared distance is returned (max of squares equals
    square of max).
    """
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise BratteliError("shape mismatch")
    if metric not in _METRICS:
        raise BratteliError(f"unknown metric {metric!r}")
    distance = SimplexPoint.l1_distance if metric == "l1" else SimplexPoint.l2sq_distance
    return max(distance(f.column_point(j), g.column_point(j)) for j in range(f.cols))


@dataclass(frozen=True)
class MapSequence:
    """Chained connecting maps of one inverse system of simplices."""

    maps: tuple[StochasticAffineMap, ...]

    def __init__(self, maps: Iterable[StochasticAffineMap]) -> None:
        ms = tuple(maps)
        for j in range(len(ms) - 1):
            if ms[j].cols != ms[j + 1].rows:
                raise BratteliError(f"maps {j} and {j + 1} do not chain")
        object.__setattr__(self, "maps", ms)


def compose_range(seq: MapSequence, i: int, j: int) -> StochasticAffineMap:
    """The composed map from level j down to level i (i < j)."""
    if not 0 <= i < j <= len(seq.maps):
        raise BratteliError(f"bad range ({i}, {j}) for {len(seq.maps)} maps")
    out = seq.maps[i]
    for n in range(i + 1, j):
        out = out.compose(seq.maps[n])
    return out


@dataclass(frozen=True)
class TailBound:
    """Rule bounding the gap series beyond the computed prefix."""

    kind: str
    ratio: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        if self.kind == "geometric":
            if not 0 < self.ratio < 1:
                raise BratteliError("geometric tail needs 0 < ratio < 1")
        elif self.kind != "zero":
            raise BratteliError(f"unknown tail rule {self.kind!r}")

    def bound_from(self, index: int) -> Fraction:
        """Upper bound for the sum of gaps at indices >= index."""
        if self.kind == "zero":
            return Fraction(0)
        return self.ratio**index / (1 - self.ratio)

    @staticmethod
    def geometric(ratio) -> "TailBound":
        return TailBound("geometric", ratio)

    @staticmethod
    def zero() -> "TailBound":
        return TailBound("zero")


@dataclass(frozen=True)
class IntertwiningData:
    """Two towers over identical levels, their tail bound and the one metric of their defects."""

    top: MapSequence
    bottom: MapSequence
    tail: TailBound | None = None
    metric: str = "l1"

    def __post_init__(self) -> None:
        if self.metric not in _METRICS:
            raise BratteliError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class GapSeries:
    """Exact defect values of an intertwining, with l1 partial sums.

    `gaps[j]` is d(f_j, f'_j).  The certificate (partial sum plus tail
    bound) exists only in the l1 metric, where stochastic maps are
    nonexpansive and the bounds actually compose.
    """

    metric: str
    gaps: tuple[Fraction, ...]
    partial_sums: tuple[Fraction, ...] | None
    certificate: Fraction | None


def gap_series(data: IntertwiningData) -> GapSeries:
    metric = data.metric
    n = min(len(data.top.maps), len(data.bottom.maps))
    gaps = tuple(map_distance(data.top.maps[j], data.bottom.maps[j], metric) for j in range(n))
    if metric != "l1":
        return GapSeries(metric, gaps, None, None)
    sums = tuple(accumulate(gaps, initial=Fraction(0)))
    certificate = None if data.tail is None else sums[-1] + data.tail.bound_from(n)
    return GapSeries(metric, gaps, sums[1:], certificate)


@dataclass(frozen=True)
class LimitEstimate:
    point: SimplexPoint
    error_bound: Fraction
    certified: bool


def limit_vertex_estimate(
    data: IntertwiningData, level: int, vertex: int, depth: int
) -> LimitEstimate:
    """Truncation estimate of the limit map on a persistent extreme point.

    For systems in one-new-vertex form, vertex v of the limit projects onto
    the v-th vertex of every deep enough level; the estimate at `depth` j is
    the image of that vertex through the top map f_j and the bottom
    composites down to `level`.  The error bound sums the remaining defects
    within the prefix plus the tail rule, all in exact l1 arithmetic, so
    only the gaps from `depth` on are computed.
    """
    i, j = level, depth
    if data.metric != "l1":
        raise BratteliError("estimates are certified in the l1 metric only")
    if not 0 <= i <= j < len(data.bottom.maps):
        raise BratteliError("need 0 <= level <= depth < number of maps")
    if len(data.top.maps) <= j:
        raise BratteliError(f"top sequence too short for depth {j}")
    cross = data.top.maps[j]
    if not 0 <= vertex < cross.cols:
        raise BratteliError(f"vertex {vertex} outside the depth-{j + 1} simplex")
    start = cross.column_point(vertex)
    point = start if i == j else compose_range(data.bottom, i, j).apply(start)

    top, bottom = data.top.maps, data.bottom.maps
    n = min(len(top), len(bottom))
    # the gaps below depth are not summed, but their maps must still pair up
    if any((f.rows, f.cols) != (g.rows, g.cols) for f, g in zip(top[:j], bottom)):
        raise BratteliError("shape mismatch")
    certified = data.tail is not None
    gaps = sum(map_distance(top[k], bottom[k]) for k in range(j, n))
    bound = gaps + (data.tail.bound_from(n) if certified else Fraction(0))
    return LimitEstimate(point, bound, certified)
