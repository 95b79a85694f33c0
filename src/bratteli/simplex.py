"""Exact barycentric geometry on standard simplices.

Points are tuples of non-negative rationals summing to exactly 1; affine maps
between simplices are column-stochastic rational matrices acting in
barycentric coordinates.  Everything is `fractions.Fraction`, so equality and
distance comparisons are exact; squared Euclidean distances are used wherever
the plain distance would be irrational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


def _as_fraction_tuple(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True, slots=True)
class SimplexPoint:
    """A point of a standard simplex in exact barycentric coordinates."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Iterable) -> None:
        cs = _as_fraction_tuple(coords)
        if not cs:
            raise ValueError("a simplex point needs at least one coordinate")
        if any(c < 0 for c in cs):
            raise ValueError("coordinates must be non-negative")
        if sum(cs) != 1:
            raise ValueError(f"coordinates must sum to 1, got {sum(cs)}")
        object.__setattr__(self, "coords", cs)

    @property
    def dim(self) -> int:
        """Number of coordinates (one more than the simplex dimension)."""
        return len(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    @staticmethod
    def vertex(size: int, index: int) -> "SimplexPoint":
        if not 0 <= index < size:
            raise ValueError(f"vertex {index} outside simplex of {size} coordinates")
        return SimplexPoint(tuple(Fraction(int(i == index)) for i in range(size)))

    @staticmethod
    def barycenter(size: int) -> "SimplexPoint":
        return SimplexPoint((Fraction(1, size),) * size)

    @staticmethod
    def normalized(weights: Iterable) -> "SimplexPoint":
        ws = _as_fraction_tuple(weights)
        total = sum(ws)
        if total <= 0 or any(w < 0 for w in ws):
            raise ValueError("weights must be non-negative with positive sum")
        return SimplexPoint(tuple(w / total for w in ws))

    def vertex_index(self) -> int | None:
        """Index v if this point is the vertex e_v, else None."""
        ones = [i for i, c in enumerate(self.coords) if c == 1]
        return ones[0] if len(ones) == 1 else None

    def l1_distance(self, other: "SimplexPoint") -> Fraction:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return sum(abs(a - b) for a, b in zip(self.coords, other.coords))

    def l2sq_distance(self, other: "SimplexPoint") -> Fraction:
        """Squared Euclidean distance (the distance itself may be irrational)."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return sum((a - b) ** 2 for a, b in zip(self.coords, other.coords))

    def common_denominator_strings(self) -> tuple[str, ...]:
        """Coordinates rendered over one shared denominator, e.g. 2/16."""
        den = lcm(*(c.denominator for c in self.coords))
        return tuple(f"{c.numerator * (den // c.denominator)}/{den}" for c in self.coords)


@dataclass(frozen=True, slots=True)
class StochasticAffineMap:
    """Affine map between simplices given by a column-stochastic matrix.

    Column i is the image of the i-th domain vertex; applying the map to a
    point takes the corresponding convex combination of columns.  Every such
    map is automatically nonexpansive for the l1 (total variation) metric.
    """

    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, entries: Iterable[Iterable]) -> None:
        rows = tuple(_as_fraction_tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        if any(e < 0 for r in rows for e in r):
            raise ValueError("entries must be non-negative")
        for j in range(width):
            s = sum(r[j] for r in rows)
            if s != 1:
                raise ValueError(f"column {j} sums to {s}, expected 1")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def column_point(self, j: int) -> SimplexPoint:
        return SimplexPoint(tuple(r[j] for r in self.entries))

    def apply(self, point: SimplexPoint) -> SimplexPoint:
        if point.dim != self.cols:
            raise ValueError(
                f"map expects {self.cols} coordinates, point has {point.dim}"
            )
        return SimplexPoint(
            tuple(
                sum(row[j] * point[j] for j in range(self.cols))
                for row in self.entries
            )
        )

    def compose(self, inner: "StochasticAffineMap") -> "StochasticAffineMap":
        """self o inner: apply `inner` first."""
        if self.cols != inner.rows:
            raise ValueError("composition shape mismatch")
        return StochasticAffineMap(
            tuple(
                tuple(
                    sum(self.entries[i][k] * inner.entries[k][j] for k in range(self.cols))
                    for j in range(inner.cols)
                )
                for i in range(self.rows)
            )
        )

    @staticmethod
    def identity(n: int) -> "StochasticAffineMap":
        return StochasticAffineMap(
            tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        )

    @staticmethod
    def from_columns(columns: Sequence[SimplexPoint]) -> "StochasticAffineMap":
        if not columns:
            raise ValueError("need at least one column")
        size = columns[0].dim
        if any(c.dim != size for c in columns):
            raise ValueError("columns must share a dimension")
        return StochasticAffineMap(
            tuple(tuple(c[i] for c in columns) for i in range(size))
        )

    @staticmethod
    def vertex_fixing(new_vertex_image: SimplexPoint) -> "StochasticAffineMap":
        """Map from an (n+1)-vertex simplex onto an n-vertex one that fixes
        the first n vertices and sends the last vertex to the given point."""
        n = new_vertex_image.dim
        return StochasticAffineMap(
            (0,) * i + (1,) + (0,) * (n - 1 - i) + (c,)
            for i, c in enumerate(new_vertex_image)
        )
