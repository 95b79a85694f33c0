"""Exact barycentric geometry on standard simplices.

A point is a tuple of non-negative rationals summing to exactly 1, stored
as integer numerators over one positive denominator, reduced by their gcd.
Affine maps between simplices are column-stochastic rational matrices
acting in barycentric coordinates, each column stored as such a point, so
checking, applying and composing maps, and the distances, are integer
arithmetic.  A map is built from its column points and has no matrix view
of its own; `Fraction`s appear only in the views a caller reads of a
point (its `coords`, items and iteration).  Equality and distance
comparisons are exact; squared Euclidean distances are used wherever the
plain distance would be irrational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence


def _as_fraction_tuple(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _over_lcm(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integer numerators of the given fractions over the lcm of their
    denominators, and that lcm."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


@dataclass(frozen=True)
class SimplexPoint:
    """A point of a standard simplex in exact barycentric coordinates.

    Stored as non-negative integer numerators `nums` over a positive
    denominator `den` with sum(nums) == den and gcd(nums) == 1, so two
    points are equal exactly when their coordinates are, and `den` is the
    lcm of the coordinates' denominators.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, coords: Iterable) -> None:
        self._store(*_over_lcm(_as_fraction_tuple(coords)))

    @classmethod
    def _from_ints(cls, nums: Iterable[int], den: int) -> "SimplexPoint":
        """Trusted constructor from integer numerators over `den`, for
        points the package builds itself or reads from canonical file
        coordinates (`formats.point_from_coords`).  Checks sign and sum as
        the public constructor does, with the same error texts."""
        out = object.__new__(cls)
        out._store(tuple(nums), den)
        return out

    def _store(self, nums: tuple[int, ...], den: int) -> None:
        """Check, reduce by the gcd and store numerators over `den`."""
        if not nums:
            raise ValueError("a simplex point needs at least one coordinate")
        if den < 1 or min(nums) < 0:
            raise ValueError("coordinates must be non-negative")
        if sum(nums) != den:
            raise ValueError(f"coordinates must sum to 1, got {Fraction(sum(nums), den)}")
        g = gcd(*nums)
        if g > 1:
            nums, den = tuple([n // g for n in nums]), den // g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as `Fraction`s (a view built on each read)."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def dim(self) -> int:
        """Number of coordinates (one more than the simplex dimension)."""
        return len(self.nums)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    @staticmethod
    def vertex(size: int, index: int) -> "SimplexPoint":
        if not 0 <= index < size:
            raise ValueError(f"vertex {index} outside simplex of {size} coordinates")
        return SimplexPoint._from_ints((0,) * index + (1,) + (0,) * (size - 1 - index), 1)

    @staticmethod
    def barycenter(size: int) -> "SimplexPoint":
        return SimplexPoint._from_ints((1,) * size, size)

    @staticmethod
    def normalized(weights: Iterable) -> "SimplexPoint":
        nums, _ = _over_lcm(_as_fraction_tuple(weights))
        total = sum(nums)
        if total <= 0 or min(nums) < 0:
            raise ValueError("weights must be non-negative with positive sum")
        return SimplexPoint._from_ints(nums, total)

    def vertex_index(self) -> int | None:
        """Index v if this point is the vertex e_v, else None."""
        return self.nums.index(1) if self.den == 1 else None

    def _differences(self, other: "SimplexPoint") -> tuple[list[int], int]:
        """The coordinates of self - other as integers over the lcm of the
        two denominators, and that lcm."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return [a * fa - b * fb for a, b in zip(self.nums, other.nums)], den

    def l1_distance(self, other: "SimplexPoint") -> Fraction:
        diffs, den = self._differences(other)
        return Fraction(sum(map(abs, diffs)), den)

    def l2sq_distance(self, other: "SimplexPoint") -> Fraction:
        """Squared Euclidean distance (the distance itself may be irrational)."""
        diffs, den = self._differences(other)
        return Fraction(sum(d * d for d in diffs), den * den)

    def common_denominator_strings(self) -> tuple[str, ...]:
        """Coordinates rendered over one shared denominator, e.g. 2/16."""
        return tuple(f"{n}/{self.den}" for n in self.nums)


@dataclass(frozen=True)
class StochasticAffineMap:
    """Affine map between simplices given by a column-stochastic matrix.

    Column i is the image of the i-th domain vertex; applying the map to a
    point takes the corresponding convex combination of columns.  Every such
    map is automatically nonexpansive for the l1 (total variation) metric.

    A map is its column points: it is built from them, and two maps are
    equal exactly when their columns are.  `apply` and `compose` work on the
    columns' integers over the lcm of their denominators.
    """

    _columns: tuple[SimplexPoint, ...]

    def __init__(self, columns: Iterable[SimplexPoint]) -> None:
        """The map whose column j is the j-th of the given points, which
        share one dimension."""
        columns = tuple(columns)
        if not columns:
            raise ValueError("matrix must be non-empty")
        if any(c.dim != columns[0].dim for c in columns):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "_columns", columns)

    @property
    def rows(self) -> int:
        return self._columns[0].dim

    @property
    def cols(self) -> int:
        return len(self._columns)

    def column_point(self, j: int) -> SimplexPoint:
        return self._columns[j]

    def _combine(self, weight_vectors: Iterable[Sequence[int]]) -> Iterator[tuple[list[int], int]]:
        """For each vector w of non-negative integer weights, the convex
        combination sum_k w_k column_k as numerators over sum(w) times the
        lcm of the column denominators."""
        scale = lcm(*(c.den for c in self._columns))
        factors = [scale // c.den for c in self._columns]
        rows = list(zip(*(c.nums for c in self._columns)))
        for weights in weight_vectors:
            scaled = list(map(mul, weights, factors))
            yield [sum(map(mul, row, scaled)) for row in rows], scale * sum(weights)

    def apply(self, point: SimplexPoint) -> SimplexPoint:
        if point.dim != self.cols:
            raise ValueError(
                f"map expects {self.cols} coordinates, point has {point.dim}"
            )
        [(nums, den)] = self._combine([point.nums])
        return SimplexPoint._from_ints(nums, den)

    def compose(self, inner: "StochasticAffineMap") -> "StochasticAffineMap":
        """self o inner: apply `inner` first."""
        if self.cols != inner.rows:
            raise ValueError("composition shape mismatch")
        return StochasticAffineMap(
            SimplexPoint._from_ints(nums, den) for nums, den in self._combine(c.nums for c in inner._columns)
        )

    @staticmethod
    def vertex_fixing(new_vertex_image: SimplexPoint) -> "StochasticAffineMap":
        """Map from an (n+1)-vertex simplex onto an n-vertex one that fixes
        the first n vertices and sends the last vertex to the given point."""
        n = new_vertex_image.dim
        return StochasticAffineMap((*(SimplexPoint.vertex(n, j) for j in range(n)), new_vertex_image))
