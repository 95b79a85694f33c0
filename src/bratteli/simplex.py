"""Exact barycentric geometry on standard simplices.

Points are tuples of non-negative rationals summing to exactly 1, held as
`fractions.Fraction`.  Affine maps between simplices are column-stochastic
rational matrices acting in barycentric coordinates; a map keeps each
column as integer numerators over one positive denominator, reduced by
their gcd, so checking, applying and composing maps is integer arithmetic
and equal maps have equal storage.  `Fraction`s appear only in the views a
caller reads (points, `entries`, `column_point`).  Equality and distance
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


@dataclass(frozen=True)
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
        nums, den = _over_lcm(self.coords)
        return tuple(f"{n}/{den}" for n in nums)


def _over_lcm(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integer numerators of the given fractions over the lcm of their
    denominators, and that lcm."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _vertex_columns(n: int) -> list[tuple[tuple[int, ...], int]]:
    """The n vertices of the (n-1)-simplex as integer columns over 1."""
    return [((0,) * j + (1,) + (0,) * (n - 1 - j), 1) for j in range(n)]


@dataclass(frozen=True)
class StochasticAffineMap:
    """Affine map between simplices given by a column-stochastic matrix.

    Column i is the image of the i-th domain vertex; applying the map to a
    point takes the corresponding convex combination of columns.  Every such
    map is automatically nonexpansive for the l1 (total variation) metric.

    Each column is stored as a pair (nums, den): non-negative integer
    numerators over a positive denominator with sum(nums) == den and
    gcd(nums) == 1, so two maps are equal exactly when their matrices are.
    `apply` and `compose` work on these integers over the lcm of the column
    denominators; `entries` and `column_point` are `Fraction` views built
    on each read.
    """

    _columns: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, entries: Iterable[Iterable]) -> None:
        rows = tuple(_as_fraction_tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        self._set_columns([_over_lcm(column) for column in zip(*rows)])

    @classmethod
    def _from_int_columns(cls, columns: Iterable[tuple[Sequence[int], int]]) -> "StochasticAffineMap":
        """Trusted constructor from integer columns (nums, den), for maps the
        package builds itself.  Checks shape, sign and each column's sum as
        the row constructor does, with the same error texts."""
        columns = [(tuple(nums), den) for nums, den in columns]
        if not columns or not columns[0][0]:
            raise ValueError("matrix must be non-empty")
        height = len(columns[0][0])
        if any(len(nums) != height for nums, _ in columns):
            raise ValueError("ragged matrix")
        out = object.__new__(cls)
        out._set_columns(columns)
        return out

    def _set_columns(self, columns: list[tuple[tuple[int, ...], int]]) -> None:
        """Check sign and column sums of same-height integer columns, reduce
        each by its gcd and store them."""
        if any(den < 1 or min(nums) < 0 for nums, den in columns):
            raise ValueError("entries must be non-negative")
        for j, (nums, den) in enumerate(columns):
            s = sum(nums)
            if s != den:
                raise ValueError(f"column {j} sums to {Fraction(s, den)}, expected 1")
            g = gcd(*nums)
            if g > 1:
                columns[j] = (tuple([n // g for n in nums]), den // g)
        object.__setattr__(self, "_columns", tuple(columns))

    @property
    def rows(self) -> int:
        return len(self._columns[0][0])

    @property
    def cols(self) -> int:
        return len(self._columns)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The matrix as rows of `Fraction`s (a view built on each read)."""
        return tuple(zip(*(tuple(Fraction(n, den) for n in nums) for nums, den in self._columns)))

    def column_point(self, j: int) -> SimplexPoint:
        nums, den = self._columns[j]
        return SimplexPoint(Fraction(n, den) for n in nums)

    def _combine(self, weight_vectors: Iterable[Sequence[int]]) -> Iterator[tuple[list[int], int]]:
        """For each vector w of non-negative integer weights, the convex
        combination sum_k w_k column_k as numerators over sum(w) times the
        lcm of the column denominators."""
        scale = lcm(*(den for _, den in self._columns))
        factors = [scale // den for _, den in self._columns]
        rows = list(zip(*(nums for nums, _ in self._columns)))
        for weights in weight_vectors:
            scaled = list(map(mul, weights, factors))
            yield [sum(map(mul, row, scaled)) for row in rows], scale * sum(weights)

    def apply(self, point: SimplexPoint) -> SimplexPoint:
        if point.dim != self.cols:
            raise ValueError(
                f"map expects {self.cols} coordinates, point has {point.dim}"
            )
        [(nums, den)] = self._combine([_over_lcm(point.coords)[0]])
        return SimplexPoint(Fraction(n, den) for n in nums)

    def compose(self, inner: "StochasticAffineMap") -> "StochasticAffineMap":
        """self o inner: apply `inner` first."""
        if self.cols != inner.rows:
            raise ValueError("composition shape mismatch")
        return StochasticAffineMap._from_int_columns(self._combine(nums for nums, _ in inner._columns))

    @staticmethod
    def identity(n: int) -> "StochasticAffineMap":
        return StochasticAffineMap._from_int_columns(_vertex_columns(n))

    @staticmethod
    def vertex_fixing(new_vertex_image: SimplexPoint) -> "StochasticAffineMap":
        """Map from an (n+1)-vertex simplex onto an n-vertex one that fixes
        the first n vertices and sends the last vertex to the given point."""
        n = new_vertex_image.dim
        return StochasticAffineMap._from_int_columns(
            [*_vertex_columns(n), _over_lcm(new_vertex_image.coords)]
        )
