"""Finite-stage trace simplices of a diagram and the maps between them.

The tracial states of a finite-dimensional algebra form a standard simplex
with one vertex per matrix summand (the normalized trace on that summand).
A unital embedding with multiplicity matrix A and sizes k -> l induces the
column-stochastic map whose (j, i) entry is A(i, j) k_j / l_i: unitality
makes each column sum to exactly 1, so everything stays in exact rationals.
Column i is built as the integers (A(i, j) k_j)_j over l_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence, Union

from .diagram import BratteliPrefix, DimensionVector, MultiplicityMatrix, TriangularSpec, characteristic_sequence
from .errors import BratteliError, InsufficientPrefixError
from .rfd import RfdWitness
from .simplex import SimplexPoint, StochasticAffineMap


def _unital_step(
    matrix: MultiplicityMatrix,
    u_src: DimensionVector | Sequence[int],
    u_dst: DimensionVector | Sequence[int],
    n: int = 0,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The size vectors of the diagram step from level n to level n+1,
    checked to fit the matrix, to be positive and to be carried onto each
    other unitally."""
    src = tuple(u_src)
    dst = tuple(u_dst)
    if matrix.cols != len(src) or matrix.rows != len(dst):
        raise BratteliError("matrix shape does not match the size vectors")
    for level, sizes in ((n, src), (n + 1, dst)):
        if min(sizes) < 1:
            j = next(j for j, e in enumerate(sizes) if e < 1)
            raise BratteliError(f"nonpositive size at level {level}: u_{level}({j}) = {sizes[j]}")
    if matrix.apply(src) != dst:
        raise BratteliError("non-unital step: A u_src != u_dst")
    return src, dst


def induced_trace_map(
    matrix: MultiplicityMatrix,
    u_src: DimensionVector | Sequence[int],
    u_dst: DimensionVector | Sequence[int],
) -> StochasticAffineMap:
    """Map on trace simplices induced by one unital diagram step.

    Sends the i-th target vertex to the point (A(i,j) k_j / l_i)_j over the
    source vertices.  Rejects non-unital steps, where the columns would not
    sum to 1.
    """
    src, dst = _unital_step(matrix, u_src, u_dst)
    return StochasticAffineMap(
        SimplexPoint._from_ints(map(mul, row, src), l) for row, l in zip(matrix.entries, dst)
    )


def level_maps(prefix: BratteliPrefix) -> list[StochasticAffineMap]:
    """One induced map per diagram step, each sending level n+1 traces to
    level n traces."""
    prefix.require_valid()
    return [
        induced_trace_map(prefix.matrices[n], prefix.levels[n], prefix.levels[n + 1])
        for n in range(prefix.depth - 1)
    ]


def zeta(spec: TriangularSpec, n: int) -> SimplexPoint:
    """Image of the newly created vertex of level n+1 under the induced map:
    (m_0 k_0, ..., m_n k_n) / k_{n+1} with m = the level's multiplicity
    vector.  Sums to 1 exactly by the defining recurrence."""
    if n < 0:
        raise BratteliError("level must be non-negative")
    if n >= spec.levels_defined:
        raise InsufficientPrefixError(
            f"spec defines levels through {spec.levels_defined - 1}, asked for {n}"
        )
    ks = characteristic_sequence(spec, n + 1)
    m = spec.mvectors[n]
    return SimplexPoint._from_ints([m[j] * ks[j] for j in range(n + 1)], ks[n + 1])


def push_point(prefix: BratteliPrefix, point: SimplexPoint, src_level: int, dst_level: int) -> SimplexPoint:
    """Push a trace point down the diagram through the induced maps.

    Each step applies the induced map of `induced_trace_map` without
    building it, on the point's integers: y_j = k_j sum_i A(i, j) x_i / l_i
    over the old denominator times lcm(l), stored as a new point, whose gcd
    reduction bounds the integers' growth.  Every step is checked for shape
    and unitality as there.
    """
    if not 0 <= dst_level < src_level < prefix.depth:
        raise BratteliError("need 0 <= target level < source level < depth")
    if point.dim != prefix.width(src_level):
        raise BratteliError(
            f"point has {point.dim} coordinates, level {src_level} has width {prefix.width(src_level)}"
        )
    for n in range(src_level - 1, dst_level - 1, -1):
        matrix = prefix.matrices[n]
        src, dst = _unital_step(matrix, prefix.levels[n], prefix.levels[n + 1], n)
        scale = lcm(*dst)
        weighted = [x * (scale // l) for x, l in zip(point.nums, dst)]
        nums = [k * sum(map(mul, column, weighted)) for k, column in zip(src, zip(*matrix.entries))]
        point = SimplexPoint._from_ints(nums, point.den * scale)
    return point


def limit_trace_restriction(t: Sequence, n: int) -> SimplexPoint:
    """Coefficients of the limit trace of a stationary family on level n:
    the normalized head (t_0, ..., t_n)."""
    if n < 0:
        raise BratteliError("level must be non-negative")
    head = [Fraction(x) for x in t[: n + 1]]
    if len(head) != n + 1:
        raise InsufficientPrefixError(f"need {n + 1} weights, got {len(head)}")
    if any(x < 0 for x in head):
        raise BratteliError("weights must be non-negative")
    if sum(head) == 0:
        raise BratteliError(f"weights are all zero through level {n}")
    return SimplexPoint.normalized(head)


@dataclass(frozen=True)
class TraceLabel:
    """Classification of an extremal-trace descriptor.

    kind is "type-I" (with the factoring matrix size k), "type-II1-candidate"
    (a coherent family never pinned to a vertex; extremality of the limit is
    not decided here), or "unclassified".
    """

    kind: str
    k: int | None = None


TraceDescriptor = Union[int, Sequence[SimplexPoint]]


def label_trace(
    prefix: BratteliPrefix, witness: RfdWitness, descriptor: TraceDescriptor
) -> TraceLabel:
    """Label a stable-line index or a coherent family of level points.

    A line index j maps to type I with size k_j.  A family (one point per
    level, starting at level 0) must satisfy f_n(xi^(n+1)) = xi^(n) exactly
    for the diagram's induced maps; if its final point is a vertex on a
    stable line the family is type I, if the final point is no vertex at all
    it is a type II1 candidate, and a vertex off the stable lines cannot be
    classified from the prefix.
    """
    if isinstance(descriptor, int):
        j = descriptor
        if not 0 <= j < len(witness.kseq):
            raise BratteliError(f"line {j} is not a certified stable line")
        return TraceLabel("type-I", witness.kseq[j])

    points = list(descriptor)
    if not points:
        raise BratteliError("empty family")
    if len(points) > prefix.depth:
        raise BratteliError("family longer than the prefix")
    maps = level_maps(prefix.truncate(len(points)))
    for n in range(len(points) - 1):
        if maps[n].apply(points[n + 1]) != points[n]:
            raise BratteliError(f"incoherent family: f_{n}(xi^({n+1})) != xi^({n})")
    v = points[-1].vertex_index()
    if v is None:
        return TraceLabel("type-II1-candidate")
    if v < len(witness.kseq):
        return TraceLabel("type-I", witness.kseq[v])
    return TraceLabel("unclassified")
