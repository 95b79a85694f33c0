"""Data model for Bratteli diagrams given as finite prefixes.

A prefix is a chain of dimension vectors u_1, ..., u_N (matrix-algebra sizes,
one entry per vertex of a level) connected by non-negative integer
multiplicity matrices A_1, ..., A_{N-1}, with A_n u_n <= u_{n+1} entrywise and
equality exactly when the connecting maps are unital.  The triangular family
adds one vertex per level: level n has sizes (k_0, ..., k_n) where the new
size obeys the recurrence k_{n+1} = sum_j m_j^(n) k_j over the level's
multiplicity vector m^(n).

All integers are Python ints (arbitrary precision); the k-sequence grows at
least exponentially, so fixed-width arithmetic is never used.  Every value
here is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

from .errors import InsufficientPrefixError, InvalidPrefixError


def _as_int_tuple(values: Iterable) -> tuple[int, ...]:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"expected integer entries, got {v!r}")
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class DimensionVector:
    """Sizes of the matrix-algebra summands at one level, one per vertex."""

    entries: tuple[int, ...]

    def __init__(self, entries: Iterable) -> None:
        ent = _as_int_tuple(entries)
        if not ent:
            raise ValueError("a level must have at least one vertex")
        if any(e < 0 for e in ent):
            raise ValueError("matrix sizes cannot be negative")
        object.__setattr__(self, "entries", ent)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class MultiplicityMatrix:
    """Non-negative integer matrix of edge multiplicities between two levels.

    Entry (i, j) counts the edges from vertex j of the source level into
    vertex i of the target level.  A valid connecting matrix is
    non-degenerate: no zero row and no zero column; `validate` on the prefix
    reports degeneracy rather than the constructor, so that broken inputs can
    still be represented and diagnosed.
    """

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Iterable[Iterable]) -> None:
        rows = tuple(_as_int_tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        if any(e < 0 for r in rows for e in r):
            raise ValueError("multiplicities cannot be negative")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product over the integers."""
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch in matrix application")
        return tuple(sum(r[j] * vector[j] for j in range(self.cols)) for r in self.entries)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "MultiplicityMatrix":
        if not row_idx or not col_idx:
            raise ValueError("empty submatrix")
        return MultiplicityMatrix(
            tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        )

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )


@dataclass(frozen=True)
class ValidationIssue:
    level: int
    code: str
    detail: str

    def __str__(self) -> str:
        return f"level {self.level}: {self.code} ({self.detail})"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


@dataclass(frozen=True)
class BratteliPrefix:
    """Finite truncation of a Bratteli diagram.

    `levels[n]` holds the dimension vector of level n (0-based) and
    `matrices[n]` connects level n to level n+1, so a prefix with N levels
    carries N-1 matrices.  `unital` records whether the connecting maps are
    unital (A_n u_n = u_{n+1}); it is an input flag, never inferred.
    """

    levels: tuple[DimensionVector, ...]
    matrices: tuple[MultiplicityMatrix, ...]
    unital: bool = True

    def __init__(
        self,
        levels: Iterable,
        matrices: Iterable = (),
        unital: bool = True,
    ) -> None:
        lv = tuple(
            l if isinstance(l, DimensionVector) else DimensionVector(l) for l in levels
        )
        mats = tuple(
            m if isinstance(m, MultiplicityMatrix) else MultiplicityMatrix(m)
            for m in matrices
        )
        if not lv:
            raise ValueError("a prefix needs at least one level")
        if len(mats) != len(lv) - 1:
            raise ValueError(
                f"{len(lv)} levels require {len(lv) - 1} matrices, got {len(mats)}"
            )
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "unital", bool(unital))

    @property
    def depth(self) -> int:
        """Number of levels in the prefix."""
        return len(self.levels)

    def width(self, n: int) -> int:
        return len(self.levels[n])

    def validate(self) -> ValidationReport:
        """Check every structural invariant and report all violations.

        Checks, per level / matrix: positive matrix sizes, shape chaining,
        non-degeneracy (no zero row or column), entrywise domination
        A_n u_n <= u_{n+1}, and equality when the prefix claims unitality.
        """
        issues: list[ValidationIssue] = []
        for n, lv in enumerate(self.levels):
            for i, e in enumerate(lv):
                if e < 1:
                    issues.append(
                        ValidationIssue(n, "nonpositive size", f"u_{n}({i}) = {e}")
                    )
        for n, mat in enumerate(self.matrices):
            if mat.rows != len(self.levels[n + 1]) or mat.cols != len(self.levels[n]):
                issues.append(
                    ValidationIssue(
                        n,
                        "shape mismatch",
                        f"A_{n} is {mat.rows}x{mat.cols}, expected "
                        f"{len(self.levels[n + 1])}x{len(self.levels[n])}",
                    )
                )
                continue  # dependent checks would be meaningless
            for i, row in enumerate(mat.entries):
                if not any(row):
                    issues.append(
                        ValidationIssue(n, "degenerate matrix", f"zero row {i} in A_{n}")
                    )
            for j, col in enumerate(zip(*mat.entries)):
                if not any(col):
                    issues.append(
                        ValidationIssue(n, "degenerate matrix", f"zero column {j} in A_{n}")
                    )
            source = self.levels[n].entries
            image = tuple(sum(map(mul, row, source)) for row in mat.entries)
            target = self.levels[n + 1].entries
            if any(a > b for a, b in zip(image, target)):
                issues.append(
                    ValidationIssue(
                        n, "domination", f"A_{n} u_{n} = {image} exceeds u_{n+1} = {target}"
                    )
                )
            elif self.unital and image != target:
                issues.append(
                    ValidationIssue(
                        n, "unitality", f"A_{n} u_{n} = {image} != u_{n+1} = {target}"
                    )
                )
        return ValidationReport(tuple(issues))

    def require_valid(self) -> "BratteliPrefix":
        report = self.validate()
        if not report.ok:
            raise InvalidPrefixError(report.issues)
        return self

    def truncate(self, depth: int) -> "BratteliPrefix":
        """First `depth` levels of the prefix."""
        if not 1 <= depth <= self.depth:
            raise InsufficientPrefixError(f"cannot truncate depth-{self.depth} prefix to {depth}")
        return BratteliPrefix(self.levels[:depth], self.matrices[: depth - 1], self.unital)


@dataclass(frozen=True)
class TriangularSpec:
    """One-new-vertex-per-level diagram family.

    Determined by the starting size k0 >= 1 and multiplicity vectors
    m^(0), m^(1), ... where m^(n) has n+1 non-negative entries, not all zero.
    Level n of the embedded diagram has sizes (k_0, ..., k_n); the connecting
    matrix stacks an identity block over the row m^(n).
    """

    k0: int
    mvectors: tuple[tuple[int, ...], ...]

    def __init__(self, k0: int, mvectors: Iterable[Iterable]) -> None:
        if not isinstance(k0, int) or isinstance(k0, bool) or k0 < 1:
            raise ValueError("k0 must be a positive integer")
        mvs = tuple(_as_int_tuple(m) for m in mvectors)
        for n, m in enumerate(mvs):
            if len(m) != n + 1:
                raise ValueError(f"m^({n}) must have {n + 1} entries, got {len(m)}")
            if any(e < 0 for e in m):
                raise ValueError(f"m^({n}) has a negative entry")
            if all(e == 0 for e in m):
                raise ValueError(f"m^({n}) is the zero vector")
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "mvectors", mvs)

    @property
    def levels_defined(self) -> int:
        """Largest level index whose dimension data this spec determines."""
        return len(self.mvectors)


def characteristic_sequence(spec: TriangularSpec, count: int) -> tuple[int, ...]:
    """Exact sizes (k_0, ..., k_count) of the stable matrix-algebra quotients.

    k_{n+1} = sum_j m_j^(n) k_j; all arithmetic is arbitrary precision.
    """
    if count < 0:
        raise ValueError("level count must be non-negative")
    if count > spec.levels_defined:
        raise InsufficientPrefixError(
            f"spec defines {spec.levels_defined} multiplicity vectors, need {count}"
        )
    ks = [spec.k0]
    for n in range(count):
        m = spec.mvectors[n]
        ks.append(sum(m[j] * ks[j] for j in range(n + 1)))
    return tuple(ks)


def embed_triangular(spec: TriangularSpec, count: int) -> BratteliPrefix:
    """Materialize levels 0..count of the triangular diagram as a prefix.

    The connecting matrix at level n is (n+2)x(n+1): identity on top, the
    multiplicity vector m^(n) as the bottom row.  The result is unital by
    construction.
    """
    ks = characteristic_sequence(spec, count)
    levels = [DimensionVector(ks[: n + 1]) for n in range(count + 1)]
    matrices = []
    for n in range(count):
        ident = [[1 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
        matrices.append(MultiplicityMatrix(ident + [list(spec.mvectors[n])]))
    return BratteliPrefix(levels, matrices, unital=True)
