"""Finite-depth computations in the dimension-group picture of K0.

For a triangular diagram the ordered K0 group sits inside the product of
integers: sequences x whose entries eventually obey the same recurrence as
the characteristic sizes, x_{n+1} = sum_j m_j^(n) x_j, with the pointwise
order and the size sequence itself as order unit.  Only prefix-level
questions are answered; nothing is claimed about the infinite group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .diagram import TriangularSpec
from .errors import BratteliError, InsufficientPrefixError


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BratteliError(f"expected an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class K0Element:
    """An integer-sequence prefix, optionally asserting the recurrence from
    a given index onward."""

    prefix: tuple[int, ...]
    eventual_from: int | None = None

    def __init__(self, prefix: Iterable[int], eventual_from: int | None = None) -> None:
        p = tuple(_as_int(x) for x in prefix)
        if not p:
            raise BratteliError("an element needs at least one entry")
        if eventual_from is not None and not 0 <= _as_int(eventual_from) < len(p):
            raise BratteliError("eventual_from outside the prefix")
        object.__setattr__(self, "prefix", p)
        object.__setattr__(self, "eventual_from", eventual_from)


def recurrence_check(spec: TriangularSpec, x: Sequence[int]) -> int | None:
    """Smallest index from which x_{n+1} = sum_j m_j^(n) x_j holds through
    the prefix; None when even the final step fails.  Prefixes of length
    less than 2 have no checkable step and return 0 vacuously."""
    xs = [_as_int(v) for v in x]
    if not xs:
        raise BratteliError("empty sequence")
    steps = len(xs) - 1
    if steps > spec.levels_defined:
        raise InsufficientPrefixError(
            f"sequence needs {steps} multiplicity vectors, spec has {spec.levels_defined}"
        )
    holds_from = len(xs) - 1
    for n in range(steps - 1, -1, -1):
        m = spec.mvectors[n]
        if xs[n + 1] == sum(m[j] * xs[j] for j in range(n + 1)):
            holds_from = n
        else:
            break
    if holds_from == len(xs) - 1 and steps > 0:
        return None
    return holds_from


def positivity_check(x: K0Element | Sequence[int]) -> bool:
    """Pointwise non-negativity of the prefix (the inherited order)."""
    entries = x.prefix if isinstance(x, K0Element) else tuple(_as_int(v) for v in x)
    return all(v >= 0 for v in entries)


@dataclass(frozen=True)
class ProjectionWitness:
    index: int
    element: K0Element
    projection: tuple[int, ...]


def nondegeneracy_witness(
    spec: TriangularSpec, indices: Sequence[int], depth: int
) -> list[ProjectionWitness]:
    """For each index f in the set, an element projecting onto the f-th
    standard basis vector of the chosen coordinates.

    Coordinates up to max(indices) are free, so the witness fixes the
    indicator of f there and lets the recurrence force the rest; this always
    succeeds on triangular specs.
    """
    idx = sorted(set(_as_int(i) for i in indices))
    if not idx:
        raise BratteliError("need at least one coordinate index")
    if idx[0] < 0:
        raise BratteliError("coordinate indices must be non-negative")
    top = idx[-1]
    if _as_int(depth) < top + 1:
        raise BratteliError(f"depth must be at least max(indices) + 1 = {top + 1}")
    if depth > spec.levels_defined:
        raise InsufficientPrefixError(
            f"depth {depth} exceeds the {spec.levels_defined} defined levels"
        )
    out = []
    for f in idx:
        xs = [1 if n == f else 0 for n in range(top + 1)]
        for n in range(top, depth):
            m = spec.mvectors[n]
            xs.append(sum(m[j] * xs[j] for j in range(n + 1)))
        element = K0Element(xs, eventual_from=top)
        projection = tuple(xs[i] for i in idx)
        expected = tuple(1 if i == f else 0 for i in idx)
        if projection != expected:
            raise AssertionError("witness construction failed to project correctly")
        out.append(ProjectionWitness(f, element, projection))
    return out
