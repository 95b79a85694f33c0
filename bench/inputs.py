"""Benchmark inputs, built without the package under test.

Every diagram and target file an op reads is made here from plain Python
data, so a change to the package cannot change the inputs it is measured
on.  The ex57 families are rebuilt from their definitions rather than taken
from `bratteli fixtures`, and nothing `synthesize` prints is ever read back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Diagram:
    """A unital diagram prefix as sizes per level and connecting matrices.

    `matrices[n][i][j]` counts the edges from vertex j of level n into
    vertex i of level n + 1.  `text` is the file the op reads.
    """

    levels: tuple[tuple[int, ...], ...]
    matrices: tuple[tuple[tuple[int, ...], ...], ...]
    text: str

    @property
    def depth(self) -> int:
        return len(self.levels)


def _apply(matrix, sizes) -> tuple[int, ...]:
    return tuple(sum(a * s for a, s in zip(row, sizes)) for row in matrix)


def triangular(k0: int, mvectors) -> Diagram:
    """One new vertex per level: identity over the row m^(n)."""
    mvs = tuple(tuple(m) for m in mvectors)
    levels = [(k0,)]
    matrices = []
    for n, m in enumerate(mvs):
        ident = tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1))
        mat = ident + (m,)
        matrices.append(mat)
        levels.append(_apply(mat, levels[-1]))
    text = canonical_json(
        {"format": "triangular", "k0": k0, "mvectors": [list(m) for m in mvs]}
    )
    return Diagram(tuple(levels), tuple(matrices), text)


def general(u1: int, matrices) -> Diagram:
    mats = tuple(tuple(tuple(r) for r in m) for m in matrices)
    levels = [(u1,)]
    for mat in mats:
        levels.append(_apply(mat, levels[-1]))
    text = canonical_json(
        {
            "format": "general",
            "unital": True,
            "u1": [u1],
            "matrices": [[list(r) for r in m] for m in mats],
        }
    )
    return Diagram(tuple(levels), mats, text)


# --- triangular families ------------------------------------------------------


def ones(depth: int, k0: int) -> Diagram:
    return triangular(k0, [(1,) * (n + 1) for n in range(depth)])


def positive(depth: int, k0: int, rng) -> Diagram:
    """Seeded multiplicities in 1..3: every entry positive, so the diagram
    keeps the just-infinite block form."""
    return triangular(k0, [tuple(rng.randint(1, 3) for _ in range(n + 1)) for n in range(depth)])


def zeros(depth: int, k0: int, rng) -> Diagram:
    """One seeded zero per row m^(n) (n >= 1), off the identity blocks.

    These pass the RFD check but fail RFD-JI at the first matrix with a
    zero, after the full search.  One zero per level keeps the search cost
    the same for every seed."""
    mvs = []
    for n in range(depth):
        m = [rng.randint(1, 3) for _ in range(n + 1)]
        if n >= 1:
            m[rng.randrange(n)] = 0
        mvs.append(tuple(m))
    return triangular(k0, mvs)


# --- the ex57 general families ------------------------------------------------


def ex57a_left(depth: int, u1: int) -> Diagram:
    """CAR-quotient diagram as drawn: doubling on vertex 0, the old lines,
    then an all-ones row.  `depth` counts matrices."""
    mats = []
    for i in range(depth):
        w = i + 1
        rows = [[2] + [0] * (w - 1)]
        rows += [[int(b == j) for b in range(w)] for j in range(1, w)]
        rows.append([1] * w)
        mats.append(rows)
    return general(u1, mats)


def ex57a_right(depth: int, u1: int) -> Diagram:
    """The same diagram reordered into block form."""
    mats = []
    for i in range(depth):
        w = i + 1
        rows = [[int(b == j) for b in range(w)] for j in range(w - 1)]
        rows.append([1] * w)
        rows.append([0] * (w - 1) + [2])
        mats.append(rows)
    return general(u1, mats)


def ex57b(depth: int, u1: int) -> Diagram:
    """Identity over the row (0 ... 0 2)."""
    mats = []
    for i in range(depth):
        w = i + 1
        rows = [[int(b == j) for b in range(w)] for j in range(w)]
        rows.append([0] * (w - 1) + [2])
        mats.append(rows)
    return general(u1, mats)


FAMILIES = {
    "ex57A-left": ex57a_left,
    "ex57A-right": ex57a_right,
    "ex57B": ex57b,
}


# --- simplex targets ----------------------------------------------------------


def geometric_weights(ratio: Fraction, n: int) -> list[Fraction]:
    return [ratio**j for j in range(n + 1)]


def normalized(weights) -> list[Fraction]:
    total = sum(weights)
    return [Fraction(w) / total for w in weights]


def nth_permutation(items, k: int) -> list:
    """The k-th permutation of `items` in lexicographic order (k taken
    modulo the number of permutations)."""
    pool, out = list(items), []
    k %= math.factorial(len(pool))
    for i in range(len(pool), 0, -1):
        index, k = divmod(k, math.factorial(i - 1))
        out.append(pool.pop(index))
    return out


def permuted_geometric_points(ratio: Fraction, levels: int, rng, last: int | None = None):
    """Targets xi^(0..levels): the normalized geometric head of each level,
    with its coordinates in a seeded order; `last`, when given, picks the
    permutation of the final level, so distinct values give distinct inputs.

    A permutation changes the input but not the work: the denominator scan
    and the integer sizes depend only on the multiset of coordinates, so
    every seed costs the same."""
    points = []
    for n in range(levels + 1):
        p = normalized(geometric_weights(ratio, n))
        if n == levels and last is not None:
            p = nth_permutation(p, last)
        else:
            rng.shuffle(p)
        points.append(p)
    return points


def targets_text(points) -> str:
    return canonical_json(
        {"format": "targets", "points": [[fraction_text(c) for c in p] for p in points]}
    )
