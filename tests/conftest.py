from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from bratteli import (
    BratteliError,
    BratteliPrefix,
    IdealProfile,
    MultiplicityMatrix,
    SimplexPoint,
    StochasticAffineMap,
    TriangularSpec,
    embed_triangular,
    profile_is_valid,
)
from bratteli.fixtures import fixture_diagram


def all_ones_spec(depth: int) -> TriangularSpec:
    return TriangularSpec(1, [(1,) * (n + 1) for n in range(depth)])


@pytest.fixture
def ones12() -> TriangularSpec:
    return all_ones_spec(12)


@pytest.fixture
def ex57a_right() -> BratteliPrefix:
    return fixture_diagram("ex57A-right")


@pytest.fixture
def ex57a_left() -> BratteliPrefix:
    return fixture_diagram("ex57A-left")


@pytest.fixture
def ex57b() -> BratteliPrefix:
    return fixture_diagram("ex57B")


def random_nondegenerate_matrix(rng: random.Random, rows: int, cols: int) -> MultiplicityMatrix:
    entries = [[rng.randrange(0, 4) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        if all(e == 0 for e in entries[i]):
            entries[i][rng.randrange(cols)] = rng.randrange(1, 4)
    for j in range(cols):
        if all(entries[i][j] == 0 for i in range(rows)):
            entries[rng.randrange(rows)][j] = rng.randrange(1, 4)
    return MultiplicityMatrix(entries)


def random_unital_prefix(
    rng: random.Random, max_depth: int = 3, max_width: int = 4
) -> BratteliPrefix:
    depth = rng.randrange(2, max_depth + 1)
    widths = [rng.randrange(1, max_width + 1) for _ in range(depth)]
    levels = [[rng.randrange(1, 4) for _ in range(widths[0])]]
    matrices = []
    for n in range(depth - 1):
        mat = random_nondegenerate_matrix(rng, widths[n + 1], widths[n])
        matrices.append(mat)
        levels.append(list(mat.apply(levels[-1])))
    return BratteliPrefix(levels, matrices, unital=True)


def brute_force_profiles(prefix: BratteliPrefix) -> list[IdealProfile]:
    """Oracle: filter every per-level subset combination by both rules."""
    widths = [prefix.width(n) for n in range(prefix.depth)]
    out = []
    for combo in itertools.product(*[range(1 << w) for w in widths]):
        T = [
            tuple(v for v in range(w) if combo[n] >> v & 1)
            for n, w in enumerate(widths)
        ]
        profile = IdealProfile(T)
        if profile_is_valid(prefix, profile):
            out.append(profile)
    return sorted(out, key=IdealProfile.sort_key)


def reference_approximation(xi: SimplexPoint, eps, scan_cap: int) -> tuple[int, ...]:
    """Oracle: the denominator scan of `approximate_on_simplex` in plain
    Fraction arithmetic, rounding by largest remainder at each D."""
    eps = Fraction(eps)
    for d in range(1, scan_cap + 1):
        base = [int(c * d) for c in xi.coords]  # floor: c*d is a Fraction
        remainders = [(c * d - b, -j) for j, (c, b) in enumerate(zip(xi.coords, base))]
        deficit = d - sum(base)
        for _, neg_j in sorted(remainders, reverse=True)[:deficit]:
            base[-neg_j] += 1
        ell = [max(1, b) for b in base]
        total = sum(ell)
        if all(abs(Fraction(l, total) - c) < eps for l, c in zip(ell, xi.coords)):
            return tuple(ell)
    raise BratteliError(f"no approximation found within denominator cap {scan_cap}")


def random_unital_step(rng: random.Random):
    cols = rng.randrange(1, 5)
    rows = rng.randrange(1, 6)
    mat = random_nondegenerate_matrix(rng, rows, cols)
    u_src = [rng.randrange(1, 6) for _ in range(cols)]
    u_dst = list(mat.apply(u_src))
    return mat, u_src, u_dst


def random_point(rng: random.Random, dim: int) -> SimplexPoint:
    weights = [Fraction(rng.randrange(0, 9), rng.randrange(1, 9)) for _ in range(dim)]
    if all(w == 0 for w in weights):
        weights[rng.randrange(dim)] = Fraction(1)
    return SimplexPoint.normalized(weights)


def random_stochastic_map(rng: random.Random, rows: int, cols: int) -> StochasticAffineMap:
    return StochasticAffineMap.from_columns([random_point(rng, rows) for _ in range(cols)])


def embed(spec: TriangularSpec, depth: int) -> BratteliPrefix:
    return embed_triangular(spec, depth)
