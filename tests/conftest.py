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


# --- brute-force oracles for the strict RFD search ---------------------------


def _top_rules(prefix: BratteliPrefix, i: int, r: int) -> bool:
    """Rows 0..r-1 of A_i are the identity rows and those sizes repeat."""
    rows = prefix.matrices[i].entries
    m = len(rows[0])
    u_src, u_dst = prefix.levels[i].entries, prefix.levels[i + 1].entries
    return r <= len(rows) and all(
        list(rows[j]) == [1 if k == j else 0 for k in range(m)] and u_dst[j] == u_src[j]
        for j in range(r)
    )


def _transition_ok(prefix: BratteliPrefix, i: int, r: int, r_next: int, ji: bool) -> bool:
    """The rfd module docstring's rules for (r at level i) -> (r_next at level
    i+1), plus the top rules of the next matrix at r_next (the lookahead)."""
    rows = prefix.matrices[i].entries
    m = len(rows[0])
    if not (1 <= r <= m and r <= r_next <= len(rows)) or not _top_rules(prefix, i, r):
        return False
    if any(all(rows[j][k] == 0 for j in range(r, r_next)) for k in range(r, m)):
        return False  # a zero column in A22
    if ji and any(rows[j][k] == 0 for j in range(r, len(rows)) for k in range(m)):
        return False  # a zero entry in A21, A22, A31 or A32
    return i + 1 == len(prefix.matrices) or _top_rules(prefix, i + 1, r_next)


def brute_strict(prefix: BratteliPrefix, ji: bool):
    """("fail", level, reach) or ("ok", r, kseq), by extending every
    non-decreasing r-sequence one level at a time; reach lists the stable
    counts that the sequences surviving to the failing level end in."""
    partial = [(r,) for r in range(1, prefix.width(0) + 1)]
    for i in range(prefix.depth - 1):
        # Each transition is checked once; the sequences are still all kept.
        admissible = {
            r: [
                r_next
                for r_next in range(r, prefix.width(i + 1) + 1)
                if _transition_ok(prefix, i, r, r_next, ji)
            ]
            for r in {seq[-1] for seq in partial}
        }
        extended = [seq + (r_next,) for seq in partial for r_next in admissible[seq[-1]]]
        if not extended:
            return ("fail", i, sorted({seq[-1] for seq in partial}))
        partial = extended
    interior = max(seq[:-1] for seq in partial)
    finals = [seq[-1] for seq in partial if seq[:-1] == interior]
    strict = [f for f in finals if f > interior[-1]]
    r = interior + (min(strict) if strict else min(finals),)
    return ("ok", r, prefix.levels[-1].entries[: r[-1]])


_RULE_NAMES = {
    1: "identity block mismatch",
    2: "dimension stability violated",
    3: "zero column in A^(2,2)",
    4: "zero entry in positivity block",
}


def _top_failure(prefix: BratteliPrefix, i: int, r: int) -> tuple[int, str] | None:
    mat = prefix.matrices[i]
    for j in range(r):
        row = mat.row(j)
        for k in range(mat.cols):
            if row[k] != (1 if k == j else 0):
                return 1, f"row {j} of A_{i} is not the identity row e_{j}"
    u_src = prefix.levels[i].entries
    u_dst = prefix.levels[i + 1].entries
    for j in range(r):
        if u_dst[j] != u_src[j]:
            return 2, f"u_{i+1}({j}) = {u_dst[j]} != u_{i}({j}) = {u_src[j]}"
    return None


def _a22_failure(mat: MultiplicityMatrix, r: int, r_next: int) -> tuple[int, str] | None:
    """Each column of the (r_next - r) x (m - r) block A22 must be non-zero."""
    for k in range(r, mat.cols):
        if all(mat.entry(j, k) == 0 for j in range(r, r_next)):
            return 3, f"column {k} has no edge into a new stable line"
    return None


def _positivity_failure(
    mat: MultiplicityMatrix, r: int, r_next: int
) -> tuple[int, str] | None:
    for j in range(r, mat.rows):
        for k in range(mat.cols):
            if mat.entry(j, k) == 0:
                if j < r_next:
                    block = "A^(2,1)" if k < r else "A^(2,2)"
                else:
                    block = "A^(3,1)" if k < r else "A^(3,2)"
                return 4, f"zero entry in block {block} at row {j}, column {k}"
    return None


def _edge_failure(
    prefix: BratteliPrefix, i: int, r: int, r_next: int, ji: bool
) -> tuple[int, str] | None:
    """First violated rule for the transition (r at level i) -> (r_next at
    level i+1) across matrix i, or None when admissible.  Includes a
    one-matrix lookahead on r_next so a choice that the next matrix already
    forbids is rejected here."""
    mat = prefix.matrices[i]
    if not r <= r_next <= prefix.width(i + 1):
        return 0, "stable count must be non-decreasing and at most the width"
    fail = _top_failure(prefix, i, r)
    if fail:
        return fail
    fail = _a22_failure(mat, r, r_next)
    if fail:
        return fail
    if ji:
        fail = _positivity_failure(mat, r, r_next)
        if fail:
            return fail
    if i + 1 < len(prefix.matrices):
        return _top_failure(prefix, i + 1, r_next)
    return None


def _pick_reason(level: int, pairs, rfd_edge) -> str:
    """Deterministic, most-informative reason among the failing transitions."""
    best = None
    for r, r_next, fail in pairs:
        if fail is None:
            continue
        code, detail = fail
        key = (code, r, -r_next)
        if rfd_edge == (r, r_next) and code == 4:
            return f"{_RULE_NAMES[code]}: {detail} (matrix {level})"
        if best is None or key > best[0]:
            best = (key, code, detail)
    assert best is not None
    return f"{_RULE_NAMES[best[1]]}: {best[2]} (matrix {level})"


def reference_reason(prefix: BratteliPrefix, ji: bool) -> str:
    """Oracle: the reason of a failing strict check, by wording every
    transition (r -> r_next) out of the brute-force reach at the failing
    level rule by rule.  The largest (code, r, -r_next) wins; under JI a
    positivity failure on the edge of the RFD witness wins outright."""
    verdict, level, reach = brute_strict(prefix, ji)
    assert verdict == "fail"
    rfd_edge = None
    if ji:
        rfd = brute_strict(prefix, False)
        if rfd[0] == "ok":
            rfd_edge = (rfd[1][level], rfd[1][level + 1])
    pairs = [
        (r, r_next, _edge_failure(prefix, level, r, r_next, ji))
        for r in reach
        for r_next in range(r, prefix.width(level + 1) + 1)
    ]
    return _pick_reason(level, pairs, rfd_edge)
