from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

import pytest

from bratteli import (
    BratteliError,
    BratteliPrefix,
    IdealProfile,
    MultiplicityMatrix,
    SimplexPoint,
    StochasticAffineMap,
    TriangularSpec,
    approximate_on_simplex,
    embed_triangular,
    profile_is_valid,
)
from bratteli.fixtures import fixture_diagram
from bratteli.rfd import RfdBlocks, RfdResult, RfdWitness


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
    coords = xi.coords
    for d in range(1, scan_cap + 1):
        base = [int(c * d) for c in coords]  # floor: c*d is a Fraction
        remainders = [(c * d - b, -j) for j, (c, b) in enumerate(zip(coords, base))]
        deficit = d - sum(base)
        for _, neg_j in sorted(remainders, reverse=True)[:deficit]:
            base[-neg_j] += 1
        ell = [max(1, b) for b in base]
        total = sum(ell)
        if all(abs(Fraction(l, total) - c) < eps for l, c in zip(ell, coords)):
            return tuple(ell)
    raise BratteliError(f"no approximation found within denominator cap {scan_cap}")


def reference_level(ks, ell, reduced: bool):
    """Oracle: the two scales synthesis used before the minimal one, the
    product of the sizes so far or (reduced) their lcm; m_j = (K / k_j) l_j
    and k_next = K sum(l)."""
    scale = lcm(*ks) if reduced else prod(ks)
    mvector = tuple((scale // ks[j]) * ell[j] for j in range(len(ks)))
    k_next = scale * sum(ell)
    zeta_point = SimplexPoint.normalized(ell)
    return mvector, k_next, zeta_point


def reference_synthesis(targets, count: int, k0: int, exact: bool, reduced: bool):
    """Oracle: synthesis level by level under `reference_level`.  Returns the
    sizes k_0..k_{count+1} and one (ell, mvector, k_next, xi, zeta, gap_l1,
    gap_l2sq, eps) record per level."""
    ks = [k0]
    records = []
    for n in range(count + 1):
        xi = targets.point(n)
        eps = Fraction(1, 2**n * (n + 1))
        ell = approximate_on_simplex(xi, eps, exact=exact)
        mvector, k_next, zeta_point = reference_level(ks, ell, reduced)
        records.append(
            (ell, mvector, k_next, xi, zeta_point,
             xi.l1_distance(zeta_point), xi.l2sq_distance(zeta_point), eps)
        )
        ks.append(k_next)
    return ks, records


def reference_g_failing_levels(targets, count: int, vertex_budget: int) -> tuple[int, ...]:
    """Oracle: the levels where the cylinder maps fail to commute.

    g_n sends vertex j to the j-th level vertex when j <= n and to the
    target point otherwise (including the compactifying vertex, labeled
    "inf"); the check verifies f_n o g_{n+1} = g_n on vertices
    e_0..e_{vertex_budget} and "inf" for each level in
    [stationary_from, count).
    """
    start = targets.stationary_from
    if start is None:
        raise BratteliError("g-consistency needs a declared stationary range")
    failing = set()

    def g(n: int, j: int | None) -> SimplexPoint:
        if j is not None and j <= n:
            return SimplexPoint.vertex(n + 1, j)
        return targets.point(n)

    for n in range(start, count):
        f_n = targets.connecting_map(n)
        for j in [*range(vertex_budget + 1), None]:  # None is "inf"
            if f_n.apply(g(n + 1, j)) != g(n, j):
                failing.add(n)
    return tuple(sorted(failing))


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
    return StochasticAffineMap([random_point(rng, rows) for _ in range(cols)])


def reference_limit_vertex_estimate(data, level: int, vertex: int, depth: int):
    """Oracle: `intertwine.limit_vertex_estimate` as it was before it
    computed only the gaps it sums: the whole gap series, then the sum of
    the gaps from `depth` on.  Returns (point, error bound, certified)."""
    from bratteli import compose_range, gap_series

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
    series = gap_series(data)
    certified = data.tail is not None
    bound = sum(series.gaps[j:]) + (data.tail.bound_from(len(series.gaps)) if certified else Fraction(0))
    return point, bound, certified


def column_coords(m) -> tuple[tuple[Fraction, ...], ...]:
    """The coordinates of each column point of a map or a `ReferenceMap`."""
    return tuple(m.column_point(j).coords for j in range(m.cols))


# --- the Fraction oracles for trace-simplex points and maps -----------------


@dataclass(frozen=True, slots=True)
class ReferencePoint:
    """Oracle: the `Fraction` form of `SimplexPoint`, one Fraction per
    coordinate, every check and distance computed in Fractions."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Iterable) -> None:
        cs = tuple(Fraction(v) for v in coords)
        if not cs:
            raise ValueError("a simplex point needs at least one coordinate")
        if any(c < 0 for c in cs):
            raise ValueError("coordinates must be non-negative")
        if sum(cs) != 1:
            raise ValueError(f"coordinates must sum to 1, got {sum(cs)}")
        object.__setattr__(self, "coords", cs)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    @staticmethod
    def vertex(size: int, index: int) -> "ReferencePoint":
        if not 0 <= index < size:
            raise ValueError(f"vertex {index} outside simplex of {size} coordinates")
        return ReferencePoint(tuple(Fraction(int(i == index)) for i in range(size)))

    @staticmethod
    def barycenter(size: int) -> "ReferencePoint":
        return ReferencePoint((Fraction(1, size),) * size)

    @staticmethod
    def normalized(weights: Iterable) -> "ReferencePoint":
        ws = tuple(Fraction(w) for w in weights)
        total = sum(ws)
        if total <= 0 or any(w < 0 for w in ws):
            raise ValueError("weights must be non-negative with positive sum")
        return ReferencePoint(tuple(w / total for w in ws))

    def vertex_index(self) -> int | None:
        ones = [i for i, c in enumerate(self.coords) if c == 1]
        return ones[0] if len(ones) == 1 else None

    def l1_distance(self, other: "ReferencePoint") -> Fraction:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return sum(abs(a - b) for a, b in zip(self.coords, other.coords))

    def l2sq_distance(self, other: "ReferencePoint") -> Fraction:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return sum((a - b) ** 2 for a, b in zip(self.coords, other.coords))

    def common_denominator_strings(self) -> tuple[str, ...]:
        den = lcm(*(x.denominator for x in self.coords))
        return tuple(f"{x.numerator * (den // x.denominator)}/{den}" for x in self.coords)


@dataclass(frozen=True, slots=True)
class ReferenceMap:
    """Oracle: the `Fraction` form of `StochasticAffineMap`, one Fraction
    per entry, every column re-added in Fractions on construction."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, entries: Iterable[Iterable]) -> None:
        rows = tuple(tuple(Fraction(v) for v in r) for r in entries)
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

    def column_point(self, j: int) -> ReferencePoint:
        return ReferencePoint(tuple(r[j] for r in self.entries))

    def apply(self, point) -> ReferencePoint:
        if point.dim != self.cols:
            raise ValueError(
                f"map expects {self.cols} coordinates, point has {point.dim}"
            )
        return ReferencePoint(
            tuple(
                sum(row[j] * point[j] for j in range(self.cols))
                for row in self.entries
            )
        )

    def compose(self, inner: "ReferenceMap") -> "ReferenceMap":
        """self o inner: apply `inner` first."""
        if self.cols != inner.rows:
            raise ValueError("composition shape mismatch")
        return ReferenceMap(
            tuple(
                tuple(
                    sum(self.entries[i][k] * inner.entries[k][j] for k in range(self.cols))
                    for j in range(inner.cols)
                )
                for i in range(self.rows)
            )
        )

    @staticmethod
    def from_columns(columns: Sequence) -> "ReferenceMap":
        """The map with the given column points, with the shape error texts
        of `StochasticAffineMap`."""
        if not columns:
            raise ValueError("matrix must be non-empty")
        size = columns[0].dim
        if any(c.dim != size for c in columns):
            raise ValueError("ragged matrix")
        return ReferenceMap(
            tuple(tuple(c[i] for c in columns) for i in range(size))
        )

    @staticmethod
    def vertex_fixing(new_vertex_image) -> "ReferenceMap":
        """Map from an (n+1)-vertex simplex onto an n-vertex one that fixes
        the first n vertices and sends the last vertex to the given point."""
        n = new_vertex_image.dim
        return ReferenceMap(
            (0,) * i + (1,) + (0,) * (n - 1 - i) + (c,)
            for i, c in enumerate(new_vertex_image)
        )


def reference_induced_trace_map(matrix: MultiplicityMatrix, u_src, u_dst) -> ReferenceMap:
    """Oracle: the induced map of a unital step, entry (j, i) =
    A(i, j) k_j / l_i, built entry by entry in Fractions."""
    src, dst = tuple(u_src), tuple(u_dst)
    return ReferenceMap(
        tuple(
            tuple(Fraction(matrix.entry(i, j) * src[j], dst[i]) for i in range(len(dst)))
            for j in range(len(src))
        )
    )


def reference_map_distance(f: ReferenceMap, g: ReferenceMap, metric: str) -> Fraction:
    """Oracle: the max over columns of the l1 or squared l2 distance of
    the two column points."""
    columns = [(f.column_point(j), g.column_point(j)) for j in range(f.cols)]
    if metric == "l1":
        return max(a.l1_distance(b) for a, b in columns)
    return max(a.l2sq_distance(b) for a, b in columns)


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
        row = mat.entries[j]
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


# --- exhaustive oracle for the permutation-mode RFD check ---------------------


def _continuations(prefix: BratteliPrefix, i: int, stable: tuple[int, ...]):
    """Per stable slot, the vertices at level i+1 able to continue the line:
    exactly one incoming edge, of multiplicity 1, from the slot's vertex,
    with the same matrix size."""
    mat = prefix.matrices[i]
    u_src = prefix.levels[i].entries
    u_dst = prefix.levels[i + 1].entries
    cands = []
    for v in stable:
        opts = [
            w
            for w in range(mat.rows)
            if u_dst[w] == u_src[v]
            and mat.entry(w, v) == 1
            and all(mat.entry(w, b) == 0 for b in range(mat.cols) if b != v)
        ]
        cands.append(opts)
    return cands


def _injective_assignments(cands: list[list[int]]):
    used: set[int] = set()
    choice: list[int] = []

    def rec(t: int):
        if t == len(cands):
            yield tuple(choice)
            return
        for w in cands[t]:
            if w not in used:
                used.add(w)
                choice.append(w)
                yield from rec(t + 1)
                choice.pop()
                used.remove(w)

    yield from rec(0)


def _perm_transitions(prefix: BratteliPrefix, i: int, stable: tuple[int, ...], ji: bool):
    """All admissible stable tuples at level i+1 given `stable` at level i."""
    mat = prefix.matrices[i]
    m_src = mat.cols
    loose_src = [v for v in range(m_src) if v not in stable]
    for cont in _injective_assignments(_continuations(prefix, i, stable)):
        rest = [w for w in range(mat.rows) if w not in cont]
        if ji and any(mat.entry(w, b) == 0 for w in rest for b in range(m_src)):
            continue  # a zero entry lands in a positivity block either way
        # Every source vertex outside the stable set must feed a new stable
        # line (the A22 column condition).
        if rest:
            subsets = _covering_subsets(mat, loose_src, rest)
        elif loose_src:
            subsets = []
        else:
            subsets = [frozenset()]
        for newly in subsets:
            yield cont + tuple(sorted(newly))


def _covering_subsets(mat: MultiplicityMatrix, loose_src: list[int], rest: list[int]):
    """Subsets W of `rest` such that every loose source column has a nonzero
    entry in some row of W (the A22 column condition), largest first."""
    out = []
    n = len(rest)
    for mask in range((1 << n) - 1, -1, -1):
        W = [rest[t] for t in range(n) if mask >> t & 1]
        if all(any(mat.entry(w, v) for w in W) for v in loose_src):
            out.append(frozenset(W))
    return out


def _initial_states(prefix: BratteliPrefix):
    m0 = prefix.width(0)
    for mask in range(1, 1 << m0):
        yield tuple(v for v in range(m0) if mask >> v & 1)


def _suffix_key(cand):
    """Witness preference: maximal stable counts at interior levels, minimal
    continuation (strict when possible) at the unconstrained final level,
    then lexicographically smallest stable tuples."""
    r_suffix, stables = cand
    interior = r_suffix[:-1]
    strict = 0
    boundary = 0
    if len(r_suffix) >= 2:
        strict = 1 if r_suffix[-1] > r_suffix[-2] else 0
        boundary = -r_suffix[-1]
    return (interior, strict, boundary, _neg_stables(stables))


def _neg_stables(stables: tuple[tuple[int, ...], ...]):
    # Orders candidate witnesses so that "greater" means lexicographically
    # smaller stable tuples (canonical representative among equal r).
    return tuple(tuple(-v for v in s) for s in stables)


def reference_perm_search(prefix: BratteliPrefix, ji: bool):
    """Oracle: (r, stable tuples) of the best admissible structure under any
    vertex reordering, or None, by a memoised search over every start set,
    injective continuation and covering subset.  Exponential in the width."""
    n_levels = prefix.depth

    @functools.lru_cache(maxsize=None)
    def best_suffix(i: int, stable: tuple[int, ...]):
        """Best (r-suffix, stable-suffix) from level i, or None."""
        if i == n_levels - 1:
            return (len(stable),), (stable,)
        best = None
        for nxt in _perm_transitions(prefix, i, stable, ji):
            sub = best_suffix(i + 1, nxt)
            if sub is None:
                continue
            cand = ((len(stable),) + sub[0], (stable,) + sub[1])
            if best is None or _suffix_key(cand) > _suffix_key(best):
                best = cand
        return best

    best = None
    for stable0 in _initial_states(prefix):
        cand = best_suffix(0, stable0)
        if cand is None:
            continue
        if best is None or _suffix_key(cand) > _suffix_key(best):
            best = cand
    return best


def reference_perm_deepest(prefix: BratteliPrefix, ji: bool) -> int:
    """Oracle: the first matrix past which no admissible partial structure
    reaches, by carrying every reachable stable tuple forward."""
    states = set(_initial_states(prefix))
    for i in range(prefix.depth - 1):
        nxt = {t for s in states for t in _perm_transitions(prefix, i, s, ji)}
        if not nxt:
            return i
        states = nxt
    return prefix.depth - 1


def reference_perm_check(prefix: BratteliPrefix, ji: bool) -> RfdResult:
    """The `check_rfd(..., mode="perm")` result the oracles imply, with the
    witness blocks sliced directly from the reordered matrices."""
    found = reference_perm_search(prefix, ji)
    if found is None:
        level = reference_perm_deepest(prefix, ji)
        reason = f"no admissible stable structure under any vertex reordering (matrix {level})"
        return RfdResult(False, ji, "perm", level=level, reason=reason)
    r, stables = found
    perms = tuple(
        stable + tuple(v for v in range(prefix.width(n)) if v not in stable)
        for n, stable in enumerate(stables)
    )
    blocks = []
    for i, mat in enumerate(prefix.matrices):
        arranged = [tuple(mat.entry(a, b) for b in perms[i]) for a in perms[i + 1]]
        ri, rn = r[i], r[i + 1]
        blocks.append(
            RfdBlocks(
                r_src=ri,
                r_dst=rn,
                a21=tuple(row[:ri] for row in arranged[ri:rn]),
                a22=tuple(row[ri:] for row in arranged[ri:rn]),
                a31=tuple(row[:ri] for row in arranged[rn:]),
                a32=tuple(row[ri:] for row in arranged[rn:]),
            )
        )
    kseq = tuple(prefix.levels[-1][v] for v in perms[-1][: r[-1]])
    witness = RfdWitness(r=r, kseq=kseq, blocks=tuple(blocks), permutations=perms)
    return RfdResult(True, ji, "perm", witness=witness)
