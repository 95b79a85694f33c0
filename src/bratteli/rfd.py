"""Block-structure consistency checks for residual finite-dimensionality.

A diagram sequence is RFD-shaped when, for a non-decreasing sequence of
stable-line counts r_1 <= r_2 <= ... (strictly increasing in the infinite
limit, but a finite prefix may stall while the tail still has room to grow),
every connecting matrix decomposes as

        ( I_r      0    )      rows:  r_n
        ( A21     A22   )      rows:  r_{n+1} - r_n
        ( A31     A32   )      rows:  m_{n+1} - r_{n+1}

with every column of A22 non-zero, and the first r_n matrix sizes repeat
unchanged from level to level (the stable dimensions k_1, k_2, ...).  The
just-infinite refinement (RFD-JI) additionally requires every entry of A21,
A22, A31, A32 to be non-zero.

Verdicts are prefix-relative: "Consistent" means no constraint that a finite
truncation can see is violated; it is not a proof about the infinite diagram.
Among all admissible stable-count sequences the checker returns the
lexicographically largest (the one certifying the most stable lines, which is
what the ideal machinery consumes); candidate transitions are pruned by a
one-matrix lookahead so that a failure is reported at the level that forces
it rather than one step later.

The strict search is an interval dynamic programme.  Every rule is monotone,
so one pass over matrix i yields three numbers: the top rules (identity rows,
repeated sizes) hold exactly for r <= t_i; the A22 rule holds exactly for
r_next >= need_i (None when some column k >= t_i has no non-zero entry in a
row >= t_i; because the rows above t_i are identity rows, the same bound
serves every r <= t_i); the RFD-JI positivity rule holds exactly for
r >= z_i.  A transition (r at level i) -> (r_next at level i+1) is
admissible iff max(1, z_i) <= r <= t_i and need_i <= r_next <= cap_i, where
cap_i = t_{i+1} is the lookahead (w_{i+1} at the last matrix).  Admissible
sets are therefore intervals, the forward reach after matrix i is
[need_i, cap_i], and the search costs O(L * w^2) for L matrices of width w:
one scan of each matrix.  Rule-by-rule wording is produced only for the
transitions at a failing level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .diagram import BratteliPrefix, MultiplicityMatrix
from .errors import InsufficientPrefixError

_RULE_NAMES = {
    1: "identity block mismatch",
    2: "dimension stability violated",
    3: "zero column in A^(2,2)",
    4: "zero entry in positivity block",
}

PREFIX_CAVEAT = (
    "prefix-level verdict: a finite truncation can refute but never prove "
    "the infinite property"
)


@dataclass(frozen=True, slots=True)
class RfdBlocks:
    """The six blocks of one connecting matrix under a witness split."""

    r_src: int
    r_dst: int
    a21: tuple[tuple[int, ...], ...]
    a22: tuple[tuple[int, ...], ...]
    a31: tuple[tuple[int, ...], ...]
    a32: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class RfdWitness:
    """Certificate that a prefix is consistent with the block structure.

    `r[i]` counts the stable lines at level i; `permutations[i]`, when
    present, lists the original vertex ids in certified slot order (stable
    slots first).  `kseq[j]` is the constant matrix size carried by stable
    line j.  `blocks[i]` decomposes matrix i after permutation.
    """

    r: tuple[int, ...]
    kseq: tuple[int, ...]
    blocks: tuple[RfdBlocks, ...]
    permutations: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True, slots=True)
class RfdResult:
    consistent: bool
    ji: bool
    mode: str
    witness: RfdWitness | None = None
    level: int | None = None
    reason: str | None = None
    caveat: str = PREFIX_CAVEAT

    def __bool__(self) -> bool:
        return self.consistent


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


def _matrix_bounds(prefix: BratteliPrefix, i: int) -> tuple[int, int | None, int]:
    """(t, need, z) of matrix i, as defined in the module docstring."""
    mat = prefix.matrices[i]
    rows = mat.entries
    u_src = prefix.levels[i].entries
    u_dst = prefix.levels[i + 1].entries
    t = 0
    while t < min(mat.rows, mat.cols):
        row = rows[t]
        if row[t] != 1 or any(row[:t]) or any(row[t + 1 :]) or u_dst[t] != u_src[t]:
            break
        t += 1
    need: int | None = t
    for k in range(t, mat.cols):
        first = next((j for j in range(t, mat.rows) if rows[j][k]), None)
        if first is None:
            need = None
            break
        need = max(need, first + 1)
    z = next((j + 1 for j in range(mat.rows - 1, -1, -1) if 0 in rows[j]), 0)
    return t, need, z


def _strict_search(prefix: BratteliPrefix, ji: bool):
    """Returns (r_sequence, None) on success, else (level, candidate_pairs).

    Matrix i admits exactly the transitions with r in [low, t_i] (low is
    max(1, z_i) under JI, else 1) and r_next in [need_i, cap_i], cap_i being
    the lookahead bound t_{i+1}.  The two ranges are independent and
    need_i >= t_i,
    so a sequence exists iff every matrix admits some transition, and the
    maximal interior counts are then the t_i themselves."""
    n_mats = len(prefix.matrices)
    bounds = [_matrix_bounds(prefix, i) for i in range(n_mats)]
    top = [t for t, _, _ in bounds]
    cap = top[1:] + [prefix.width(n_mats)]
    # Forward reach at level i: every r in [lo, hi] is reachable.
    lo, hi = 1, prefix.width(0)
    for i, (t, need, z) in enumerate(bounds):
        low = max(1, z) if ji else 1
        if low > t or need is None or need > cap[i]:
            # The first matrix admitting no transition is where the reach
            # dies, whatever stable counts were chosen earlier.
            pairs = [
                (r, r_next, _edge_failure(prefix, i, r, r_next, ji))
                for r in range(lo, hi + 1)
                for r_next in range(r, prefix.width(i + 1) + 1)
            ]
            return i, pairs
        lo, hi = need, cap[i]
    # Interior levels carry the maximal certified stable count; the final
    # level is unconstrained from below, so take the minimal continuation
    # there (strictly increasing when possible) rather than an unevidenced
    # jump to full width.
    r = top[-1]
    return tuple(top) + (lo if lo > r else min(r + 1, hi),), None


def _pick_reason(prefix, level, pairs, ji: bool) -> str:
    """Deterministic, most-informative reason among the failing transitions."""
    best = None
    rfd_edge = None
    if ji:
        r_seq, failed = _strict_search(prefix, False)
        if failed is None:
            rfd_edge = (r_seq[level], r_seq[level + 1])
    for r, r_next, fail in pairs:
        if fail is None:  # pragma: no cover - only failing pairs are passed
            continue
        code, detail = fail
        key = (code, r, -r_next)
        if rfd_edge == (r, r_next) and code == 4:
            return f"{_RULE_NAMES[code]}: {detail} (matrix {level})"
        if best is None or key > best[0]:
            best = (key, code, detail)
    assert best is not None
    return f"{_RULE_NAMES[best[1]]}: {best[2]} (matrix {level})"


def _extract_blocks(
    prefix: BratteliPrefix,
    r_seq: Sequence[int],
    perms: Sequence[Sequence[int]] | None,
) -> tuple[RfdBlocks, ...]:
    blocks = []
    for i, mat in enumerate(prefix.matrices):
        arranged = mat.entries
        if perms:
            arranged = [tuple(arranged[a][b] for b in perms[i]) for a in perms[i + 1]]
        r, rn = r_seq[i], r_seq[i + 1]
        m = mat.cols

        def cut(r0, r1, c0, c1):
            return tuple(row[c0:c1] for row in arranged[r0:r1])

        blocks.append(
            RfdBlocks(
                r_src=r,
                r_dst=rn,
                a21=cut(r, rn, 0, r),
                a22=cut(r, rn, r, m),
                a31=cut(rn, mat.rows, 0, r),
                a32=cut(rn, mat.rows, r, m),
            )
        )
    return tuple(blocks)


def _kseq(prefix: BratteliPrefix, r_last: int, perm_last: Sequence[int] | None) -> tuple[int, ...]:
    u = prefix.levels[-1].entries
    if perm_last is None:
        return tuple(u[j] for j in range(r_last))
    return tuple(u[perm_last[j]] for j in range(r_last))


def _check(prefix: BratteliPrefix, ji: bool, mode: str) -> RfdResult:
    prefix.require_valid()
    if prefix.depth < 2:
        raise InsufficientPrefixError("the block-structure check needs at least 2 levels")
    if mode not in ("strict", "perm"):
        raise ValueError(f"unknown mode {mode!r}")

    if mode == "strict":
        found, extra = _strict_search(prefix, ji)
        if extra is None:
            r_seq = found
            witness = RfdWitness(
                r=r_seq,
                kseq=_kseq(prefix, r_seq[-1], None),
                blocks=_extract_blocks(prefix, r_seq, None),
                permutations=None,
            )
            return RfdResult(True, ji, mode, witness=witness)
        level, pairs = found, extra
        return RfdResult(
            False, ji, mode, level=level, reason=_pick_reason(prefix, level, pairs, ji)
        )

    outcome = _perm_search(prefix, ji)
    if outcome is None:
        # Depth of the longest admissible partial assignment localizes it.
        deepest = _perm_deepest(prefix, ji)
        return RfdResult(
            False,
            ji,
            mode,
            level=deepest,
            reason=f"no admissible stable structure under any vertex reordering (matrix {deepest})",
        )
    r_seq, stables = outcome
    perms = []
    for i, stable in enumerate(stables):
        rest = [v for v in range(prefix.width(i)) if v not in stable]
        perms.append(tuple(stable) + tuple(rest))
    witness = RfdWitness(
        r=tuple(r_seq),
        kseq=_kseq(prefix, r_seq[-1], perms[-1]),
        blocks=_extract_blocks(prefix, r_seq, perms),
        permutations=tuple(perms),
    )
    return RfdResult(True, ji, mode, witness=witness)


def check_rfd(prefix: BratteliPrefix, mode: str = "strict") -> RfdResult:
    """Decide prefix-consistency with the RFD block structure.

    In strict mode the given vertex order must already exhibit the block
    form; in "perm" mode per-level reorderings are searched.  On success the
    witness certifies the most stable lines at every interior level and
    continues minimally (strictly increasing when possible) at the final
    level, which no later matrix constrains.
    """
    return _check(prefix, ji=False, mode=mode)


def check_rfd_ji(prefix: BratteliPrefix, mode: str = "strict") -> RfdResult:
    """As `check_rfd`, plus all-entries-positive on the non-identity blocks."""
    return _check(prefix, ji=True, mode=mode)


def check_all_positive(prefix: BratteliPrefix) -> bool:
    """True when every multiplicity of every matrix is at least 1.

    This is the classical sufficient condition for simplicity of the limit,
    reported as prefix-level evidence only.
    """
    prefix.require_valid()
    return all(
        e >= 1 for mat in prefix.matrices for row in mat.entries for e in row
    )


def validate_witness(prefix: BratteliPrefix, witness: RfdWitness, ji: bool = False) -> bool:
    """Soundness check: reassembling the blocks reproduces each matrix and
    every stated constraint holds.  Used by tests and by consumers that
    receive a witness from elsewhere."""
    r = witness.r
    if len(r) != prefix.depth:
        return False
    perms = witness.permutations
    for i, mat in enumerate(prefix.matrices):
        p_src = list(perms[i]) if perms else list(range(mat.cols))
        p_dst = list(perms[i + 1]) if perms else list(range(mat.rows))
        if sorted(p_src) != list(range(mat.cols)) or sorted(p_dst) != list(range(mat.rows)):
            return False
        arranged = [[mat.entry(a, b) for b in p_src] for a in p_dst]
        ri, rn = r[i], r[i + 1]
        if not 1 <= ri <= mat.cols or not ri <= rn <= mat.rows:
            return False
        blk = witness.blocks[i]
        rebuilt = []
        for j in range(ri):
            rebuilt.append([1 if k == j else 0 for k in range(mat.cols)])
        for a, row21 in enumerate(blk.a21):
            rebuilt.append(list(row21) + list(blk.a22[a]))
        for a, row31 in enumerate(blk.a31):
            rebuilt.append(list(row31) + list(blk.a32[a]))
        if rebuilt != arranged:
            return False
        u_src = [prefix.levels[i].entries[b] for b in p_src]
        u_dst = [prefix.levels[i + 1].entries[a] for a in p_dst]
        if any(u_dst[j] != u_src[j] for j in range(ri)):
            return False
        for k in range(ri, mat.cols):
            if all(arranged[j][k] == 0 for j in range(ri, rn)):
                return False
        if ji and any(
            e == 0 for rows in (blk.a21, blk.a22, blk.a31, blk.a32) for row in rows for e in row
        ):
            return False
    return True


# --- up-to-permutation search -------------------------------------------------

_PERM_WIDTH_CAP = 12


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


def _perm_search(prefix: BratteliPrefix, ji: bool):
    n_levels = prefix.depth
    if any(prefix.width(i) > _PERM_WIDTH_CAP for i in range(n_levels)):
        raise ValueError(
            f"permutation mode is capped at width {_PERM_WIDTH_CAP}; use strict mode"
        )

    @lru_cache(maxsize=None)
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
    m0 = prefix.width(0)
    for mask in range((1 << m0) - 1, 0, -1):
        stable0 = tuple(v for v in range(m0) if mask >> v & 1)
        cand = best_suffix(0, stable0)
        if cand is None:
            continue
        if best is None or _suffix_key(cand) > _suffix_key(best):
            best = cand
    return best


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


def _perm_deepest(prefix: BratteliPrefix, ji: bool) -> int:
    states = {tuple(s) for s in _initial_states(prefix)}
    for i in range(prefix.depth - 1):
        nxt = {t for s in states for t in _perm_transitions(prefix, i, s, ji)}
        if not nxt:
            return i
        states = nxt
    return prefix.depth - 1


def _initial_states(prefix: BratteliPrefix) -> Iterable[tuple[int, ...]]:
    m0 = prefix.width(0)
    for mask in range(1, 1 << m0):
        yield tuple(v for v in range(m0) if mask >> v & 1)
