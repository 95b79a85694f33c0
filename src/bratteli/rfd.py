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
one scan of each matrix.  The reason for a failing level is read from the
same bounds (t_i split into its row and size parts), in O(w^2) at that
level only.

The permutation mode is a greatest fixpoint.  Call row w of matrix i a unit
row of column v when it is e_v and u_{i+1}(w) = u_i(v); unit rows of
different columns are different rows, and a unit row is zero on every other
column, so it never helps the A22 rule.  With X_{L-1} the whole last level
and X_i the columns with a unit row in X_{i+1} (one backward pass), every
admissible stable set at level i lies in X_i, and X is admissible whenever
anything is; so the interior stable sets of the witness are the X_i
themselves, which is the lexicographically largest r.  Each slot continues
to its smallest unit row in X_{i+1} and the rest of X_{i+1} follows in
ascending order.  The interior costs O(L * w^2).  Only the last level
searches: its new lines are the smallest set of rows covering the loose
columns (non-empty when possible, then fewest, then lexicographically
smallest), tried by size within the named budget `_COVER_BUDGET`; the
search runs once, on a consistent prefix only, because "all free rows
cover" decides feasibility.  A failing level is the last matrix of the
shortest truncation whose X fails, found by bisection on the depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .diagram import BratteliPrefix
from .errors import BratteliError, InsufficientPrefixError

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


@dataclass(frozen=True)
class RfdBlocks:
    """The six blocks of one connecting matrix under a witness split."""

    r_src: int
    r_dst: int
    a21: tuple[tuple[int, ...], ...]
    a22: tuple[tuple[int, ...], ...]
    a31: tuple[tuple[int, ...], ...]
    a32: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RfdResult:
    consistent: bool
    ji: bool
    mode: str
    witness: RfdWitness | None = None
    level: int | None = None
    reason: str | None = None
    caveat: str = PREFIX_CAVEAT


def _matrix_bounds(prefix: BratteliPrefix, i: int) -> tuple[int, int, int | None, int]:
    """(t_row, t_size, need, z) of matrix i: t_i = min(t_row, t_size) splits
    into the first row that is not its identity row and the first index
    whose size changes, each capped at min(rows, cols); need and z as in
    the module docstring."""
    rows = prefix.matrices[i].entries
    u_src = prefix.levels[i].entries
    u_dst = prefix.levels[i + 1].entries
    m = min(len(rows), len(u_src))
    t_row = next(
        (j for j in range(m) if rows[j][j] != 1 or any(rows[j][:j]) or any(rows[j][j + 1 :])),
        m,
    )
    t_size = next((j for j in range(m) if u_dst[j] != u_src[j]), m)
    t = min(t_row, t_size)
    need: int | None = t
    for k in range(t, len(u_src)):
        first = next((j for j in range(t, len(rows)) if rows[j][k]), None)
        if first is None:
            need = None
            break
        need = max(need, first + 1)
    z = next((j + 1 for j in range(len(rows) - 1, -1, -1) if 0 in rows[j]), 0)
    return t_row, t_size, need, z


def _strict_search(prefix: BratteliPrefix, ji: bool):
    """Returns (r_sequence, None) on success, else (level, reason).

    Matrix i admits exactly the transitions with r in [low, t_i] (low is
    max(1, z_i) under JI, else 1) and r_next in [need_i, cap_i], cap_i being
    the lookahead bound t_{i+1}.  The two ranges are independent and
    need_i >= t_i, so a sequence exists iff every matrix admits some
    transition, and the maximal interior counts are then the t_i
    themselves.  The first matrix admitting none is where the forward reach
    dies, whatever stable counts were chosen earlier."""
    n_mats = len(prefix.matrices)
    bounds = [_matrix_bounds(prefix, i) for i in range(n_mats)]
    top = [min(t_row, t_size) for t_row, t_size, _, _ in bounds]
    cap = top[1:] + [prefix.width(n_mats)]
    rfd_ok = [
        t >= 1 and need is not None and need <= c
        for t, (_, _, need, _), c in zip(top, bounds, cap)
    ]
    rfd_seq = None
    if all(rfd_ok):
        # Interior levels carry the maximal certified stable count; the
        # final level is unconstrained from below, so take the minimal
        # continuation there (strictly increasing when possible) rather
        # than an unevidenced jump to full width.
        need, r = bounds[-1][2], top[-1]
        rfd_seq = tuple(top) + (need if need > r else min(r + 1, cap[-1]),)
    for i in range(n_mats):
        if not rfd_ok[i] or (ji and bounds[i][3] > top[i]):
            return i, _failure_reason(prefix, bounds, i, ji, rfd_seq)
    return rfd_seq, None


def _top_break(t_row: int, t_size: int, a: int, b: int) -> int | None:
    """The largest code of a top rule of a matrix with bounds t_row, t_size
    broken by some stable count s in [a, b].  A changed size (code 2) is
    broken by s in (t_size, t_row], a non-identity row (code 1) by
    s > t_row; None when [a, b] breaks neither."""
    if max(a, t_size + 1) <= min(b, t_row):
        return 2
    return 1 if max(a, t_row + 1) <= b else None


def _zero_detail(rows, r: int, r_next: int) -> str:
    """The first zero, in row-major order, of the rows >= r, named by its
    block under the split (r, r_next)."""
    j = next(j for j in range(r, len(rows)) if 0 in rows[j])
    k = rows[j].index(0)
    block = f"A^({2 if j < r_next else 3},{1 if k < r else 2})"
    return f"zero entry in block {block} at row {j}, column {k}"


def _failure_reason(prefix: BratteliPrefix, bounds, i: int, ji: bool, rfd_seq) -> str:
    """Wording of failing matrix i, read from the bounds.

    Every transition (r -> r_next) out of the forward reach fails; the
    reason is the first rule broken (top rules, A22, positivity under JI,
    the next matrix's top rules) by the transition of largest (code, r).
    For a fixed r the rule broken depends only on where r_next lies against
    need_i and t_{i+1}, so each r gives one code, read off the bounds; only
    a positivity failure (code 4) names r_next, and it is need_i.  Under
    JI, when the RFD rules hold at every matrix, the reason is the
    positivity failure on the edge of the RFD witness."""
    rows = prefix.matrices[i].entries
    if ji and rfd_seq is not None:
        r, r_next = rfd_seq[i], rfd_seq[i + 1]
        return f"{_RULE_NAMES[4]}: {_zero_detail(rows, r, r_next)} (matrix {i})"
    t_row, t_size, need, z = bounds[i]
    t = min(t_row, t_size)
    w_next = prefix.width(i + 1)
    lo, hi = (1, prefix.width(0)) if i == 0 else (bounds[i - 1][2], t)
    cands = []
    for r in range(lo, min(hi, w_next) + 1):
        if r > t:
            code = _top_break(t_row, t_size, r, r)
        elif ji and r < z and need is not None and need <= w_next:
            code = 4
        elif r < len(rows[0]):
            code = 3
        # Else r = t_i = need_i = cols: matrix i admits every r_next and
        # the next matrix's top rules decide.
        elif i + 1 < len(bounds):
            code = _top_break(*bounds[i + 1][:2], r, w_next)
        else:
            continue
        if code:
            cands.append((code, r))
    code, r = max(cands)
    if code == 4:
        detail = _zero_detail(rows, r, need)
    elif code == 3:
        detail = f"column {r} has no edge into a new stable line"
    else:
        j = i if r > t else i + 1  # the matrix whose top rules break
        u_src = prefix.levels[j].entries
        u_dst = prefix.levels[j + 1].entries
        row, size = bounds[j][:2]
        if code == 1:
            detail = f"row {row} of A_{j} is not the identity row e_{row}"
        else:
            detail = f"u_{j+1}({size}) = {u_dst[size]} != u_{j}({size}) = {u_src[size]}"
    return f"{_RULE_NAMES[code]}: {detail} (matrix {i})"


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
        return RfdResult(False, ji, mode, level=found, reason=extra)

    units = [_unit_rows(prefix, i) for i in range(len(prefix.matrices))]
    path = _perm_path(prefix, units, prefix.depth, ji)
    if path is None:
        deepest = _perm_deepest(prefix, units, ji)
        return RfdResult(
            False,
            ji,
            mode,
            level=deepest,
            reason=f"no admissible stable structure under any vertex reordering (matrix {deepest})",
        )
    stables, loose, rest = path
    stables[-1] += _last_cover(prefix.matrices[-1].entries, loose, rest)
    r_seq = tuple(len(s) for s in stables)
    perms = []
    for i, stable in enumerate(stables):
        chosen = set(stable)
        perms.append(stable + tuple(v for v in range(prefix.width(i)) if v not in chosen))
    witness = RfdWitness(
        r=r_seq,
        kseq=_kseq(prefix, r_seq[-1], perms[-1]),
        blocks=_extract_blocks(prefix, r_seq, perms),
        permutations=tuple(perms),
    )
    return RfdResult(True, ji, mode, witness=witness)


def check_rfd(prefix: BratteliPrefix, mode: str = "strict") -> RfdResult:
    """Decide prefix-consistency with the RFD block structure.

    In strict mode the given vertex order must already exhibit the block
    form; in "perm" mode it holds after some per-level reordering, found by
    the greatest-fixpoint pass of the module docstring.  On success the
    witness certifies the most stable lines at every interior level and
    continues minimally (strictly increasing when possible) at the final
    level, which no later matrix constrains.
    """
    return _check(prefix, ji=False, mode=mode)


def check_rfd_ji(prefix: BratteliPrefix, mode: str = "strict") -> RfdResult:
    """As `check_rfd`, plus all-entries-positive on the non-identity blocks."""
    return _check(prefix, ji=True, mode=mode)


def validate_witness(prefix: BratteliPrefix, witness: RfdWitness, ji: bool = False) -> bool:
    """Soundness check: every block is the slice of its reordered matrix
    that `r` names, the top rows are identity rows, every stated constraint
    holds and `kseq` lists the sizes of the last level's stable slots.  Used
    by tests and by consumers that receive a witness from elsewhere."""
    r, perms = witness.r, witness.permutations
    if len(r) != prefix.depth or len(witness.blocks) != len(prefix.matrices):
        return False
    if perms is not None and len(perms) != prefix.depth:
        return False
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
        if (blk.r_src, blk.r_dst) != (ri, rn):
            return False
        if arranged[:ri] != [[1 if k == j else 0 for k in range(mat.cols)] for j in range(ri)]:
            return False
        m = mat.cols
        spans = ((ri, rn, 0, ri), (ri, rn, ri, m), (rn, None, 0, ri), (rn, None, ri, m))
        cuts = [[row[c0:c1] for row in arranged[r0:r1]] for r0, r1, c0, c1 in spans]
        if cuts != [[list(row) for row in b] for b in (blk.a21, blk.a22, blk.a31, blk.a32)]:
            return False
        u_src = [prefix.levels[i].entries[b] for b in p_src]
        u_dst = [prefix.levels[i + 1].entries[a] for a in p_dst]
        if any(u_dst[j] != u_src[j] for j in range(ri)):
            return False
        for k in range(ri, mat.cols):
            if all(arranged[j][k] == 0 for j in range(ri, rn)):
                return False
        if ji and any(0 in row for row in arranged[ri:]):
            return False
    last = perms[-1] if perms else range(prefix.width(prefix.depth - 1))
    sizes = prefix.levels[-1].entries
    return tuple(witness.kseq) == tuple(sizes[v] for v in last[: r[-1]])


# --- up-to-permutation check --------------------------------------------------

# Candidate row sets the last-level cover search may try; 2^12 already
# covers every last level of width at most 12.
_COVER_BUDGET = 1 << 20


def _unit_rows(prefix: BratteliPrefix, i: int) -> list[list[int]]:
    """Per column v of matrix i, its unit rows in ascending order: the rows
    equal to e_v whose size repeats u_i(v)."""
    u_src = prefix.levels[i].entries
    u_dst = prefix.levels[i + 1].entries
    units: list[list[int]] = [[] for _ in u_src]
    for w, row in enumerate(prefix.matrices[i].entries):
        if sum(row) == 1:
            v = row.index(1)
            if u_dst[w] == u_src[v]:
                units[v].append(w)
    return units


def _perm_path(prefix: BratteliPrefix, units, depth: int, ji: bool):
    """The witness slots of the truncation to `depth` levels, the last level
    holding only its continuations, with the loose columns and the free rows
    of the last matrix; None when no reordering admits the block structure.

    X_{depth-1} is the whole level and X_i the columns with a unit row in
    X_{i+1}, one backward pass.  Every admissible stable set lies in X_i,
    and X itself is admissible whenever anything is, so only X is checked
    forward: each slot continues to its smallest unit row in X_{i+1}, under
    JI no other row may hold a zero, and the other rows of X_{i+1} (at the
    last level, all other rows) must cover every column outside X_i."""
    last = depth - 1
    keep = [set(range(prefix.width(last)))]
    for i in range(last - 1, -1, -1):
        keep.append({v for v, ws in enumerate(units[i]) if any(w in keep[-1] for w in ws)})
    keep.reverse()
    slots = tuple(sorted(keep[0]))
    if not slots:
        return None
    stables = []
    for i in range(last):
        rows = prefix.matrices[i].entries
        stables.append(slots)
        cont = tuple(next(w for w in units[i][v] if w in keep[i + 1]) for v in slots)
        taken = set(cont)
        rest = [w for w in range(len(rows)) if w not in taken]
        if ji and any(0 in rows[w] for w in rest):
            return None
        free = rest if i == last - 1 else [w for w in rest if w in keep[i + 1]]
        loose = [v for v in range(len(rows[0])) if v not in keep[i]]
        if not all(any(rows[w][v] for w in free) for v in loose):
            return None
        slots = cont + tuple(free)
    stables.append(cont)
    return stables, loose, rest


def _last_cover(rows, loose: list[int], rest: list[int]) -> tuple[int, ...]:
    """The new lines at the last level: the rows of `rest` covering every
    loose column, non-empty when possible, then fewest, then
    lexicographically smallest, tried by size within `_COVER_BUDGET`.
    `rest` as a whole covers, so the search always ends."""
    masks = [sum(1 << t for t, v in enumerate(loose) if rows[w][v]) for w in rest]
    full = (1 << len(loose)) - 1
    tried = 0
    for size in range(1, len(rest) + 1):
        for combo in combinations(range(len(rest)), size):
            tried += 1
            if tried > _COVER_BUDGET:
                raise BratteliError(
                    "permutation mode: the last-level cover search exceeded "
                    f"_COVER_BUDGET = {_COVER_BUDGET} row sets"
                )
            hit = 0
            for t in combo:
                hit |= masks[t]
            if hit == full:
                return tuple(rest[t] for t in combo)
    return ()


def _perm_deepest(prefix: BratteliPrefix, units, ji: bool) -> int:
    """The last matrix of the shortest truncation with no stable structure.
    A structure on a truncation restricts to every shorter one, so the
    depth is found by bisection."""
    lo, hi = 2, prefix.depth
    while lo < hi:
        mid = (lo + hi) // 2
        if _perm_path(prefix, units, mid, ji) is None:
            hi = mid
        else:
            lo = mid + 1
    return lo - 2
