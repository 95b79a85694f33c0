"""Independent checks of op outputs.

Nothing here imports the package under test.  The checks re-derive what an
output claims from the benchmark's own copy of the input:

- an RFD witness against the block rules;
- ideal profiles against the two propagation rules, and small enumerations
  against a subset brute force;
- a synthesis certificate from the multiplicity vectors and the targets.

Each check returns None when the output holds, else a short reason.

Integers in outputs may exceed the interpreter's 4300-digit string
conversion limit once the package handles them, and the process running
ops never lifts that limit, so outputs are parsed with `loads`, which
converts long digit strings in chunks.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

_CHUNK = 4000


def big_int(text: str) -> int:
    """int(text) for any length of decimal digits."""
    neg = text.startswith("-")
    digits = text[1:] if neg else text
    value = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i : i + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if neg else value


def big_fraction(text: str) -> Fraction:
    p, _, q = str(text).partition("/")
    return Fraction(big_int(p), big_int(q) if q else 1)


def loads(text: str):
    return json.loads(text, parse_int=big_int)


# --- RFD block rules ----------------------------------------------------------


def rfd_witness_error(diagram, r, kseq=None, perms=None, ji=False) -> str | None:
    """Do the stable counts `r` (and slot orders `perms`) exhibit the block
    form on every matrix?  Checks identity rows, repeated stable sizes,
    non-zero A22 columns, and for RFD-JI positive lower blocks."""
    if len(r) != diagram.depth:
        return f"witness has {len(r)} counts for {diagram.depth} levels"
    if perms is not None and len(perms) != diagram.depth:
        return "one slot order per level expected"
    for i, mat in enumerate(diagram.matrices):
        rows, cols = len(mat), len(mat[0])
        src = list(perms[i]) if perms else list(range(cols))
        dst = list(perms[i + 1]) if perms else list(range(rows))
        if sorted(src) != list(range(cols)) or sorted(dst) != list(range(rows)):
            return f"slot order at matrix {i} is not a permutation"
        b = [[mat[a][c] for c in src] for a in dst]
        ri, rn = r[i], r[i + 1]
        if not (1 <= ri <= cols and ri <= rn <= rows):
            return f"counts {ri} -> {rn} out of range at matrix {i}"
        for j in range(ri):
            if b[j] != [int(c == j) for c in range(cols)]:
                return f"row {j} of matrix {i} is not an identity row"
            if diagram.levels[i + 1][dst[j]] != diagram.levels[i][src[j]]:
                return f"stable size {j} changes across matrix {i}"
        for c in range(ri, cols):
            if all(b[j][c] == 0 for j in range(ri, rn)):
                return f"column {c} of A22 is zero at matrix {i}"
        if ji and any(b[j][c] == 0 for j in range(ri, rows) for c in range(cols)):
            return f"zero in a positivity block at matrix {i}"
    if kseq is not None:
        last = diagram.levels[-1]
        order = list(perms[-1]) if perms else list(range(len(last)))
        if list(kseq) != [last[order[j]] for j in range(r[-1])]:
            return "kseq is not the stable sizes at the last level"
    return None


# --- ideals -------------------------------------------------------------------


def profile_error(diagram, profile) -> str | None:
    """Directed and hereditary rules of a per-level vertex-set profile."""
    if len(profile) != diagram.depth:
        return "profile depth differs from the diagram"
    for n, level in enumerate(profile):
        if list(level) != sorted(set(level)) or any(
            not 0 <= v < len(diagram.levels[n]) for v in level
        ):
            return f"level {n} is not a sorted set of vertices"
    for n, mat in enumerate(diagram.matrices):
        here, nxt = set(profile[n]), set(profile[n + 1])
        for k in range(len(mat[0])):
            targets = {l for l in range(len(mat)) if mat[l][k]}
            if k in here and not targets <= nxt:
                return f"directed rule fails at level {n}, vertex {k}"
            if k not in here and targets <= nxt:
                return f"hereditary rule fails at level {n}, vertex {k}"
    return None


def brute_force_ideals(diagram) -> list[tuple[tuple[int, ...], ...]]:
    """Every valid profile, by trying every subset of every level."""
    widths = [len(level) for level in diagram.levels]
    out = []
    for combo in itertools.product(*[range(1 << w) for w in widths]):
        profile = tuple(
            tuple(v for v in range(w) if combo[n] >> v & 1) for n, w in enumerate(widths)
        )
        if profile_error(diagram, profile) is None:
            out.append(profile)
    return sorted(out)


# --- synthesis ----------------------------------------------------------------

_CERT_KEYS = {"level", "ell", "mvector", "k_next", "xi", "zeta", "gap_l1", "gap_l2_squared", "epsilon"}


def synthesis_error(spec_obj, cert_obj, targets, k0=1, exact=False) -> str | None:
    """Re-derive a synthesized diagram and its certificate.

    `targets[n]` is the benchmark's own target point for level n.  The
    multiplicities may be any the package chooses; what must hold is the
    size recurrence, zeta^(n) = (m_j k_j / k_{n+1})_j, the stated gaps
    (zero when exact), gap_l1 < 2^-n and squared l2 gap < 4^-n."""
    if spec_obj.get("format") != "triangular" or spec_obj.get("k0") != k0:
        return "not a triangular diagram with the requested k0"
    mvs = spec_obj.get("mvectors")
    if not isinstance(mvs, list) or len(mvs) != len(targets):
        return f"expected {len(targets)} multiplicity vectors"
    ks = [k0]
    for n, m in enumerate(mvs):
        if len(m) != n + 1 or any(not isinstance(e, int) or e < 1 for e in m):
            return f"m^({n}) is not {n + 1} positive integers"
        ks.append(sum(e * k for e, k in zip(m, ks)))
    if cert_obj is None:
        levels = None
    else:
        levels = cert_obj.get("levels")
        if not isinstance(levels, list) or len(levels) != len(mvs):
            return "certificate does not have one record per level"
    for n, m in enumerate(mvs):
        zeta = [Fraction(e * k, ks[n + 1]) for e, k in zip(m, ks)]
        xi = targets[n]
        gap_l1 = sum(abs(a - b) for a, b in zip(xi, zeta))
        gap_l2 = sum((a - b) ** 2 for a, b in zip(xi, zeta))
        if gap_l1 >= Fraction(1, 2**n) or gap_l2 >= Fraction(1, 4**n):
            return f"level {n} misses its target by {gap_l1}"
        if exact and gap_l1 != 0:
            return f"level {n} is not exact"
        if levels is None:
            continue
        rec = levels[n]
        if not _CERT_KEYS <= set(rec):
            return f"certificate record {n} lacks {sorted(_CERT_KEYS - set(rec))}"
        ell = rec["ell"]
        claims = {
            "level": rec["level"] == n,
            "mvector": rec["mvector"] == m,
            "k_next": rec["k_next"] == ks[n + 1],
            "xi": [big_fraction(c) for c in rec["xi"]] == xi,
            "zeta": [big_fraction(c) for c in rec["zeta"]] == zeta,
            "ell": len(ell) == n + 1 and all(e >= 1 for e in ell)
            and [Fraction(e, sum(ell)) for e in ell] == zeta,
            "gap_l1": big_fraction(rec["gap_l1"]) == gap_l1,
            "gap_l2_squared": big_fraction(rec["gap_l2_squared"]) == gap_l2,
            "epsilon": big_fraction(rec["epsilon"]) == Fraction(1, 2**n * (n + 1)),
        }
        wrong = [k for k, ok in claims.items() if not ok]
        if wrong:
            return f"certificate level {n}: wrong {', '.join(wrong)}"
    return None
