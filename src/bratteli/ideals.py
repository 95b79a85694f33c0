"""Closed two-sided ideals of an AF-algebra, computed on diagram prefixes.

An ideal is encoded by the per-level vertex sets T_n it absorbs.  Two
propagation rules pin these sets down:

  directed:   k in T_n and A_n(l, k) != 0        ==>  l in T_{n+1}
  hereditary: every l with A_n(l, k) != 0 in T_{n+1}  ==>  k in T_n

The hereditary rule needs the next level, so it is asserted at every level
except the last; the last level of a truncation is free.  Consequently a
valid profile is determined by its last-level set, every statement here is
prefix-relative, and the closure of a seed set is a genuine least fixpoint.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable

from .diagram import BratteliPrefix, DimensionVector, MultiplicityMatrix
from .errors import BratteliError
from .rfd import RfdWitness, validate_witness

DEFAULT_WIDTH_CAP = 16


@dataclass(frozen=True, slots=True)
class IdealProfile:
    """Per-level absorbed-vertex sets of a closed two-sided ideal."""

    T: tuple[tuple[int, ...], ...]

    def __init__(self, T: Iterable[Iterable[int]]) -> None:
        object.__setattr__(self, "T", tuple(tuple(sorted(set(level))) for level in T))

    def level(self, n: int) -> frozenset[int]:
        return frozenset(self.T[n])

    @property
    def depth(self) -> int:
        return len(self.T)

    def complement(self, prefix: BratteliPrefix) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(v for v in range(prefix.width(n)) if v not in set(self.T[n]))
            for n in range(self.depth)
        )

    def is_empty(self) -> bool:
        return all(not level for level in self.T)

    def is_full(self, prefix: BratteliPrefix) -> bool:
        return all(len(self.T[n]) == prefix.width(n) for n in range(self.depth))

    def sort_key(self):
        return self.T


def _check_profile_shape(prefix: BratteliPrefix, profile: IdealProfile) -> None:
    if profile.depth != prefix.depth:
        raise BratteliError(
            f"profile has {profile.depth} levels, prefix has {prefix.depth}"
        )
    for n, level in enumerate(profile.T):
        for v in level:
            if not 0 <= v < prefix.width(n):
                raise BratteliError(f"profile vertex {v} out of range at level {n}")


def profile_is_valid(prefix: BratteliPrefix, profile: IdealProfile) -> bool:
    """Both propagation rules hold at every applicable level."""
    _check_profile_shape(prefix, profile)
    for n, mat in enumerate(prefix.matrices):
        T_here = set(profile.T[n])
        T_next = set(profile.T[n + 1])
        for k in T_here:
            for l in range(mat.rows):
                if mat.entry(l, k) != 0 and l not in T_next:
                    return False
        for k in range(mat.cols):
            if k not in T_here and all(
                l in T_next for l in range(mat.rows) if mat.entry(l, k) != 0
            ):
                return False
    return True


def _hereditary_pull(mat: MultiplicityMatrix, T_next: set[int]) -> set[int]:
    return {
        k
        for k in range(mat.cols)
        if all(l in T_next for l in range(mat.rows) if mat.entry(l, k) != 0)
    }


def close(prefix: BratteliPrefix, seeds: Iterable[tuple[int, int]]) -> IdealProfile:
    """Least valid profile containing the given (level, vertex) seeds."""
    prefix.require_valid()
    sets: list[set[int]] = [set() for _ in range(prefix.depth)]
    for n, v in seeds:
        if not 0 <= n < prefix.depth or not 0 <= v < prefix.width(n):
            raise BratteliError(f"seed ({n}, {v}) out of range")
        sets[n].add(v)
    changed = True
    while changed:
        changed = False
        for n, mat in enumerate(prefix.matrices):
            for k in list(sets[n]):
                for l in range(mat.rows):
                    if mat.entry(l, k) != 0 and l not in sets[n + 1]:
                        sets[n + 1].add(l)
                        changed = True
        for n in range(prefix.depth - 2, -1, -1):
            pulled = _hereditary_pull(prefix.matrices[n], sets[n + 1])
            if not pulled <= sets[n]:
                sets[n] |= pulled
                changed = True
    return IdealProfile(sets)


def profile_from_last_level(prefix: BratteliPrefix, last: Iterable[int]) -> IdealProfile:
    """The unique valid profile whose last-level set is `last`."""
    return close(prefix, ((prefix.depth - 1, v) for v in set(last)))


def quotient(prefix: BratteliPrefix, profile: IdealProfile) -> BratteliPrefix:
    """Diagram of the quotient algebra: keep complements, restrict matrices.

    Unitality is not asserted on the result (the restricted maps generally
    are not unital).
    """
    prefix.require_valid()
    _check_profile_shape(prefix, profile)
    if not profile_is_valid(prefix, profile):
        raise BratteliError("profile violates the propagation rules")
    if profile.is_full(prefix):
        raise BratteliError("full profile: the quotient would be zero")
    kept = profile.complement(prefix)
    levels = [
        DimensionVector(tuple(prefix.levels[n][v] for v in kept[n]))
        for n in range(prefix.depth)
    ]
    matrices = [
        prefix.matrices[n].submatrix(kept[n + 1], kept[n])
        for n in range(prefix.depth - 1)
    ]
    return BratteliPrefix(levels, matrices, unital=False)


def is_compact(prefix: BratteliPrefix, profile: IdealProfile) -> bool:
    """Within-prefix compactness: some single level's worth of seeds
    already generates the whole profile.

    Only interior levels count as generating levels: the last level has no
    forward propagation left to fail, so it would certify any profile
    vacuously.  The zero ideal is compact outright (empty generator set).
    """
    prefix.require_valid()
    _check_profile_shape(prefix, profile)
    if not profile_is_valid(prefix, profile):
        raise BratteliError("profile violates the propagation rules")
    if profile.is_empty():
        return True
    for n0 in range(prefix.depth - 1):
        seeds = [(n0, v) for v in profile.T[n0]]
        if close(prefix, seeds) == profile:
            return True
    return False


def width_cap() -> int:
    """`BRATTELI_MAX_WIDTH` when set, else DEFAULT_WIDTH_CAP; a value that is
    not an integer of at least 1 is rejected, not replaced by the default."""
    raw = os.environ.get("BRATTELI_MAX_WIDTH", "")
    if not raw:
        return DEFAULT_WIDTH_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BratteliError(f"BRATTELI_MAX_WIDTH must be an integer >= 1, got {raw!r}")
    return cap


def enumerate_ideals(prefix: BratteliPrefix, max_width: int | None = None) -> list[IdealProfile]:
    """All valid profiles on the prefix, canonically ordered.

    Since a profile is backward-determined by its last-level set, the
    enumeration walks the 2^m subsets of the widest admissible last level;
    the subset brute force over all levels survives in the tests as an
    independent oracle.
    """
    prefix.require_valid()
    cap = width_cap() if max_width is None else max_width
    widest = max(prefix.width(n) for n in range(prefix.depth))
    if widest > cap:
        raise BratteliError(f"width cap exceeded: {widest} > {cap}")
    m_last = prefix.width(prefix.depth - 1)
    out = []
    for mask in range(1 << m_last):
        last = [v for v in range(m_last) if mask >> v & 1]
        out.append(profile_from_last_level(prefix, last))
    out.sort(key=IdealProfile.sort_key)
    return out


@dataclass(frozen=True, slots=True)
class PrimitiveIdeal:
    """Kernel profile of the finite-dimensional representation on one
    stable line, labeled by the constant matrix size it carries."""

    line: int
    k: int
    profile: IdealProfile


def primitive_profiles(prefix: BratteliPrefix, witness: RfdWitness) -> list[PrimitiveIdeal]:
    """One profile per stable line persisting past the second-to-last level.

    The zero ideal (also primitive) is not listed; lines first appearing at
    the final level have no observed persistence and are omitted.
    """
    if not validate_witness(prefix, witness, ji=True):
        raise BratteliError("witness mismatch: not a valid just-infinite certificate")
    persistent = witness.r[-2] if prefix.depth >= 2 else 0
    perms = witness.permutations
    last = prefix.depth - 1
    out = []
    for j in range(persistent):
        vertex = perms[last][j] if perms else j
        others = [v for v in range(prefix.width(last)) if v != vertex]
        out.append(
            PrimitiveIdeal(
                line=j,
                k=witness.kseq[j],
                profile=profile_from_last_level(prefix, others),
            )
        )
    return out


@dataclass(frozen=True, slots=True)
class SeedEvidence:
    level: int
    vertex: int
    full: bool
    stabilize_from: int | None
    observable: bool

    @property
    def failed(self) -> bool:
        return self.observable and not self.full and (
            self.stabilize_from is None or self.stabilize_from > self.level + 1
        )


@dataclass(frozen=True, slots=True)
class JustInfiniteEvidence:
    depth: int
    seeds: tuple[SeedEvidence, ...]

    @property
    def passed(self) -> bool:
        return all(not s.failed for s in self.seeds)

    @property
    def failures(self) -> tuple[SeedEvidence, ...]:
        return tuple(s for s in self.seeds if s.failed)


def _stabilize_from(q: BratteliPrefix) -> int | None:
    """Smallest index from which every quotient matrix is the identity;
    None when not even the final matrix is (nothing observed stabilizing)."""
    mats = q.matrices
    s = len(mats)
    while s > 0 and mats[s - 1].is_identity():
        s -= 1
    return s if s < len(mats) else (0 if not mats else None)


def just_infinite_evidence(prefix: BratteliPrefix, witness: RfdWitness) -> JustInfiniteEvidence:
    """Desk-scale evidence for just-infiniteness: every single-vertex seed
    generates an ideal whose quotient diagram becomes an identity chain
    within one level of the seed, as far as the prefix can see.

    A report, never a proof: seeds too close to the end of the prefix have
    no observable stabilization window and are recorded as such.
    """
    # An RFD witness suffices; running on a non-just-infinite diagram is the
    # interesting case, since the report then localizes the failing seed.
    if not validate_witness(prefix, witness, ji=False):
        raise BratteliError("witness mismatch: not a valid block-structure certificate")
    records = []
    n_mats = prefix.depth - 1
    for n in range(prefix.depth):
        for v in range(prefix.width(n)):
            profile = close(prefix, [(n, v)])
            observable = n_mats > n + 1
            if profile.is_full(prefix):
                records.append(SeedEvidence(n, v, True, None, observable))
                continue
            q = quotient(prefix, profile)
            records.append(SeedEvidence(n, v, False, _stabilize_from(q), observable))
    return JustInfiniteEvidence(prefix.depth, tuple(records))


def has_findim_quotient_line(prefix: BratteliPrefix, profile: IdealProfile) -> bool:
    """For diagrams whose matrices are an identity stacked over extra rows:
    does the quotient by the given proper compact ideal retain a line of
    vertices whose only edges are single self-continuations?  Such a line is
    a finite-dimensional representation of the quotient.

    The line is sought from the ideal's generating level onward (where the
    complements have settled), mirroring the way a compact ideal is pinned
    to a single level.
    """
    prefix.require_valid()
    for n, mat in enumerate(prefix.matrices):
        if mat.rows < mat.cols or not all(
            mat.entry(i, j) == (1 if i == j else 0)
            for i in range(mat.cols)
            for j in range(mat.cols)
        ):
            raise BratteliError(f"shape mismatch: matrix {n} is not identity-over-rows")
    _check_profile_shape(prefix, profile)
    if not profile_is_valid(prefix, profile):
        raise BratteliError("profile violates the propagation rules")
    if profile.is_full(prefix):
        raise BratteliError("profile must be proper")
    if not is_compact(prefix, profile):
        raise BratteliError("profile must be compact within the prefix")
    n0 = 0
    if not profile.is_empty():
        for cand in range(prefix.depth - 1):
            if close(prefix, [(cand, v) for v in profile.T[cand]]) == profile:
                n0 = cand
                break
    kept = profile.complement(prefix)
    for line in kept[n0]:
        ok = True
        for n in range(n0, prefix.depth):
            if line >= prefix.width(n) or line not in kept[n]:
                ok = False
                break
            if n < prefix.depth - 1:
                row = prefix.matrices[n].row(line)
                if any(row[j] != (1 if j == line else 0) for j in range(len(row))):
                    ok = False
                    break
        if ok:
            return True
    return False
