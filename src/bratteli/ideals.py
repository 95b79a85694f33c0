"""Closed two-sided ideals of an AF-algebra, computed on diagram prefixes.

An ideal is encoded by the per-level vertex sets T_n it absorbs.  Two
propagation rules pin these sets down:

  directed:   k in T_n and A_n(l, k) != 0        ==>  l in T_{n+1}
  hereditary: every l with A_n(l, k) != 0 in T_{n+1}  ==>  k in T_n

The hereditary rule needs the next level, so it is asserted at every level
except the last; the last level of a truncation is free.  Consequently a
valid profile is determined by its last-level set, every statement here is
prefix-relative, and the closure of a seed set is a genuine least fixpoint.

All closures run through one kernel on int bitmask levels, with one
successor mask per matrix column, built (and the prefix validated) once per
public call.  One forward pass ORs the successor masks of the set bits into
the next level (directed); one backward pass, from the last matrix down,
adds every column whose successor mask lies in T_{n+1} (hereditary).  That
is the least fixpoint: a column the backward pass adds has all its
successors in T_{n+1} already, so it pushes nothing new forward.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable

from .diagram import BratteliPrefix, DimensionVector, MultiplicityMatrix
from .errors import BratteliError
from .rfd import RfdWitness, validate_witness

DEFAULT_WIDTH_CAP = 16


@dataclass(frozen=True)
class IdealProfile:
    """Per-level absorbed-vertex sets of a closed two-sided ideal."""

    T: tuple[tuple[int, ...], ...]

    def __init__(self, T: Iterable[Iterable[int]]) -> None:
        object.__setattr__(self, "T", tuple(tuple(sorted(set(level))) for level in T))

    @property
    def depth(self) -> int:
        return len(self.T)

    def complement(self, prefix: BratteliPrefix) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(v for v in range(prefix.width(n)) if v not in absorbed)
            for n, absorbed in enumerate(map(set, self.T))
        )

    def is_empty(self) -> bool:
        return all(not level for level in self.T)

    def is_full(self, prefix: BratteliPrefix) -> bool:
        return all(len(self.T[n]) == prefix.width(n) for n in range(self.depth))

    def sort_key(self):
        return self.T


def profile_is_valid(prefix: BratteliPrefix, profile: IdealProfile) -> bool:
    """Both propagation rules hold at every applicable level, checked rule
    by rule (deliberately not through the closure kernel)."""
    if profile.depth != prefix.depth:
        raise BratteliError(
            f"profile has {profile.depth} levels, prefix has {prefix.depth}"
        )
    for n, level in enumerate(profile.T):
        for v in level:
            if not 0 <= v < prefix.width(n):
                raise BratteliError(f"profile vertex {v} out of range at level {n}")
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


def _successor_masks(prefix: BratteliPrefix) -> list[list[int]]:
    """Validate the prefix, then give per matrix the mask of the rows each
    column reaches with a non-zero entry."""
    prefix.require_valid()
    return [
        [sum(1 << l for l, e in enumerate(col) if e) for col in zip(*mat.entries)]
        for mat in prefix.matrices
    ]


def _closure(succ: list[list[int]], sets: list[int]) -> list[int]:
    """Least valid profile containing the level masks `sets` (updated in
    place): one directed push forward, then one hereditary pull backward."""
    for n, cols in enumerate(succ):
        here = sets[n]
        if here:
            sets[n + 1] |= reduce(or_, (s for k, s in enumerate(cols) if here >> k & 1), 0)
    for n in range(len(succ) - 1, -1, -1):
        nxt = sets[n + 1]
        sets[n] |= sum(1 << k for k, s in enumerate(succ[n]) if s | nxt == nxt)
    return sets


def _profile(prefix: BratteliPrefix, sets: list[int]) -> IdealProfile:
    return IdealProfile(
        [v for v in range(prefix.width(n)) if m >> v & 1] for n, m in enumerate(sets)
    )


def _generating_level(succ: list[list[int]], profile: IdealProfile) -> int | None:
    """First interior level whose set alone closes to the whole profile."""
    masks = [sum(1 << v for v in level) for level in profile.T]
    for n0 in range(len(succ)):
        if _closure(succ, [m if n == n0 else 0 for n, m in enumerate(masks)]) == masks:
            return n0
    return None


def close(prefix: BratteliPrefix, seeds: Iterable[tuple[int, int]]) -> IdealProfile:
    """Least valid profile containing the given (level, vertex) seeds."""
    succ = _successor_masks(prefix)
    sets = [0] * prefix.depth
    for n, v in seeds:
        if not 0 <= n < prefix.depth or not 0 <= v < prefix.width(n):
            raise BratteliError(f"seed ({n}, {v}) out of range")
        sets[n] |= 1 << v
    return _profile(prefix, _closure(succ, sets))


def profile_from_last_level(prefix: BratteliPrefix, last: Iterable[int]) -> IdealProfile:
    """The unique valid profile whose last-level set is `last`."""
    return close(prefix, ((prefix.depth - 1, v) for v in set(last)))


def quotient(prefix: BratteliPrefix, profile: IdealProfile) -> BratteliPrefix:
    """Diagram of the quotient algebra: keep complements, restrict matrices.

    Unitality is not asserted on the result (the restricted maps generally
    are not unital).
    """
    prefix.require_valid()
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
    succ = _successor_masks(prefix)
    if not profile_is_valid(prefix, profile):
        raise BratteliError("profile violates the propagation rules")
    return profile.is_empty() or _generating_level(succ, profile) is not None


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


def enumerate_ideals(prefix: BratteliPrefix) -> list[IdealProfile]:
    """All valid profiles on the prefix, canonically ordered.

    Since a profile is backward-determined by its last-level set, the
    enumeration walks the 2^m subsets of the widest admissible last level;
    the subset brute force over all levels survives in the tests as an
    independent oracle.
    """
    succ = _successor_masks(prefix)
    cap = width_cap()
    widest = max(prefix.width(n) for n in range(prefix.depth))
    if widest > cap:
        raise BratteliError(f"width cap exceeded: {widest} > {cap}")
    last = prefix.depth - 1
    out = [_profile(prefix, _closure(succ, [0] * last + [m])) for m in range(1 << prefix.width(last))]
    out.sort(key=IdealProfile.sort_key)
    return out


@dataclass(frozen=True)
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
    succ = _successor_masks(prefix)
    persistent = witness.r[-2] if prefix.depth >= 2 else 0
    last = prefix.depth - 1
    vertices = witness.permutations[last][:persistent] if witness.permutations else range(persistent)
    full_last = (1 << prefix.width(last)) - 1
    return [
        PrimitiveIdeal(j, witness.kseq[j], _profile(prefix, _closure(succ, [0] * last + [others])))
        for j, others in enumerate(full_last & ~(1 << v) for v in vertices)
    ]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class JustInfiniteEvidence:
    depth: int
    seeds: tuple[SeedEvidence, ...]

    @property
    def passed(self) -> bool:
        return all(not s.failed for s in self.seeds)

    @property
    def failures(self) -> tuple[SeedEvidence, ...]:
        return tuple(s for s in self.seeds if s.failed)


def _kept_is_identity(mat: MultiplicityMatrix, cols: list[int], kept: int, kept_next: int) -> bool:
    """Is the submatrix on the kept columns and kept rows an identity?  Each
    kept column must reach one kept row, with entry 1, and the rows must
    rise with the columns.  Every kept row is reached: the directed rule puts
    its non-zero entries, of which it has at least one, in kept columns."""
    prev = 0
    for k, s in enumerate(cols):
        if kept >> k & 1:
            s &= kept_next
            if s <= prev or s & (s - 1) or mat.entries[s.bit_length() - 1][k] != 1:
                return False
            prev = s
    return True


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
    succ = _successor_masks(prefix)
    full = [(1 << prefix.width(n)) - 1 for n in range(prefix.depth)]
    mats = prefix.matrices
    n_mats = len(mats)
    records = []
    for n in range(prefix.depth):
        observable = n_mats > n + 1
        for v in range(prefix.width(n)):
            sets = _closure(succ, [1 << v if i == n else 0 for i in range(prefix.depth)])
            if sets == full:
                records.append(SeedEvidence(n, v, True, None, observable))
                continue
            # The quotient keeps the complements and stabilizes from the start
            # of its trailing identity run (None: the last matrix is no identity).
            kept = [f & ~t for f, t in zip(full, sets)]
            s = n_mats
            while s > 0 and _kept_is_identity(mats[s - 1], succ[s - 1], kept[s - 1], kept[s]):
                s -= 1
            stabilize = s if s < n_mats else (0 if not n_mats else None)
            records.append(SeedEvidence(n, v, False, stabilize, observable))
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
    succ = _successor_masks(prefix)
    for n, mat in enumerate(prefix.matrices):
        if not MultiplicityMatrix(mat.entries[: mat.cols]).is_identity():
            raise BratteliError(f"shape mismatch: matrix {n} is not identity-over-rows")
    if not profile_is_valid(prefix, profile):
        raise BratteliError("profile violates the propagation rules")
    if profile.is_full(prefix):
        raise BratteliError("profile must be proper")
    n0 = 0 if profile.is_empty() else _generating_level(succ, profile)
    if n0 is None:
        raise BratteliError("profile must be compact within the prefix")
    kept = profile.complement(prefix)
    # Row `line` of matrix n lies in its identity block (checked above), so
    # a line kept at every level only ever continues into itself.
    return any(all(line in kept[n] for n in range(n0, prefix.depth)) for line in kept[n0])
