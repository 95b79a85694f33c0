"""Constructive realization of inverse-limit simplex targets by diagrams.

Given target points xi^(n) in the n-dimensional simplex (one per level,
typically the normalized heads of a fixed non-negative weight sequence t),
this module chooses multiplicity vectors m^(n) level by level so that the
resulting triangular diagram's trace maps send the new vertex of each level
to a point zeta^(n) within 2^-n of xi^(n), in l1 and l2 alike.  When the
targets are rational with positive coordinates the approximation can be made
exact (all gaps zero).

The per-level tolerance is eps_n = 2^-n / (n+1): a per-coordinate error
below eps_n bounds the l1 gap by (n+1) eps_n = 2^-n, and the l2 gap a
fortiori, keeping every certificate in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .diagram import TriangularSpec, characteristic_sequence
from .errors import BratteliError, InsufficientPrefixError
from .intertwine import MapSequence
from .simplex import SimplexPoint, StochasticAffineMap

_SCAN_CAP = 10**7


@dataclass(frozen=True)
class TailRule:
    """Continuation of a weight sequence beyond its explicit head."""

    kind: str  # "zero" | "geometric" | "equal-to-k"
    ratio: Fraction = Fraction(0)
    spec: TriangularSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        if self.kind not in ("zero", "geometric", "equal-to-k"):
            raise BratteliError(f"unknown tail rule {self.kind!r}")
        if self.kind == "geometric" and self.ratio <= 0:
            raise BratteliError("geometric ratio must be positive")
        if self.kind == "equal-to-k" and not isinstance(self.spec, TriangularSpec):
            raise BratteliError("equal-to-k tail needs a triangular spec")

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """An equal-to-k tail's k_0, ..., k_L, computed once per rule."""
        return characteristic_sequence(self.spec, self.spec.levels_defined)

    @staticmethod
    def zero() -> "TailRule":
        return TailRule("zero")

    @staticmethod
    def geometric(ratio) -> "TailRule":
        return TailRule("geometric", ratio=ratio)

    @staticmethod
    def equal_to_k(spec: TriangularSpec) -> "TailRule":
        return TailRule("equal-to-k", spec=spec)


@dataclass(frozen=True)
class StationarySpec:
    """Non-negative weight sequence t_0, t_1, ... defining stationary targets.

    `head` lists explicit values; `tail` continues them.  A geometric tail
    continues the last head value by repeated multiplication (or runs
    ratio^n from n = 0 when the head is empty).  Proportional sequences give
    identical targets, so no normalization is stored.
    """

    head: tuple[Fraction, ...]
    tail: TailRule

    def __init__(self, head: Iterable = (), tail: TailRule | None = None) -> None:
        hd = tuple(Fraction(x) for x in head)
        if any(x < 0 for x in hd):
            raise BratteliError("weights must be non-negative")
        tl = tail if tail is not None else TailRule.zero()
        object.__setattr__(self, "head", hd)
        object.__setattr__(self, "tail", tl)
        if self._tail_is_zero() and all(x == 0 for x in hd):
            raise BratteliError("weight sequence is identically zero")

    def _tail_is_zero(self) -> bool:
        t = self.tail
        if t.kind == "zero":
            return True
        if t.kind == "geometric":
            return bool(self.head) and self.head[-1] == 0
        return False

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise BratteliError("index must be non-negative")
        if n < len(self.head):
            return self.head[n]
        t = self.tail
        if t.kind == "zero":
            return Fraction(0)
        if t.kind == "geometric":
            if self.head:
                return self.head[-1] * t.ratio ** (n - len(self.head) + 1)
            return t.ratio**n
        if n >= len(t.sizes):
            characteristic_sequence(t.spec, n)  # raises the spec's InsufficientPrefixError
        return Fraction(t.sizes[n])

    @property
    def first_nonzero(self) -> int:
        """At most len(head): a zero tail needs a nonzero head weight, an
        empty head's geometric tail starts at 1, and k_n >= 1."""
        return next(n for n in range(len(self.head) + 1) if self.value(n) != 0)

    def targets(self) -> "TargetSequence":
        return TargetSequence(
            lambda n: stationary_targets(self, n), max_level=None, stationary_from=self.first_nonzero
        )


def stationary_targets(t: StationarySpec, n: int) -> SimplexPoint:
    """Target point on level n: the normalized weight head.

    Below the first nonzero weight the target is genuinely arbitrary; the
    documented default is the barycenter.
    """
    if n < t.first_nonzero:
        return SimplexPoint.barycenter(n + 1)
    return SimplexPoint.normalized([t.value(j) for j in range(n + 1)])


class TargetSequence:
    """Producer of the per-level target points xi^(n).

    `stationary_from` is the level from which the coherence identity
    f_n(xi^(n+1)) = xi^(n) is promised (exact for stationary specs); None
    when nothing is promised.
    """

    def __init__(self, point_fn, max_level: int | None, stationary_from: int | None):
        self._point_fn = point_fn
        self.max_level = max_level
        self.stationary_from = stationary_from

    @staticmethod
    def explicit(points: Sequence[SimplexPoint], stationary_from: int | None = None) -> "TargetSequence":
        pts = tuple(points)
        for n, p in enumerate(pts):
            if p.dim != n + 1:
                raise BratteliError(f"target {n} must have {n + 1} coordinates, has {p.dim}")
        if stationary_from is not None and not (type(stationary_from) is int and 0 <= stationary_from < len(pts)):
            raise BratteliError(f"stationary_from must be a level in [0, {len(pts) - 1}], got {stationary_from!r}")
        return TargetSequence(lambda n: pts[n], max_level=len(pts) - 1, stationary_from=stationary_from)

    def point(self, n: int) -> SimplexPoint:
        if n < 0:
            raise BratteliError("level must be non-negative")
        if self.max_level is not None and n > self.max_level:
            raise InsufficientPrefixError(
                f"targets defined through level {self.max_level}, asked for {n}"
            )
        return self._point_fn(n)

    def connecting_map(self, n: int) -> StochasticAffineMap:
        """The map fixing the first n+1 vertices and sending the new vertex
        of level n+1 to xi^(n)."""
        return StochasticAffineMap.vertex_fixing(self.point(n))

    def map_sequence(self, count: int) -> MapSequence:
        return MapSequence([self.connecting_map(n) for n in range(count)])

    def incoherent_levels(self, count: int) -> tuple[int, ...]:
        """Levels n in [stationary_from, count) where f_n(xi^(n+1)) != xi^(n).

        f_n fixes the first n+1 vertices and sends vertex n+1 to xi^(n), so
        this identity is the whole of f_n o g_{n+1} = g_n for the cylinder
        maps g_n onto the levels.
        """
        if self.stationary_from is None:
            raise BratteliError("coherence needs a declared stationary range")
        return tuple(
            n
            for n in range(self.stationary_from, count)
            if self.connecting_map(n).apply(self.point(n + 1)) != self.point(n)
        )

    def check_coherence(self, count: int) -> bool:
        """Exact check of f_n(xi^(n+1)) = xi^(n) on the promised range."""
        return self.stationary_from is not None and not self.incoherent_levels(count)


def approximate_on_simplex(
    xi: SimplexPoint,
    eps,
    exact: bool = False,
) -> tuple[int, ...]:
    """Positive integers l_0..l_n with |l_j / sum(l) - xi_j| < eps for all j.

    Exact mode clears denominators (requires every coordinate positive) and
    returns a zero-error vector; approximate mode scans denominators
    D = 1, 2, 3, ... rounding by largest remainder and accepting the first D
    that meets eps, so a returned vector is always correct.

    Both modes work on the point's integers xi_j = p_j / q.  In the scan,
    floor and remainder of xi_j D are p_j D // q and p_j D % q, and
    |l_j / T - xi_j| < eps, with T = sum(l), is tested as
    |l_j q - p_j T| eps.den < eps.num T q.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise BratteliError("tolerance must be positive")
    ps, q = xi.nums, xi.den
    if exact:
        if 0 in ps:
            raise BratteliError(
                "exact mode needs strictly positive coordinates (each l_j must be >= 1)"
            )
        return ps
    eps_num, eps_den = eps.numerator, eps.denominator
    for d in range(1, _SCAN_CAP + 1):
        scaled = [p * d for p in ps]
        base = [x // q for x in scaled]
        remainders = [(x % q, -j) for j, x in enumerate(scaled)]
        deficit = d - sum(base)
        for _, neg_j in sorted(remainders, reverse=True)[:deficit]:
            base[-neg_j] += 1
        ell = [max(1, b) for b in base]
        total = sum(ell)
        bound = eps_num * total * q
        if all(abs(l * q - p * total) * eps_den < bound for l, p in zip(ell, ps)):
            return tuple(ell)
    raise BratteliError(f"no approximation found within denominator cap {_SCAN_CAP}")


@dataclass(frozen=True)
class LevelSynthesis:
    """Everything chosen and certified at one synthesis level."""

    level: int
    ell: tuple[int, ...]
    mvector: tuple[int, ...]
    k_next: int
    xi: SimplexPoint
    zeta: SimplexPoint
    gap_l1: Fraction
    gap_l2sq: Fraction
    epsilon: Fraction


@dataclass(frozen=True)
class SynthesisCertificate:
    levels: tuple[LevelSynthesis, ...]


def _level_from_ell(ks: list[int], ell: Sequence[int]):
    """One induction step: from the sizes so far and the level's integer
    approximation, produce (multiplicity vector, next size, realized point).

    With the least scale K such that every k_j divides K l_j, that is
    K = lcm_j(k_j / gcd(k_j, l_j)), m_j = K l_j / k_j gives zeta_j =
    m_j k_j / k_next = l_j / sum(l) with k_next = K sum(l), so the realized
    point is exactly the integer approximation of the target.
    """
    scale = lcm(*(k // gcd(k, l) for k, l in zip(ks, ell)))
    mvector = tuple(scale * l // k for k, l in zip(ks, ell))
    k_next = scale * sum(ell)
    return mvector, k_next, SimplexPoint._from_ints(ell, sum(ell))


def synthesize(
    targets: TargetSequence,
    count: int,
    k0: int = 1,
    exact: bool = False,
) -> tuple[TriangularSpec, SynthesisCertificate]:
    """Build a triangular diagram realizing the targets through level `count`.

    Every multiplicity is at least 1, so the result always carries the
    just-infinite block structure; each level's realized point is within
    2^-n of the target in l1 (strictly), with the squared-l2 gap below 4^-n.
    """
    if not isinstance(k0, int) or isinstance(k0, bool) or k0 < 1:
        raise BratteliError("k0 must be a positive integer")
    if count < 0:
        raise BratteliError("level count must be non-negative")
    ks = [k0]
    mvectors: list[tuple[int, ...]] = []
    records: list[LevelSynthesis] = []
    for n in range(count + 1):
        xi = targets.point(n)
        eps_n = Fraction(1, 2**n * (n + 1))
        ell = approximate_on_simplex(xi, eps_n, exact=exact)
        mvector, k_next, zeta_point = _level_from_ell(ks, ell)
        gap_l1 = xi.l1_distance(zeta_point)
        gap_l2 = xi.l2sq_distance(zeta_point)
        if gap_l1 >= Fraction(1, 2**n):
            raise BratteliError(f"level {n}: l1 gap {gap_l1} is not below its bound 1/{2**n}")
        records.append(
            LevelSynthesis(n, ell, mvector, k_next, xi, zeta_point, gap_l1, gap_l2, eps_n)
        )
        mvectors.append(mvector)
        ks.append(k_next)
    return TriangularSpec(k0, mvectors), SynthesisCertificate(tuple(records))


@dataclass(frozen=True)
class Classification:
    """Shape of the limit simplex of a stationary family."""

    verdict: str  # "bauer" | "non-bauer" | "degenerate"
    e_inf: tuple[Fraction, ...] | None = None
    total: Fraction | None = None


def classify_stationary(t: StationarySpec, depth: int = 32) -> Classification:
    """Divergent weights give the one-point-compactification Bauer simplex;
    summable weights with at least two atoms give a non-Bauer simplex whose
    limit of extreme points is the normalized weight mixture; a single atom
    is isolated as degenerate."""
    if depth < 0:
        raise BratteliError("depth must be non-negative")
    tail = t.tail
    if t._tail_is_zero():
        atoms = sum(1 for x in t.head if x != 0)
        if atoms == 1:
            return Classification("degenerate")
        total = sum(t.head)
    elif tail.kind == "equal-to-k" or tail.ratio >= 1:
        return Classification("bauer")  # sizes k_n >= 1 or a ratio >= 1: the sum diverges
    elif t.head:
        # the head's last value is repeated down the tail with ratio q
        total = sum(t.head) + t.head[-1] * tail.ratio / (1 - tail.ratio)
    else:
        total = 1 / (1 - tail.ratio)  # sum of q^j from j = 0
    coeffs = tuple(t.value(j) / total for j in range(depth + 1))
    return Classification("non-bauer", e_inf=coeffs, total=total)
