from __future__ import annotations

import itertools
import random

import pytest

from bratteli import (
    BratteliError,
    BratteliPrefix,
    IdealProfile,
    check_rfd,
    check_rfd_ji,
    close,
    embed_triangular,
    enumerate_ideals,
    has_findim_quotient_line,
    is_compact,
    just_infinite_evidence,
    primitive_profiles,
    profile_from_last_level,
    profile_is_valid,
    quotient,
)
from bratteli.ideals import JustInfiniteEvidence, SeedEvidence

from conftest import brute_force_profiles, random_unital_prefix


def least_containing(profiles: list[IdealProfile], seeds) -> IdealProfile:
    """The brute-force profile that contains the seeds and lies inside
    every other profile containing them."""
    uppers = [p for p in profiles if all(v in p.T[n] for n, v in seeds)]
    (least,) = [
        p
        for p in uppers
        if all(set(p.T[n]) <= set(q.T[n]) for q in uppers for n in range(p.depth))
    ]
    return least


def slow_evidence(prefix: BratteliPrefix) -> JustInfiniteEvidence:
    """Oracle for `just_infinite_evidence`: brute-force closure of each
    seed, then the materialised quotient and its identity matrices."""
    profiles = brute_force_profiles(prefix)
    n_mats = prefix.depth - 1
    seeds = []
    for n in range(prefix.depth):
        for v in range(prefix.width(n)):
            profile = least_containing(profiles, [(n, v)])
            observable = n_mats > n + 1
            if profile.is_full(prefix):
                seeds.append(SeedEvidence(n, v, True, None, observable))
                continue
            identities = [m.is_identity() for m in quotient(prefix, profile).matrices]
            s = n_mats
            while s > 0 and identities[s - 1]:
                s -= 1
            stable = s if s < n_mats else (0 if not n_mats else None)
            seeds.append(SeedEvidence(n, v, False, stable, observable))
    return JustInfiniteEvidence(prefix.depth, tuple(seeds))


def random_identity_over_rows_prefix(rng: random.Random, max_depth=4, max_width=4):
    """Identity blocks stacked over random rows, so that many of these
    prefixes carry an RFD witness; unital or not."""
    depth = rng.randrange(2, max_depth + 1)
    widths = [rng.randrange(1, 3)]
    for _ in range(depth - 1):
        widths.append(rng.randrange(widths[-1], min(widths[-1] + 2, max_width) + 1))
    unital = rng.random() < 0.5
    levels = [[rng.randrange(1, 4) for _ in range(widths[0])]]
    matrices = []
    for cols, rows in zip(widths, widths[1:]):
        extra = [[rng.randrange(0, 3) for _ in range(cols)] for _ in range(rows - cols)]
        for row in extra:
            if not any(row):
                row[rng.randrange(cols)] = 1
        mat = [[int(i == j) for j in range(cols)] for i in range(cols)] + extra
        image = [sum(e * u for e, u in zip(row, levels[-1])) for row in mat]
        if not unital:
            image[cols:] = [x + rng.randrange(0, 2) for x in image[cols:]]
        matrices.append(mat)
        levels.append(image)
    return BratteliPrefix(levels, matrices, unital=unital)


class TestClose:
    def test_all_ones_single_seed(self, ones12):
        prefix = embed_triangular(ones12, 5)
        profile = close(prefix, [(1, 1)])
        assert profile.T == ((), (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5))
        assert profile.complement(prefix)[5] == (0,)

    def test_empty_seed_set(self, ones12):
        assert close(embed_triangular(ones12, 3), []).is_empty()

    def test_car_quotient_kernel_profile(self, ex57a_right):
        profile = close(ex57a_right, [(1, 0)])
        for n in range(1, ex57a_right.depth):
            assert profile.T[n] == tuple(range(n))
        assert profile.T[0] == ()

    def test_out_of_range_seed(self, ones12):
        with pytest.raises(BratteliError):
            close(embed_triangular(ones12, 2), [(5, 0)])


class TestQuotient:
    def test_all_ones_kernel_of_first_line(self, ones12):
        prefix = embed_triangular(ones12, 5)
        profile = close(prefix, [(1, 1)])
        q = quotient(prefix, profile)
        assert all(level.entries == (1,) for level in q.levels)
        assert all(mat.is_identity() for mat in q.matrices)
        assert not q.unital  # never asserted on quotients

    def test_zero_ideal_gives_back_prefix_data(self, ones12):
        prefix = embed_triangular(ones12, 4)
        q = quotient(prefix, close(prefix, []))
        assert [l.entries for l in q.levels] == [l.entries for l in prefix.levels]
        assert [m.entries for m in q.matrices] == [m.entries for m in prefix.matrices]

    def test_car_quotient_doubles(self, ex57a_right):
        q = quotient(ex57a_right, close(ex57a_right, [(1, 0)]))
        assert [l.entries for l in q.levels[:5]] == [(1,), (2,), (4,), (8,), (16,)]
        assert all(m.entries == ((2,),) for m in q.matrices[1:])

    def test_full_profile_rejected(self, ones12):
        prefix = embed_triangular(ones12, 3)
        with pytest.raises(BratteliError):
            quotient(prefix, close(prefix, [(0, 0)]))


class TestIsCompact:
    def test_single_seed_kernel_is_compact(self, ex57a_right):
        assert is_compact(ex57a_right, close(ex57a_right, [(1, 0)]))

    def test_zero_ideal_is_compact(self, ones12):
        prefix = embed_triangular(ones12, 4)
        assert is_compact(prefix, close(prefix, []))

    def test_co_last_column_never_compact(self, ex57b):
        for depth in range(2, 13):
            prefix = ex57b.truncate(depth)
            profile = profile_from_last_level(prefix, range(prefix.width(depth - 1) - 1))
            assert profile.T == tuple(tuple(range(n)) for n in range(depth))
            assert not is_compact(prefix, profile)


class TestEnumerate:
    def test_all_ones_depth_four_against_oracle(self, ones12):
        prefix = embed_triangular(ones12, 3)
        assert enumerate_ideals(prefix) == brute_force_profiles(prefix)

    def test_doubling_chain_has_only_trivial_ideals(self):
        prefix = BratteliPrefix([[1], [2], [4]], [[[2]], [[2]]])
        profiles = enumerate_ideals(prefix)
        assert len(profiles) == 2
        assert profiles[0].is_empty() and profiles[-1].is_full(prefix)

    def test_depth_two_against_oracle(self):
        rng = random.Random(7)
        prefix = random_unital_prefix(rng, max_depth=2, max_width=4)
        assert enumerate_ideals(prefix) == brute_force_profiles(prefix)

    def test_width_cap(self, ex57b, monkeypatch):
        monkeypatch.setenv("BRATTELI_MAX_WIDTH", "4")
        with pytest.raises(BratteliError, match="^width cap exceeded: "):
            enumerate_ideals(ex57b)

    def test_every_output_is_valid(self, ex57b):
        prefix = ex57b.truncate(5)
        for profile in enumerate_ideals(prefix):
            assert profile_is_valid(prefix, profile)


class TestPrimitive:
    def test_all_ones_depth_five(self, ones12):
        prefix = embed_triangular(ones12, 5)
        witness = check_rfd_ji(prefix).witness
        prims = primitive_profiles(prefix, witness)
        assert [(p.line, p.k) for p in prims] == [(0, 1), (1, 1), (2, 2), (3, 4), (4, 8)]
        for p in prims:
            q = quotient(prefix, p.profile)
            assert q.levels[-1].entries == (p.k,)

    def test_depth_two_only_first_line(self, ones12):
        prefix = embed_triangular(ones12, 1)
        prims = primitive_profiles(prefix, check_rfd_ji(prefix).witness)
        assert [(p.line, p.k) for p in prims] == [(0, 1)]

    def test_synthesized_diagram_quotients_stabilize(self):
        from fractions import Fraction

        from bratteli import StationarySpec, TailRule, synthesize

        targets = StationarySpec(tail=TailRule.geometric(Fraction(1, 2))).targets()
        spec, _ = synthesize(targets, 5, exact=True)
        prefix = embed_triangular(spec, 5)
        witness = check_rfd_ji(prefix).witness
        ks = [witness.kseq[p.line] for p in primitive_profiles(prefix, witness)]
        for p in primitive_profiles(prefix, witness):
            q = quotient(prefix, p.profile)
            assert q.levels[-1].entries == (p.k,)
            assert all(m.is_identity() for m in q.matrices[p.line + 1 :])
        assert len(ks) == witness.r[-2]

    def test_witness_mismatch(self, ones12, ex57a_right):
        prefix = embed_triangular(ones12, 4)
        wrong = check_rfd(ex57a_right).witness
        with pytest.raises(BratteliError):
            primitive_profiles(prefix, wrong)


class TestEnumeratedStructureOnJiDiagrams:
    def test_primitives_are_the_co_single_persistent_column_profiles(self, ones12):
        prefix = embed_triangular(ones12, 4)
        witness = check_rfd_ji(prefix).witness
        prims = {p.profile.T for p in primitive_profiles(prefix, witness)}
        all_profiles = {p.T for p in enumerate_ideals(prefix)}
        assert prims <= all_profiles
        persistent = witness.r[-2]
        expected = set()
        for line in range(persistent):
            others = [v for v in range(prefix.width(4)) if v != line]
            expected.add(profile_from_last_level(prefix, others).T)
        assert prims == expected

    def test_nonzero_profiles_stabilize_within_one_level_of_seed_depth(self, ones12):
        prefix = embed_triangular(ones12, 4)
        for profile in enumerate_ideals(prefix):
            if profile.is_empty() or profile.is_full(prefix):
                continue
            seed_depth = min(n for n in range(prefix.depth) if profile.T[n])
            q = quotient(prefix, profile)
            assert all(m.is_identity() for m in q.matrices[seed_depth + 1 :])


class TestJustInfiniteEvidence:
    def test_all_ones_depth_eight_passes(self, ones12):
        prefix = embed_triangular(ones12, 8)
        report = just_infinite_evidence(prefix, check_rfd_ji(prefix).witness)
        assert report.passed
        for s in report.seeds:
            if s.observable and not s.full:
                assert s.stabilize_from is not None
                assert s.stabilize_from <= s.level + 1

    def test_car_quotient_fails_on_doubling_seed(self, ex57a_right):
        witness = check_rfd(ex57a_right).witness
        report = just_infinite_evidence(ex57a_right, witness)
        assert not report.passed
        assert (1, 0) in [(s.level, s.vertex) for s in report.failures]

    def test_shallow_prefix_is_vacuous(self, ones12):
        prefix = embed_triangular(ones12, 1)
        report = just_infinite_evidence(prefix, check_rfd_ji(prefix).witness)
        assert report.passed
        assert all(not s.observable for s in report.seeds)


class TestFindimQuotientLine:
    def test_every_proper_compact_ideal_of_doubling_tail(self, ex57b):
        prefix = ex57b.truncate(6)
        seen = 0
        for profile in enumerate_ideals(prefix):
            if profile.is_full(prefix) or not is_compact(prefix, profile):
                continue
            assert has_findim_quotient_line(prefix, profile)
            seen += 1
        assert seen > 2

    def test_zero_ideal(self, ex57b):
        prefix = ex57b.truncate(5)
        assert has_findim_quotient_line(prefix, close(prefix, []))

    def test_all_ones_first_line_kernel(self, ones12):
        prefix = embed_triangular(ones12, 5)
        width = prefix.width(5)
        profile = profile_from_last_level(prefix, [v for v in range(width) if v != 0])
        assert has_findim_quotient_line(prefix, profile)

    def test_shape_mismatch(self, ex57a_right):
        with pytest.raises(BratteliError):
            has_findim_quotient_line(ex57a_right, close(ex57a_right, []))


class TestLattice:
    def test_meet_and_join_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(8):
            prefix = random_unital_prefix(rng, max_depth=3, max_width=3)
            profiles = brute_force_profiles(prefix)
            for a, b in itertools.islice(itertools.combinations(profiles, 2), 60):
                meet = IdealProfile(
                    [set(a.T[n]) & set(b.T[n]) for n in range(prefix.depth)]
                )
                assert profile_is_valid(prefix, meet)
                union_seeds = [
                    (n, v)
                    for n in range(prefix.depth)
                    for v in set(a.T[n]) | set(b.T[n])
                ]
                join = close(prefix, union_seeds)
                uppers = [
                    p
                    for p in profiles
                    if all(
                        set(p.T[n]) >= set(a.T[n]) | set(b.T[n])
                        for n in range(prefix.depth)
                    )
                ]
                least = min(
                    uppers,
                    key=lambda p: tuple(len(p.T[n]) for n in range(prefix.depth)),
                )
                assert sum(len(t) for t in join.T) == sum(len(t) for t in least.T)
                assert join in profiles


class TestKernelAgainstBruteForce:
    def test_close_is_the_least_containing_profile(self):
        rng = random.Random(303)
        for _ in range(40):
            prefix = random_unital_prefix(rng, max_depth=4, max_width=4)
            profiles = brute_force_profiles(prefix)
            for _ in range(6):
                seeds = [
                    (n, v)
                    for n in range(prefix.depth)
                    for v in range(prefix.width(n))
                    if rng.random() < 0.15
                ]
                assert close(prefix, seeds) == least_containing(profiles, seeds)

    def test_just_infinite_evidence_matches_quotient_oracle(self):
        rng = random.Random(304)
        checked = 0
        for _ in range(80):
            prefix = random_identity_over_rows_prefix(rng)
            result = check_rfd(prefix)
            if not result.consistent:
                continue
            assert just_infinite_evidence(prefix, result.witness) == slow_evidence(prefix)
            checked += 1
        assert checked >= 40


@pytest.mark.parametrize(
    "name",
    ["close", "enumerate_ideals", "is_compact", "primitive_profiles", "just_infinite_evidence"],
)
def test_each_public_call_validates_its_prefix_once(name, monkeypatch, ones12, ex57a_right):
    prefix = embed_triangular(ones12, 6)
    ji_witness = check_rfd_ji(prefix).witness
    rfd_witness = check_rfd(ex57a_right).witness
    profile = close(prefix, [(1, 1)])
    runs = {
        "close": lambda: close(prefix, [(2, 0), (3, 1)]),
        "enumerate_ideals": lambda: enumerate_ideals(prefix),
        "is_compact": lambda: is_compact(prefix, profile),
        "primitive_profiles": lambda: primitive_profiles(prefix, ji_witness),
        "just_infinite_evidence": lambda: just_infinite_evidence(ex57a_right, rfd_witness),
    }
    calls = []
    original = BratteliPrefix.validate

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(BratteliPrefix, "validate", counting)
    runs[name]()
    assert len(calls) == 1
