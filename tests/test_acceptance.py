"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every assertion is exact (integers and rationals); the stated time
budgets are asserted with `time.perf_counter`.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest

from bratteli import (
    IdealProfile,
    IntertwiningData,
    MapSequence,
    StationarySpec,
    StochasticAffineMap,
    TailBound,
    TailRule,
    characteristic_sequence,
    check_rfd,
    check_rfd_ji,
    close,
    classify_stationary,
    embed_triangular,
    enumerate_ideals,
    gap_series,
    has_findim_quotient_line,
    induced_trace_map,
    is_compact,
    just_infinite_evidence,
    limit_trace_restriction,
    limit_vertex_estimate,
    primitive_profiles,
    profile_from_last_level,
    profile_is_valid,
    quotient,
    synthesize,
    zeta,
)
from bratteli.fixtures import fixture_diagram

from conftest import (
    all_ones_spec,
    brute_force_profiles,
    random_point,
    random_stochastic_map,
    random_unital_prefix,
    random_unital_step,
)


def _pass(number: int, message: str) -> None:
    print(f"criterion {number}: PASS - {message}")


@pytest.fixture(scope="module")
def inverse_square_setup():
    """Shared depth-10 approximate synthesis for criteria 6 and 12."""
    weights = StationarySpec([F(1, (j + 1) ** 2) for j in range(11)])
    targets = weights.targets()
    spec, cert = synthesize(targets, 10)
    top = targets.map_sequence(10)
    bottom = MapSequence(
        [StochasticAffineMap.vertex_fixing(zeta(spec, n)) for n in range(10)]
    )
    data = IntertwiningData(top, bottom, tail=TailBound.geometric(F(1, 2)))
    return targets, spec, cert, data


def test_criterion_01_characteristic_sequence():
    start = time.perf_counter()
    ks = characteristic_sequence(all_ones_spec(12), 12)
    assert ks == (1,) + tuple(2 ** max(0, j - 1) for j in range(1, 13))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, f"sizes double exactly through level 12 ({elapsed:.3f}s)")


def test_criterion_02_zeta_points():
    start = time.perf_counter()
    spec = all_ones_spec(12)
    for n in range(1, 11):
        ks = characteristic_sequence(spec, n + 1)
        point = zeta(spec, n)
        assert point.coords == tuple(F(ks[j], ks[n + 1]) for j in range(n + 1))
        assert sum(point.coords) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(2, f"new-vertex images match the size ratios for n = 1..10 ({elapsed:.3f}s)")


def test_criterion_03_limit_trace_restriction():
    spec = all_ones_spec(6)
    ks = characteristic_sequence(spec, 5)
    point = limit_trace_restriction(ks, 5)
    assert point.coords == tuple(F(k, 32) for k in (1, 1, 2, 4, 8, 16))
    _pass(3, "level-5 limit-trace coefficients are 2^-5 * (1,1,2,4,8,16)")


def test_criterion_04_stationary_classifier():
    bauer = classify_stationary(StationarySpec((), TailRule.equal_to_k(all_ones_spec(16))))
    assert bauer.verdict == "bauer"
    non_bauer = classify_stationary(StationarySpec((), TailRule.geometric(F(1, 2))))
    assert non_bauer.verdict == "non-bauer"
    assert non_bauer.e_inf[:5] == (F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32))
    degenerate = classify_stationary(StationarySpec([1]))
    assert degenerate.verdict == "degenerate"
    _pass(4, "size weights -> bauer; halving weights -> non-bauer with halving mixture; single atom -> degenerate")


def test_criterion_05_exact_synthesis_roundtrip():
    start = time.perf_counter()
    targets = StationarySpec(tail=TailRule.geometric(F(1, 2))).targets()
    spec, cert = synthesize(targets, 12, exact=True)
    ks = characteristic_sequence(spec, 13)
    for n in range(13):
        assert zeta(spec, n) == targets.point(n)
        assert cert.levels[n].gap_l1 == 0 and cert.levels[n].gap_l2sq == 0
        assert sum(spec.mvectors[n][j] * ks[j] for j in range(n + 1)) == ks[n + 1]
    assert check_rfd_ji(embed_triangular(spec, 13)).consistent
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass(5, f"halving targets realized exactly through level 12 ({elapsed:.3f}s)")


def test_criterion_06_approximate_synthesis_certificate(inverse_square_setup):
    start = time.perf_counter()
    targets, spec, cert, data = inverse_square_setup
    for level in cert.levels:
        assert level.gap_l1 < F(1, 2**level.level)
        assert level.gap_l2sq < F(1, 4**level.level)
    series = gap_series(data)
    assert series.gaps == tuple(l.gap_l1 for l in cert.levels[:10])
    assert series.certificate is not None
    assert series.partial_sums[-1] + data.tail.bound_from(len(series.gaps)) == series.certificate
    assert series.certificate < 2
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(6, f"inverse-square targets: every gap under 2^-n, certificate {series.certificate} < 2 ({elapsed:.3f}s)")


def test_criterion_07_rfd_checker_on_fixtures():
    start = time.perf_counter()
    ex43 = embed_triangular(all_ones_spec(10), 10)
    r43 = check_rfd_ji(ex43)
    assert r43.consistent and r43.witness.r == tuple(range(1, 12))

    right = fixture_diagram("ex57A-right").truncate(11)
    r_right = check_rfd(right)
    assert r_right.consistent
    assert r_right.witness.r == (1,) + tuple(range(1, 11))
    assert all(b.a22 == ((1,),) for b in r_right.witness.blocks[1:])
    ji_right = check_rfd_ji(right)
    assert not ji_right.consistent

    ex57b = fixture_diagram("ex57B").truncate(11)
    r_b = check_rfd(ex57b)
    assert r_b.consistent
    assert r_b.witness.r == tuple(
        ex57b.width(n) for n in range(ex57b.depth)
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(7, f"fixture verdicts and witnesses all match at depth 10 ({elapsed:.3f}s)")


def test_criterion_08_ideal_engine_primitive_structure():
    start = time.perf_counter()
    prefix = embed_triangular(all_ones_spec(8), 8)
    witness = check_rfd_ji(prefix).witness
    prims = primitive_profiles(prefix, witness)
    assert [p.line for p in prims] == list(range(8))
    assert [p.k for p in prims] == [1, 1, 2, 4, 8, 16, 32, 64]
    for p in prims:
        q = quotient(prefix, p.profile)
        assert q.levels[-1].entries == (p.k,)
    report = just_infinite_evidence(prefix, witness)
    assert report.passed
    for s in report.seeds:
        if s.observable and not s.full:
            assert s.stabilize_from is not None and s.stabilize_from <= s.level + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass(8, f"eight primitive kernels with doubling quotient sizes; every seed stabilizes within one level ({elapsed:.3f}s)")


def test_criterion_09_compactness_behaviors():
    right = fixture_diagram("ex57A-right")
    kernel = close(right, [(1, 0)])
    assert is_compact(right, kernel)
    q = quotient(right, kernel)
    assert [l.entries for l in q.levels[:6]] == [(1,), (2,), (4,), (8,), (16,), (32,)]
    assert all(m.entries == ((2,),) for m in q.matrices)

    ex57b = fixture_diagram("ex57B")
    for depth in range(2, 13):
        t = ex57b.truncate(depth)
        co_last = profile_from_last_level(t, range(t.width(depth - 1) - 1))
        assert not is_compact(t, co_last)
    co_last_full = profile_from_last_level(ex57b, range(ex57b.width(ex57b.depth - 1) - 1))
    qb = quotient(ex57b, co_last_full)
    assert [l.entries for l in qb.levels[:6]] == [(1,), (2,), (4,), (8,), (16,), (32,)]
    assert all(m.entries == ((2,),) for m in qb.matrices)

    t6 = ex57b.truncate(6)
    proper_compact = 0
    for profile in enumerate_ideals(t6):
        if profile.is_full(t6) or not is_compact(t6, profile):
            continue
        assert has_findim_quotient_line(t6, profile)
        proper_compact += 1
    assert proper_compact > 0
    _pass(9, f"single-seed kernel compact with CAR quotient; co-last column never compact through depth 12; {proper_compact} proper compact ideals all retain a finite line")


def test_criterion_10_enumeration_matches_brute_force():
    start = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(100):
        prefix = random_unital_prefix(rng, max_depth=3, max_width=4)
        fast = enumerate_ideals(prefix)
        slow = brute_force_profiles(prefix)
        assert sorted(fast, key=IdealProfile.sort_key) == slow
        assert len(set(p.T for p in fast)) == len(fast)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(10, f"100 random prefixes agree with the subset brute force ({elapsed:.2f}s)")


def test_criterion_11_property_suites():
    rng = random.Random(1111)
    for _ in range(500):
        mat, u_src, u_dst = random_unital_step(rng)
        induced_trace_map(mat, u_src, u_dst)  # column sums checked exactly

    for _ in range(500):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        f = random_stochastic_map(rng, rows, cols)
        x = random_point(rng, cols)
        y = random_point(rng, cols)
        assert f.apply(x).l1_distance(f.apply(y)) <= x.l1_distance(y)

    for _ in range(100):
        prefix = random_unital_prefix(rng, max_depth=3, max_width=4)
        seeds = [
            (n, rng.randrange(prefix.width(n)))
            for n in range(prefix.depth)
            if rng.random() < 0.6
        ]
        profile = close(prefix, seeds)
        assert profile_is_valid(prefix, profile)
        for n, v in seeds:
            assert v in set(profile.T[n])
        reseeded = [(n, v) for n in range(prefix.depth) for v in profile.T[n]]
        assert close(prefix, reseeded) == profile
        sub = close(prefix, seeds[: len(seeds) // 2])
        assert all(set(sub.T[n]) <= set(profile.T[n]) for n in range(prefix.depth))

    for _ in range(20):
        head = [F(rng.randrange(0, 6), rng.randrange(1, 6)) for _ in range(rng.randrange(1, 7))]
        if all(h == 0 for h in head):
            head[0] = F(1)
        targets = StationarySpec(head).targets()
        assert targets.check_coherence(10)
    _pass(11, "500 stochastic steps, 500 nonexpansiveness triples, 100 closure-law seed sets, 20 coherent stationary families")


def test_criterion_12_cauchy_bound(inverse_square_setup):
    _, _, _, data = inverse_square_setup
    series = gap_series(data)
    for j in range(0, 7):
        bound = sum(series.gaps[j : j + 3])
        for v in range(j + 2):
            near = limit_vertex_estimate(data, 0, v, j)
            far = limit_vertex_estimate(data, 0, v, j + 3)
            assert near.point.l1_distance(far.point) <= bound
    _pass(12, "level-0 estimates at depths j and j+3 stay within the intervening gap sum")
