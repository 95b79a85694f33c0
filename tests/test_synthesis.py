from __future__ import annotations

import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bratteli import (
    BratteliError,
    InsufficientPrefixError,
    SimplexPoint,
    StationarySpec,
    TailRule,
    TargetSequence,
    approximate_on_simplex,
    characteristic_sequence,
    check_rfd_ji,
    classify_stationary,
    embed_triangular,
    stationary_targets,
    synthesize,
    zeta,
)
from bratteli import synthesis
from bratteli.cli import run
from bratteli.formats import emit_diagram

from conftest import (
    all_ones_spec,
    reference_approximation,
    reference_g_failing_levels,
    reference_level,
    reference_synthesis,
)


def halving() -> StationarySpec:
    return StationarySpec(tail=TailRule.geometric(F(1, 2)))


class TestStationaryTargets:
    def test_halving_level_one(self):
        assert stationary_targets(halving(), 1).coords == (F(2, 3), F(1, 3))

    def test_single_atom(self):
        assert stationary_targets(StationarySpec([1]), 5) == SimplexPoint.vertex(6, 0)

    def test_sizes_as_weights(self, ones12):
        spec = StationarySpec((), TailRule.equal_to_k(ones12))
        assert stationary_targets(spec, 3).coords == (F(1, 8), F(1, 8), F(2, 8), F(4, 8))

    def test_barycenter_below_first_nonzero(self):
        spec = StationarySpec([0, 0, 1])
        assert stationary_targets(spec, 1) == SimplexPoint.barycenter(2)
        assert stationary_targets(spec, 2) == SimplexPoint.vertex(3, 2)

    def test_identically_zero_rejected(self):
        with pytest.raises(BratteliError):
            StationarySpec([0, 0])


class TestApproximateOnSimplex:
    def test_exact_mode_clears_denominators(self):
        assert approximate_on_simplex(SimplexPoint([F(2, 3), F(1, 3)]), F(1, 10), exact=True) == (2, 1)

    def test_vertex_within_tolerance(self):
        xi = SimplexPoint.vertex(2, 0)
        ell = approximate_on_simplex(xi, F(1, 10))
        total = sum(ell)
        assert all(e >= 1 for e in ell)
        assert all(abs(F(e, total) - c) < F(1, 10) for e, c in zip(ell, xi.coords))

    def test_barycenter_is_exactly_uniform(self):
        assert approximate_on_simplex(SimplexPoint.barycenter(3), F(1, 2)) == (1, 1, 1)

    def test_zero_coordinate_rejected_in_exact_mode(self):
        with pytest.raises(BratteliError):
            approximate_on_simplex(SimplexPoint([F(1), F(0)]), F(1, 4), exact=True)

    def test_cap_reported_not_wrong(self):
        # denominators up to 10 cannot hit 1/97 exactly, and the tolerance
        # rules out every inexact candidate
        with mock.patch.object(synthesis, "_SCAN_CAP", 10), pytest.raises(BratteliError):
            approximate_on_simplex(SimplexPoint([F(1, 97), F(96, 97)]), F(1, 10**9))


@st.composite
def rational_points(draw) -> SimplexPoint:
    """Points of dimension 1-8 with mixed denominators and zero coordinates."""
    dim = draw(st.integers(1, 8))
    weights = draw(
        st.lists(
            st.fractions(min_value=0, max_value=9, max_denominator=12),
            min_size=dim,
            max_size=dim,
        )
    )
    if all(w == 0 for w in weights):
        weights[draw(st.integers(0, dim - 1))] = F(1)
    return SimplexPoint.normalized(weights)


# the synthesis tolerances 2^-n / (n+1) down to level 12, and coarser ones
tolerances = st.one_of(
    st.integers(0, 12).map(lambda n: F(1, 2**n * (n + 1))),
    st.fractions(min_value=F(1, 200), max_value=1),
)


class TestScanAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(rational_points(), tolerances, st.integers(1, 600))
    def test_matches_fraction_scan(self, xi, eps, cap):
        with mock.patch.object(synthesis, "_SCAN_CAP", cap):
            try:
                expected = reference_approximation(xi, eps, cap)
            except BratteliError as exc:
                with pytest.raises(BratteliError) as got:
                    approximate_on_simplex(xi, eps)
                assert str(got.value) == str(exc)
            else:
                assert approximate_on_simplex(xi, eps) == expected

    @pytest.mark.parametrize("ratio", [F(1, 2), F(2, 3)])
    def test_geometric_levels_match(self, ratio):
        rng = random.Random(11)
        targets = StationarySpec((), TailRule.geometric(ratio)).targets()
        for n in range(9):
            coords = list(targets.point(n).coords)
            rng.shuffle(coords)
            xi, eps = SimplexPoint(coords), F(1, 2**n * (n + 1))
            assert approximate_on_simplex(xi, eps) == reference_approximation(xi, eps, 10**7)


def level_from_target(ks, xi, eps, exact):
    """One synthesis level as `synthesize` builds it."""
    return synthesis._level_from_ell(ks, approximate_on_simplex(xi, eps, exact=exact))


class TestSynthesizeLevel:
    def test_two_thirds(self):
        m, k_next, z = level_from_target([1, 1], SimplexPoint([F(2, 3), F(1, 3)]), F(1, 8), exact=True)
        assert (m, k_next) == ((2, 1), 3)
        assert z.coords == (F(2, 3), F(1, 3))

    def test_level_zero_is_free(self):
        m, k_next, z = level_from_target([1], SimplexPoint([F(1)]), F(1, 2), exact=True)
        assert z.coords == (F(1),)
        assert k_next == m[0]

    def test_scale_product(self):
        # sizes (1, 1, 2) and target (1/4, 1/4, 1/2): the product and lcm
        # scales (both 2) gave m = (2, 2, 2), k_next = 8; the minimal scale is 1
        ks, xi = [1, 1, 2], SimplexPoint([F(1, 4), F(1, 4), F(1, 2)])
        m, k_next, z = level_from_target(ks, xi, F(1, 8), exact=True)
        assert m == (1, 1, 1) and k_next == 4
        assert z.coords == (F(1, 4), F(1, 4), F(1, 2))
        assert sum(mm * kk for mm, kk in zip(m, ks)) == k_next
        for reduced in (False, True):
            m_ref, k_ref, z_ref = reference_level(ks, (1, 1, 2), reduced)
            assert (m_ref, k_ref) == ((2, 2, 2), 8)
            assert z_ref == z and k_next <= k_ref


class TestSynthesize:
    def test_exact_halving_roundtrip(self):
        targets = halving().targets()
        spec, cert = synthesize(targets, 12, exact=True)
        ks = characteristic_sequence(spec, 13)
        for n in range(13):
            assert zeta(spec, n) == targets.point(n)
            assert cert.levels[n].gap_l1 == 0 and cert.levels[n].gap_l2sq == 0
            assert sum(spec.mvectors[n][j] * ks[j] for j in range(n + 1)) == ks[n + 1]
        assert check_rfd_ji(embed_triangular(spec, 13)).consistent

    def test_size_weights_reproduce_all_ones_zetas(self, ones12):
        targets = StationarySpec((), TailRule.equal_to_k(ones12)).targets()
        spec, cert = synthesize(targets, 8, exact=True)
        for n in range(9):
            assert zeta(spec, n) == zeta(ones12, n)
        assert all(
            l.gap_l1 < F(1, 2**l.level) and l.gap_l2sq < F(1, 4**l.level) for l in cert.levels
        )

    def test_constant_barycenter_targets(self):
        points = [SimplexPoint.barycenter(n + 1) for n in range(7)]
        targets = TargetSequence.explicit(points)
        spec, cert = synthesize(targets, 6, exact=True)
        ks = characteristic_sequence(spec, 7)
        for n in range(7):
            assert zeta(spec, n) == SimplexPoint.barycenter(n + 1)
            mk = [spec.mvectors[n][j] * ks[j] for j in range(n + 1)]
            assert len(set(mk)) == 1  # equal masses by symmetry
        assert all(l.gap_l1 == 0 for l in cert.levels)

    def test_certificate_matches_fresh_recomputation(self):
        from bratteli import IntertwiningData, MapSequence, StochasticAffineMap, gap_series

        weights = StationarySpec([F(1, (j + 1) ** 2) for j in range(9)])
        targets = weights.targets()
        spec, cert = synthesize(targets, 8)
        top = targets.map_sequence(8)
        bottom = MapSequence(
            [StochasticAffineMap.vertex_fixing(zeta(spec, n)) for n in range(8)]
        )
        series = gap_series(IntertwiningData(top, bottom))
        for n, g in enumerate(series.gaps):
            assert g == cert.levels[n].gap_l1

    def test_reduced_mode_certified_identically(self):
        # the minimal scale certifies exactly what the product and lcm
        # scales certified, with sizes no larger than either
        targets = halving().targets()
        spec, cert = synthesize(targets, 8, exact=True)
        ks = characteristic_sequence(spec, 9)
        for n in range(9):
            assert zeta(spec, n) == targets.point(n)
            assert sum(spec.mvectors[n][j] * ks[j] for j in range(n + 1)) == ks[n + 1]
        for reduced in (False, True):
            ref_ks, records = reference_synthesis(targets, 8, 1, True, reduced)
            for level, (*_, ref_zeta, ref_gap_l1, _, _) in zip(cert.levels, records):
                assert level.zeta == ref_zeta and level.gap_l1 == ref_gap_l1 == 0
            assert all(k <= r for k, r in zip(ks, ref_ks))

    @pytest.mark.parametrize(
        "weights, exact",
        [(halving(), True), (StationarySpec([F(1, (j + 1) ** 2) for j in range(9)]), False)],
        ids=["halving-exact", "inverse-squares-approximate"],
    )
    def test_prefix_stable(self, weights, exact):
        # level n depends only on the levels before it
        targets = weights.targets()
        long, _ = synthesize(targets, 8, exact=exact)
        short, _ = synthesize(targets, 6, exact=exact)
        assert long.mvectors[:7] == short.mvectors

    def test_exact_spec_maps_carry_targets_exactly(self):
        # induced maps of the synthesized diagram reproduce the stationary
        # identity, not just the target maps built from xi directly
        from bratteli import level_maps

        targets = halving().targets()
        spec, _ = synthesize(targets, 7, exact=True)
        maps = level_maps(embed_triangular(spec, 7))
        for n in range(6):
            assert maps[n].apply(targets.point(n + 1)) == targets.point(n)

    def test_proportional_weights_give_identical_targets(self):
        rng = random.Random(3)
        for _ in range(10):
            head = [F(rng.randrange(0, 5), rng.randrange(1, 5)) for _ in range(6)]
            if all(h == 0 for h in head):
                head[2] = F(1)
            factor = F(rng.randrange(1, 7), rng.randrange(1, 7))
            a = StationarySpec(head)
            b = StationarySpec([factor * h for h in head])
            for n in range(6):
                assert stationary_targets(a, n) == stationary_targets(b, n)

    def test_missed_gap_bound_is_a_domain_error(self, monkeypatch, capsys):
        # equal weights pass levels 0 and 1, but at level 2 they realize the
        # barycenter against the target (4/7, 2/7, 1/7): l1 gap 10/21
        monkeypatch.setattr(synthesis, "approximate_on_simplex", lambda xi, eps, exact: (1,) * xi.dim)
        targets = halving().targets()
        with pytest.raises(BratteliError, match=r"^level 2: l1 gap 10/21 is not below its bound 1/4$"):
            synthesize(targets, 3)
        assert run(["synthesize", "--stationary", "geometric:1/2", "--levels", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "level 2: l1 gap 10/21 is not below its bound 1/4" in captured.err


def assert_minimal_scale(ks, ell, scale):
    """k_j | scale * l_j for every j, and (when scale is small enough to
    brute-force) for no proper divisor of scale."""
    assert all(scale * l % k == 0 for k, l in zip(ks, ell))
    if scale > 10**8:
        return
    divisors = {d for i in range(1, math.isqrt(scale) + 1) if scale % i == 0 for d in (i, scale // i)}
    for d in divisors - {scale}:
        assert not all(d * l % k == 0 for k, l in zip(ks, ell)), (ks, ell, scale, d)


def assert_matches_reference(targets, count, k0, exact):
    spec, cert = synthesize(targets, count, k0=k0, exact=exact)
    ks = characteristic_sequence(spec, count + 1)
    assert ks[0] == k0
    for n, level in enumerate(cert.levels):
        assert level.mvector == spec.mvectors[n] and level.k_next == ks[n + 1]
        assert sum(m * k for m, k in zip(level.mvector, ks)) == ks[n + 1]
        assert ks[n + 1] % sum(level.ell) == 0
        assert_minimal_scale(ks[: n + 1], level.ell, ks[n + 1] // sum(level.ell))
    for reduced in (False, True):
        ref_ks, records = reference_synthesis(targets, count, k0, exact, reduced)
        for level, (ell, _, _, xi, z, gap_l1, gap_l2sq, eps) in zip(cert.levels, records):
            assert (level.ell, level.xi, level.zeta) == (ell, xi, z)
            assert (level.gap_l1, level.gap_l2sq, level.epsilon) == (gap_l1, gap_l2sq, eps)
        assert all(k <= r for k, r in zip(ks, ref_ks))


@st.composite
def target_sequences(draw, exact: bool) -> TargetSequence:
    """Explicit targets through level 0-7 (dimension <= 8); positive
    coordinates when exact."""
    low = F(1, 12) if exact else 0
    points = []
    for n in range(draw(st.integers(0, 7)) + 1):
        weights = draw(
            st.lists(
                st.fractions(min_value=low, max_value=9, max_denominator=12),
                min_size=n + 1,
                max_size=n + 1,
            )
        )
        if all(w == 0 for w in weights):
            weights[draw(st.integers(0, n))] = F(1)
        points.append(SimplexPoint.normalized(weights))
    return TargetSequence.explicit(points)


class TestMinimalScale:
    """The one synthesis scale against the product and lcm scales it
    replaced (`reference_level`): same l, xi, zeta, gaps and epsilon, the
    size recurrence, sizes never larger, and the scale least possible."""

    @settings(max_examples=200, deadline=None)
    @given(rational_points(), st.data(), tolerances)
    def test_level_matches_reference(self, xi, data, eps):
        ks = data.draw(st.lists(st.integers(1, 720), min_size=xi.dim, max_size=xi.dim))
        exact = 0 not in xi.coords and data.draw(st.booleans())
        ell = approximate_on_simplex(xi, eps, exact=exact)
        m, k_next, z = synthesis._level_from_ell(ks, ell)
        assert sum(a * b for a, b in zip(m, ks)) == k_next
        assert z == SimplexPoint.normalized(ell)
        for reduced in (False, True):
            _, k_ref, z_ref = reference_level(ks, ell, reduced)
            assert z == z_ref and k_next <= k_ref
        assert k_next % sum(ell) == 0
        assert_minimal_scale(ks, ell, k_next // sum(ell))

    @settings(max_examples=60, deadline=None)
    @given(st.booleans().flatmap(lambda e: st.tuples(st.just(e), target_sequences(e))), st.integers(1, 5))
    def test_random_targets_match_reference(self, exact_and_targets, k0):
        exact, targets = exact_and_targets
        assert_matches_reference(targets, targets.max_level, k0, exact)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("ratio", [F(1, 2), F(2, 3)])
    def test_seeded_geometric_targets_match_reference(self, ratio, exact):
        rng = random.Random(29)
        targets = StationarySpec((), TailRule.geometric(ratio)).targets()
        points = []
        for n in range(11):
            coords = list(targets.point(n).coords)
            rng.shuffle(coords)
            points.append(SimplexPoint(coords))
        for k0 in (1, rng.randint(2, 5)):
            assert_matches_reference(TargetSequence.explicit(points), 10, k0, exact)

    def test_inverse_squares_match_reference(self):
        weights = StationarySpec([F(1, (j + 1) ** 2) for j in range(11)])
        assert_matches_reference(weights.targets(), 10, 3, exact=False)

    def test_fourteen_exact_levels_stay_small(self):
        # under the product scale k_15 has 22,354 bits here
        spec, cert = synthesize(halving().targets(), 14, exact=True)
        assert all(l.gap_l1 == 0 for l in cert.levels)
        assert characteristic_sequence(spec, 15)[-1].bit_length() < 128


class TestInputChecks:
    @pytest.mark.parametrize("k0", [0, -2, True, 1.5, "1"])
    def test_bad_k0_rejected_before_any_level(self, monkeypatch, k0):
        def no_level(*_args, **_kwargs):
            raise AssertionError("a level was built")

        monkeypatch.setattr(synthesis, "approximate_on_simplex", no_level)
        with pytest.raises(BratteliError, match=r"^k0 must be a positive integer$"):
            synthesize(halving().targets(), 3, k0=k0)

    def test_negative_level_count_rejected(self):
        with pytest.raises(BratteliError, match=r"^level count must be non-negative$"):
            synthesize(halving().targets(), -1)

    def test_negative_depth_rejected(self):
        with pytest.raises(BratteliError, match=r"^depth must be non-negative$"):
            classify_stationary(halving(), depth=-3)

    @pytest.mark.parametrize(
        "kind, options, message",
        [
            ("geometrc", {"ratio": 1}, "unknown tail rule 'geometrc'"),
            ("geometric", {"ratio": -1}, "geometric ratio must be positive"),
            ("geometric", {}, "geometric ratio must be positive"),
            ("equal-to-k", {}, "equal-to-k tail needs a triangular spec"),
        ],
    )
    def test_tail_rule_checked_on_construction(self, kind, options, message):
        with pytest.raises(BratteliError, match=f"^{message}$"):
            TailRule(kind, **options)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synthesize", "--stationary", "geometric:1/2", "--levels", "3", "--k0", "0"],
             "k0 must be a positive integer"),
            (["synthesize", "--stationary", "geometric:1/2", "--levels", "-1"],
             "level count must be non-negative"),
            (["classify", "--stationary", "geometric:1/2", "--depth", "-3", "--json"],
             "depth must be non-negative"),
        ],
    )
    def test_cli_reports_one_line(self, capsys, argv, message):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bratteli: {message}\n"


class TestClassify:
    def test_size_weights_diverge(self, ones12):
        assert classify_stationary(StationarySpec((), TailRule.equal_to_k(ones12))).verdict == "bauer"

    def test_halving_summable(self):
        result = classify_stationary(halving())
        assert result.verdict == "non-bauer"
        assert result.e_inf[:4] == (F(1, 2), F(1, 4), F(1, 8), F(1, 16))
        assert result.total == 2

    def test_single_atom_degenerate(self):
        assert classify_stationary(StationarySpec([1])).verdict == "degenerate"

    def test_divergent_geometric(self):
        assert classify_stationary(StationarySpec((), TailRule.geometric(1))).verdict == "bauer"

    def test_head_with_geometric_tail(self):
        # weights 1, 1, 1/2, 1/4, ...: total 2 + 1, and e_inf is weight / total
        result = classify_stationary(StationarySpec([1, 1], TailRule.geometric(F(1, 2))), depth=6)
        assert result.verdict == "non-bauer"
        assert result.total == 3
        assert result.e_inf == (F(1, 3), F(1, 3), F(1, 6), F(1, 12), F(1, 24), F(1, 48), F(1, 96))

    @pytest.mark.parametrize(
        "head, ratio",
        [((1, 1), F(1, 2)), ((), F(1, 2)), ((3,), F(2, 3)), ((0, 2, 5), F(1, 7)), ((1, 0, 1), F(9, 10)), ((2, 1), None)],
    )
    def test_coefficients_are_weights_over_their_sum(self, head, ratio):
        """From the definition: coefficient j is t_j / sum(t), so the shown
        coefficients plus the rest of the series over the total are 1."""
        spec = StationarySpec(head, TailRule.zero() if ratio is None else TailRule.geometric(ratio))
        depth = 9
        result = classify_stationary(spec, depth=depth)
        weights = [spec.value(j) for j in range(depth + 1)]
        rest = 0 if ratio is None else spec.value(depth) * ratio / (1 - ratio)
        assert result.total == sum(weights) + rest
        assert result.e_inf == tuple(w / result.total for w in weights)
        assert sum(result.e_inf) + rest / result.total == 1

    def test_head_with_geometric_tail_through_the_cli(self, capsys):
        assert run(["classify", "--stationary", "list:1,1;geometric:1/2", "--depth", "3", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == (
            '{"command": "classify", "e_inf": ["1/3", "1/3", "1/6", "1/12"], "partial_sums": null, '
            '"total": "3", "verdict": "non-bauer"}\n'
        )


class TestGConsistency:
    """`incoherent_levels` against the cylinder-map check it replaced."""

    def test_stationary_weights_always_commute(self):
        assert halving().targets().incoherent_levels(6) == ()
        assert reference_g_failing_levels(halving().targets(), 6, 8) == ()

    def test_single_level_passes_trivially(self):
        assert halving().targets().incoherent_levels(1) == ()

    def test_perturbation_is_located(self):
        targets = halving().targets()
        points = [targets.point(n) for n in range(8)]
        points[3] = SimplexPoint([F(1, 4)] * 4)
        perturbed = TargetSequence.explicit(points, stationary_from=0)
        assert perturbed.incoherent_levels(7) == (2, 3)
        assert not perturbed.check_coherence(7)

    def test_no_declared_range(self):
        targets = TargetSequence.explicit([SimplexPoint([1]), SimplexPoint([F(1, 2)] * 2)])
        with pytest.raises(BratteliError, match="stationary range"):
            targets.incoherent_levels(1)
        assert not targets.check_coherence(1)

    @pytest.mark.parametrize(
        "start, shown", [(5, "5"), (2, "2"), (-1, "-1"), (True, "True"), (1.0, "1.0"), ("1", "'1'")]
    )
    def test_stationary_from_outside_the_points_rejected(self, start, shown):
        # two points: levels 0 and 1 are the only ones coherence can speak of
        points = [SimplexPoint([1]), SimplexPoint([F(1, 2)] * 2)]
        with pytest.raises(BratteliError, match=rf"^stationary_from must be a level in \[0, 1\], got {shown}$"):
            TargetSequence.explicit(points, stationary_from=start)

    def test_stationary_from_on_the_last_point(self):
        points = [SimplexPoint([1]), SimplexPoint([F(1, 2)] * 2)]
        assert TargetSequence.explicit(points, stationary_from=1).check_coherence(1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        # stationary points with some levels replaced by random ones, so
        # that coherent and incoherent levels both occur
        depth = data.draw(st.integers(2, 7))
        weights = data.draw(st.lists(st.integers(0, 4), min_size=depth + 1, max_size=depth + 1))
        weights[0] += 1
        points = []
        for n in range(depth + 1):
            if data.draw(st.booleans()):
                coords = data.draw(st.lists(st.integers(0, 4), min_size=n + 1, max_size=n + 1))
                coords[n] += 1
            else:
                coords = weights[: n + 1]
            points.append(SimplexPoint.normalized(coords))
        start = data.draw(st.integers(0, depth))
        targets = TargetSequence.explicit(points, stationary_from=start)
        budget = data.draw(st.integers(0, 9))
        assert targets.incoherent_levels(depth) == reference_g_failing_levels(
            targets, depth, budget
        )


class TestEqualToKSizesOnce:
    """An equal-to-k tail computes its spec's size sequence once per rule,
    not once per weight."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = synthesis.characteristic_sequence

        def counting(spec, count):
            seen.append(count)
            return original(spec, count)

        monkeypatch.setattr(synthesis, "characteristic_sequence", counting)
        return seen

    def test_synthesize(self, calls):
        spec = all_ones_spec(40)
        synthesize(StationarySpec((), TailRule.equal_to_k(spec)).targets(), 40, exact=True)
        assert calls == [40]

    def test_limit_restrict(self, calls, tmp_path, capsys):
        path = tmp_path / "ones.json"
        path.write_text(emit_diagram(all_ones_spec(30)))
        assert run(["traces", "limit-restrict", str(path), "--level", "30"]) == 0
        assert calls == [30]

    def test_values_and_error_past_the_end(self):
        spec = all_ones_spec(6)
        weights = StationarySpec((), TailRule.equal_to_k(spec))
        assert [weights.value(j) for j in range(7)] == list(characteristic_sequence(spec, 6))
        with pytest.raises(InsufficientPrefixError, match="^spec defines 6 multiplicity vectors, need 7$"):
            weights.value(7)
