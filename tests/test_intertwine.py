from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bratteli import (
    BratteliError,
    IntertwiningData,
    MapSequence,
    SimplexPoint,
    StationarySpec,
    StochasticAffineMap,
    TailBound,
    TailRule,
    compose_range,
    embed_triangular,
    gap_series,
    level_maps,
    limit_vertex_estimate,
    map_distance,
    push_point,
    synthesize,
    zeta,
)

from bratteli.intertwine import LimitEstimate

from conftest import all_ones_spec, random_point, random_stochastic_map, reference_limit_vertex_estimate


def vertex_fixing_tower(points) -> MapSequence:
    return MapSequence([StochasticAffineMap.vertex_fixing(p) for p in points])


@pytest.fixture(scope="module")
def halving_setup():
    targets = StationarySpec(tail=TailRule.geometric(F(1, 2))).targets()
    spec, cert = synthesize(targets, 10, exact=True)
    top = targets.map_sequence(10)
    bottom = vertex_fixing_tower([zeta(spec, n) for n in range(10)])
    return targets, spec, cert, top, bottom


class TestMapDistance:
    def test_equal_maps(self):
        f = StochasticAffineMap.vertex_fixing(SimplexPoint.barycenter(3))
        assert map_distance(f, f) == 0

    def test_differs_only_on_last_vertex(self, ones12):
        xi = SimplexPoint([F(1, 2), F(1, 4), F(1, 4)])
        ze = zeta(ones12, 2)
        f = StochasticAffineMap.vertex_fixing(xi)
        g = StochasticAffineMap.vertex_fixing(ze)
        assert map_distance(f, g, "l1") == xi.l1_distance(ze)
        assert map_distance(f, g, "l2") == xi.l2sq_distance(ze)

    def test_opposite_vertices_l1(self):
        f = StochasticAffineMap.vertex_fixing(SimplexPoint([1, 0, 0]))
        g = StochasticAffineMap.vertex_fixing(SimplexPoint([0, 1, 0]))
        assert map_distance(f, g, "l1") == 2

    def test_shape_mismatch(self):
        f = StochasticAffineMap.vertex_fixing(SimplexPoint.barycenter(2))
        g = StochasticAffineMap.vertex_fixing(SimplexPoint.barycenter(3))
        with pytest.raises(BratteliError):
            map_distance(f, g)

    def test_vertex_max_matches_grid_sample(self):
        rng = random.Random(5)
        f = random_stochastic_map(rng, 3, 3)
        g = random_stochastic_map(rng, 3, 3)
        best = map_distance(f, g, "l1")
        step = F(1, 6)
        for a in range(7):
            for b in range(7 - a):
                x = SimplexPoint([a * step, b * step, 1 - (a + b) * step])
                assert f.apply(x).l1_distance(g.apply(x)) <= best

    def test_matches_column_points(self):
        # oracle: the distance of each pair of columns as simplex points
        rng = random.Random(17)
        for _ in range(150):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            f = random_stochastic_map(rng, rows, cols)
            g = random_stochastic_map(rng, rows, cols)
            columns = [(f.column_point(j), g.column_point(j)) for j in range(cols)]
            assert map_distance(f, g, "l1") == max(a.l1_distance(b) for a, b in columns)
            assert map_distance(f, g, "l2") == max(a.l2sq_distance(b) for a, b in columns)

    def test_builds_no_simplex_point(self, monkeypatch, halving_setup):
        _, _, _, top, bottom = halving_setup
        calls = []
        original = SimplexPoint.__init__

        def counting(self, coords):
            calls.append(coords)
            original(self, coords)

        monkeypatch.setattr(SimplexPoint, "__init__", counting)
        for metric in ("l1", "l2"):
            map_distance(top.maps[9], bottom.maps[9], metric)
        assert calls == []


class TestGapSeries:
    def test_identical_sequences(self, halving_setup):
        _, _, _, top, _ = halving_setup
        series = gap_series(IntertwiningData(top, top, tail=TailBound.zero()))
        assert all(g == 0 for g in series.gaps)
        assert series.certificate == 0

    def test_synthesized_gaps_below_powers_of_two(self, halving_setup):
        targets, spec, cert, top, bottom = halving_setup
        series = gap_series(IntertwiningData(top, bottom, tail=TailBound.geometric(F(1, 2))))
        for n, g in enumerate(series.gaps):
            assert g == cert.levels[n].gap_l1
            assert g < F(1, 2**n)
        assert series.certificate is not None and series.certificate < 2

    def test_hand_built_partial_sum(self):
        tops, bottoms = [], []
        for dim, delta in zip([2, 3, 4], [F(1, 2), F(1, 4), F(1, 8)]):
            xi = SimplexPoint.barycenter(dim)
            moved = list(xi.coords)
            moved[0] += delta / 2
            moved[-1] -= delta / 2
            tops.append(StochasticAffineMap.vertex_fixing(xi))
            bottoms.append(StochasticAffineMap.vertex_fixing(SimplexPoint(moved)))
        series = gap_series(IntertwiningData(MapSequence(tops), MapSequence(bottoms)))
        assert series.gaps == (F(1, 2), F(1, 4), F(1, 8))
        assert series.partial_sums[-1] == F(7, 8)
        assert series.certificate is None  # no tail supplied

    def test_l2_mode_reports_squares_only(self, halving_setup):
        _, spec, cert, top, bottom = halving_setup
        series = gap_series(IntertwiningData(top, bottom, metric="l2"))
        assert series.partial_sums is None and series.certificate is None
        for n, g in enumerate(series.gaps):
            assert g == cert.levels[n].gap_l2sq

    @pytest.mark.parametrize("metric", ["l1", "l2"])
    def test_gaps_follow_the_intertwinings_metric(self, halving_setup, metric):
        _, _, _, top, bottom = halving_setup
        series = gap_series(IntertwiningData(top, bottom, TailBound.zero(), metric))
        assert series.metric == metric
        assert series.gaps == tuple(map_distance(f, g, metric) for f, g in zip(top.maps, bottom.maps))


class TestMetric:
    """The metric belongs to the intertwining; a tower carries only maps."""

    def test_default_is_l1(self, halving_setup):
        _, _, _, top, bottom = halving_setup
        assert IntertwiningData(top, bottom).metric == "l1"

    def test_unknown_metric_rejected(self, halving_setup):
        _, _, _, top, bottom = halving_setup
        with pytest.raises(BratteliError, match="^unknown metric 'l3'$"):
            IntertwiningData(top, bottom, metric="l3")

    def test_map_sequence_holds_only_maps(self, halving_setup):
        _, _, _, top, _ = halving_setup
        assert [f.name for f in dataclasses.fields(MapSequence)] == ["maps"]
        with pytest.raises(TypeError):
            MapSequence(top.maps, "l2")

    def test_estimate_refuses_l2(self, halving_setup):
        _, _, _, top, bottom = halving_setup
        data = IntertwiningData(top, bottom, TailBound.zero(), "l2")
        with pytest.raises(BratteliError, match="^estimates are certified in the l1 metric only$"):
            limit_vertex_estimate(data, 0, 0, 2)


class TestComposeRange:
    def test_single_map(self, halving_setup):
        _, _, _, top, _ = halving_setup
        assert compose_range(top, 3, 4) == top.maps[3]

    def test_matches_iterated_push(self, ones12):
        prefix = embed_triangular(ones12, 4)
        seq = MapSequence(level_maps(prefix))
        composed = compose_range(seq, 0, 3)
        pushed = push_point(prefix, SimplexPoint.vertex(4, 3), 3, 0)
        assert composed.column_point(3) == pushed

    def test_identity_sequence(self):
        identity = StochasticAffineMap(SimplexPoint.vertex(3, j) for j in range(3))
        assert compose_range(MapSequence([identity] * 4), 0, 4) == identity

    def test_associativity(self, halving_setup):
        _, _, _, _, bottom = halving_setup
        whole = compose_range(bottom, 0, 8)
        split = compose_range(bottom, 0, 3).compose(compose_range(bottom, 3, 8))
        assert whole == split

    def test_bad_range(self, halving_setup):
        _, _, _, top, _ = halving_setup
        with pytest.raises(BratteliError):
            compose_range(top, 3, 3)


class TestLimitVertexEstimate:
    def test_exact_intertwining_estimates_constant(self, halving_setup):
        _, _, _, top, _ = halving_setup
        data = IntertwiningData(top, top, tail=TailBound.zero())
        a = limit_vertex_estimate(data, 0, 0, 2)
        b = limit_vertex_estimate(data, 0, 0, 7)
        assert a.point == b.point
        assert a.error_bound == 0 and a.certified

    def test_bound_shrinks_geometrically(self, halving_setup):
        _, _, _, top, bottom = halving_setup
        data = IntertwiningData(top, bottom, tail=TailBound.geometric(F(1, 2)))
        for j in range(1, 8):
            est = limit_vertex_estimate(data, 0, 1, j)
            assert est.certified
            assert est.error_bound <= F(2, 2**j)

    def test_matches_brute_force_composition(self):
        rng = random.Random(13)
        tops = [random_stochastic_map(rng, 1, 2), random_stochastic_map(rng, 2, 3)]
        bottoms = [random_stochastic_map(rng, 1, 2), random_stochastic_map(rng, 2, 3)]
        data = IntertwiningData(MapSequence(tops), MapSequence(bottoms))
        est = limit_vertex_estimate(data, 0, 2, 1)
        by_hand = bottoms[0].apply(tops[1].apply(SimplexPoint.vertex(3, 2)))
        assert est.point == by_hand

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 6), st.integers(1, 6), st.sampled_from([None, "zero", "geometric"]),
           st.sampled_from(["l1"] * 5 + ["l2"]))
    def test_matches_whole_series_oracle(self, seed, n_top, n_bottom, tail, metric):
        """Same point, bound and certification, or the same error, as the
        estimate that summed a slice of the whole gap series.  The towers
        sometimes differ in width, so some maps do not pair up, and one
        call in five asks for a level, vertex and depth in [-1, 6]."""
        rng = random.Random(seed)
        widths = [rng.randrange(1, 4) for _ in range(max(n_top, n_bottom) + 1)]
        other = [w if rng.random() < 0.8 else rng.randrange(1, 4) for w in widths]
        top = MapSequence(random_stochastic_map(rng, widths[k], widths[k + 1]) for k in range(n_top))
        bottom = MapSequence(random_stochastic_map(rng, other[k], other[k + 1]) for k in range(n_bottom))
        if rng.random() < 0.2:
            level, vertex, depth = (rng.randint(-1, 6) for _ in range(3))
        else:
            depth = rng.randrange(min(n_top, n_bottom))
            level, vertex = rng.randint(0, depth), rng.randrange(widths[depth + 1])
        bound = {None: None, "zero": TailBound.zero(), "geometric": TailBound.geometric(F(1, 3))}[tail]
        data = IntertwiningData(top, bottom, bound, metric)

        def outcome(estimate):
            try:
                return estimate(data, level, vertex, depth)
            except ValueError as exc:  # BratteliError included
                return type(exc), str(exc)

        est = outcome(limit_vertex_estimate)
        if isinstance(est, LimitEstimate):
            est = est.point, est.error_bound, est.certified
        assert est == outcome(reference_limit_vertex_estimate)

    @pytest.mark.parametrize("depth", [0, 1, 7, 15])
    def test_computes_only_the_gaps_it_sums(self, monkeypatch, depth):
        """At depth d on N maps: N - d distances, and the same composes as
        the whole-series oracle (d - 1 from level 0)."""
        from bratteli import intertwine

        maps = MapSequence(level_maps(embed_triangular(all_ones_spec(16), 16)))
        data = IntertwiningData(maps, maps, TailBound.zero())
        calls = {"map_distance": 0, "compose": 0}
        real_distance, real_compose = intertwine.map_distance, StochasticAffineMap.compose

        def distance(*args, **kwargs):
            calls["map_distance"] += 1
            return real_distance(*args, **kwargs)

        def compose(*args, **kwargs):
            calls["compose"] += 1
            return real_compose(*args, **kwargs)

        monkeypatch.setattr(intertwine, "map_distance", distance)
        monkeypatch.setattr(StochasticAffineMap, "compose", compose)
        reference_limit_vertex_estimate(data, 0, 1, depth)
        oracle = dict(calls)
        calls.update(map_distance=0, compose=0)
        limit_vertex_estimate(data, 0, 1, depth)
        n = len(maps.maps)
        assert (n, oracle) == (16, {"map_distance": n, "compose": max(depth - 1, 0)})
        assert calls == {"map_distance": n - depth, "compose": oracle["compose"]}


class TestNonexpansiveness:
    def test_stochastic_maps_are_l1_nonexpansive(self):
        rng = random.Random(23)
        for _ in range(200):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            f = random_stochastic_map(rng, rows, cols)
            x = random_point(rng, cols)
            y = random_point(rng, cols)
            assert f.apply(x).l1_distance(f.apply(y)) <= x.l1_distance(y)
