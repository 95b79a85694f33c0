"""The integer kernels of `SimplexPoint` and `StochasticAffineMap` against
the Fraction oracles `ReferencePoint` and `ReferenceMap`: views, equality,
distances, apply, compose, the map built from its column points, the
induced trace maps, map distances and every constructor error text; and a
work guard that the package's own arithmetic never goes through the public
point constructor."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from bratteli import (
    SimplexPoint,
    StationarySpec,
    StochasticAffineMap,
    TailRule,
    TargetSequence,
    embed_triangular,
    induced_trace_map,
    level_maps,
    map_distance,
    push_point,
    synthesize,
)

from conftest import (
    ReferenceMap,
    ReferencePoint,
    all_ones_spec,
    column_coords,
    random_unital_prefix,
    random_unital_step,
    reference_induced_trace_map,
    reference_map_distance,
)

weights = st.fractions(min_value=0, max_value=9, max_denominator=12)


def points(dim: int):
    return st.lists(weights, min_size=dim, max_size=dim).filter(any).map(SimplexPoint.normalized)


@st.composite
def map_columns(draw, rows=None, cols=None):
    """The column points of a random column-stochastic map."""
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    return draw(st.lists(points(rows), min_size=cols, max_size=cols))


def outcome(build, columns):
    try:
        return "ok", column_coords(build(columns))
    except ValueError as exc:
        return "error", str(exc)


def assert_matches(m: StochasticAffineMap, ref: ReferenceMap) -> None:
    assert (m.rows, m.cols) == (ref.rows, ref.cols)
    assert column_coords(m) == column_coords(ref)


class TestViewsAndEquality:
    @settings(max_examples=100, deadline=None)
    @given(map_columns())
    def test_constructor_matches_oracle(self, columns):
        m = StochasticAffineMap(iter(columns))
        assert_matches(m, ReferenceMap.from_columns(columns))
        assert all(m.column_point(j) is c for j, c in enumerate(columns))

    @settings(max_examples=100, deadline=None)
    @given(map_columns(), st.data())
    def test_equal_maps_have_equal_storage(self, columns, data):
        m = StochasticAffineMap(columns)
        scales = data.draw(st.lists(st.integers(1, 50), min_size=m.cols, max_size=m.cols))
        copies = (
            StochasticAffineMap(
                SimplexPoint._from_ints([n * k for n in c.nums], c.den * k) for c, k in zip(columns, scales)
            ),
            StochasticAffineMap(SimplexPoint(coords) for coords in column_coords(m)),
        )
        for other in copies:
            assert other == m and hash(other) == hash(m)
            assert other._columns == m._columns

    def test_distinct_maps_differ(self):
        f = StochasticAffineMap([SimplexPoint.vertex(2, 0), SimplexPoint([F(1, 2), F(1, 2)])])
        g = StochasticAffineMap([SimplexPoint.vertex(2, 0), SimplexPoint([F(1, 3), F(2, 3)])])
        assert f != g and column_coords(f) != column_coords(g)

    def test_immutable(self):
        m = StochasticAffineMap([SimplexPoint.vertex(2, 0), SimplexPoint.vertex(2, 1)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            m._columns = ()
        assert m == StochasticAffineMap([SimplexPoint.vertex(2, 0), SimplexPoint.vertex(2, 1)])


class TestArithmetic:
    @settings(max_examples=100, deadline=None)
    @given(map_columns(), st.data())
    def test_apply_matches_oracle(self, columns, data):
        point = data.draw(points(len(columns)))
        got = StochasticAffineMap(columns).apply(point)
        assert got.coords == ReferenceMap.from_columns(columns).apply(point).coords

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
    def test_compose_matches_oracle(self, rows, mid, cols, data):
        outer = data.draw(map_columns(rows, mid))
        inner = data.draw(map_columns(mid, cols))
        got = StochasticAffineMap(outer).compose(StochasticAffineMap(inner))
        want = ReferenceMap.from_columns(outer).compose(ReferenceMap.from_columns(inner))
        assert_matches(got, want)
        assert got == StochasticAffineMap(SimplexPoint(coords) for coords in column_coords(want))

    def test_shape_errors_match_oracle(self):
        for build in (StochasticAffineMap, ReferenceMap.from_columns):
            f = build([SimplexPoint.vertex(2, j) for j in range(2)])
            g = build([SimplexPoint.vertex(3, j) for j in range(3)])
            with pytest.raises(ValueError, match="^composition shape mismatch$"):
                f.compose(g)
            with pytest.raises(ValueError, match="^map expects 2 coordinates, point has 3$"):
                f.apply(SimplexPoint.barycenter(3))

    def test_large_denominators(self):
        p = SimplexPoint([F(1, 2**80), 1 - F(1, 2**80)])
        q = SimplexPoint([F(3, 7**40), F(1, 5**30), 1 - F(3, 7**40) - F(1, 5**30)])
        got = StochasticAffineMap.vertex_fixing(p).compose(StochasticAffineMap.vertex_fixing(q))
        want = ReferenceMap.vertex_fixing(p).compose(ReferenceMap.vertex_fixing(q))
        assert_matches(got, want)


class TestConstructors:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(points))
    def test_vertex_fixing(self, point):
        assert_matches(StochasticAffineMap.vertex_fixing(point), ReferenceMap.vertex_fixing(point))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_induced_maps_of_random_steps(self, seed):
        rng = random.Random(seed)
        mat, u_src, u_dst = random_unital_step(rng)
        assert_matches(induced_trace_map(mat, u_src, u_dst), reference_induced_trace_map(mat, u_src, u_dst))
        prefix = random_unital_prefix(rng, max_depth=5, max_width=5)
        for n, m in enumerate(level_maps(prefix)):
            ref = reference_induced_trace_map(prefix.matrices[n], prefix.levels[n], prefix.levels[n + 1])
            assert_matches(m, ref)


class TestMapDistance:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_matches_oracle(self, rows, cols, data):
        a, b = data.draw(map_columns(rows, cols)), data.draw(map_columns(rows, cols))
        for metric in ("l1", "l2"):
            want = reference_map_distance(ReferenceMap.from_columns(a), ReferenceMap.from_columns(b), metric)
            assert map_distance(StochasticAffineMap(a), StochasticAffineMap(b), metric) == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_induced_map_against_random_map(self, seed, data):
        mat, u_src, u_dst = random_unital_step(random.Random(seed))
        f = induced_trace_map(mat, u_src, u_dst)
        other = data.draw(map_columns(f.rows, f.cols))
        for metric in ("l1", "l2"):
            ref = reference_induced_trace_map(mat, u_src, u_dst)
            want = reference_map_distance(ref, ReferenceMap.from_columns(other), metric)
            assert map_distance(f, StochasticAffineMap(other), metric) == want


@st.composite
def bad_columns(draw):
    """Column point lists that are often not a map's: empty, or ragged
    (one column of another dimension inserted)."""
    kind = draw(st.sampled_from(["empty", "ragged", "valid"]))
    if kind == "empty":
        return []
    columns = draw(map_columns())
    if kind == "ragged":
        other = draw(st.integers(1, 5).filter(lambda dim: dim != columns[0].dim))
        columns.insert(draw(st.integers(0, len(columns))), draw(points(other)))
    return columns


class TestErrorTexts:
    @settings(max_examples=200, deadline=None)
    @given(bad_columns())
    def test_constructor_matches_oracle(self, columns):
        assert outcome(StochasticAffineMap, columns) == outcome(ReferenceMap.from_columns, columns)

    @pytest.mark.parametrize(
        "columns, text",
        [
            ([], "matrix must be non-empty"),
            ((), "matrix must be non-empty"),
            ([SimplexPoint.vertex(1, 0), SimplexPoint.vertex(2, 1)], "ragged matrix"),
            ([SimplexPoint.vertex(2, 0), SimplexPoint.vertex(2, 1), SimplexPoint.barycenter(3)], "ragged matrix"),
        ],
    )
    def test_fixed_texts(self, columns, text):
        for build in (StochasticAffineMap, ReferenceMap.from_columns):
            with pytest.raises(ValueError) as exc:
                build(columns)
            assert str(exc.value) == text


# --- points ----------------------------------------------------------------

coordinates = st.lists(st.fractions(min_value=-1, max_value=2, max_denominator=12), max_size=5)


def valid_coords(dim: int):
    """Coordinates of a point or a vertex of the simplex with `dim` coordinates."""
    vertices = st.integers(0, dim - 1).map(lambda v: [int(i == v) for i in range(dim)])
    return st.one_of(points(dim).map(lambda p: list(p.coords)), vertices)


any_valid_coords = st.integers(1, 5).flatmap(valid_coords)


def point_outcome(build, *args):
    try:
        return "ok", build(*args).coords
    except ValueError as exc:
        return "error", str(exc)


def both(coords):
    return SimplexPoint(coords), ReferencePoint(coords)


class TestPointAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(coordinates, any_valid_coords))
    def test_constructor_and_error_texts(self, coords):
        assert point_outcome(SimplexPoint, coords) == point_outcome(ReferencePoint, coords)

    @settings(max_examples=200, deadline=None)
    @given(coordinates)
    def test_normalized(self, weights):
        assert point_outcome(SimplexPoint.normalized, weights) == point_outcome(ReferencePoint.normalized, weights)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(-2, 7))
    def test_vertex_and_barycenter(self, size, index):
        assert point_outcome(SimplexPoint.vertex, size, index) == point_outcome(ReferencePoint.vertex, size, index)
        assert SimplexPoint.barycenter(size).coords == ReferencePoint.barycenter(size).coords

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(valid_coords(n), valid_coords(n))))
    def test_queries(self, pair):
        (p, rp), (q, rq) = both(pair[0]), both(pair[1])
        for a, ra in ((p, rp), (q, rq)):
            assert a.vertex_index() == ra.vertex_index()
            assert a.common_denominator_strings() == ra.common_denominator_strings()
            assert (a.dim, a.coords, tuple(a), [a[i] for i in range(a.dim)]) == (
                ra.dim, ra.coords, tuple(ra), list(ra.coords)
            )
        for a, b, ra, rb in ((p, q, rp, rq), (q, p, rq, rp), (p, p, rp, rp)):
            assert a.l1_distance(b) == ra.l1_distance(rb)
            assert a.l2sq_distance(b) == ra.l2sq_distance(rb)
            assert (a == b) == (ra == rb)

    @settings(max_examples=200, deadline=None)
    @given(any_valid_coords, st.integers(1, 30))
    def test_equal_points_have_equal_storage_and_hash(self, coords, scale):
        p = SimplexPoint(coords)
        copies = (
            SimplexPoint.normalized([scale * c for c in coords]),
            SimplexPoint([str(c) for c in p.coords]),
            SimplexPoint._from_ints([scale * n for n in p.nums], scale * p.den),
        )
        for other in copies:
            assert other == p and hash(other) == hash(p)
            assert (other.nums, other.den) == (p.nums, p.den)
        assert p.den == lcm(*(x.denominator for x in ReferencePoint(coords).coords))

    def test_dimension_mismatch(self):
        for build in (SimplexPoint, ReferencePoint):
            with pytest.raises(ValueError, match="^dimension mismatch$"):
                build.vertex(2, 0).l1_distance(build.vertex(3, 0))
            with pytest.raises(ValueError, match="^dimension mismatch$"):
                build.vertex(2, 0).l2sq_distance(build.vertex(3, 0))

    @pytest.mark.parametrize(
        "nums, den, text",
        [
            ((), 1, "a simplex point needs at least one coordinate"),
            ((2, -1), 1, "coordinates must be non-negative"),
            ((0,), 0, "coordinates must be non-negative"),
            ((1, 1), 3, "coordinates must sum to 1, got 2/3"),
        ],
    )
    def test_trusted_constructor_texts(self, nums, den, text):
        with pytest.raises(ValueError) as exc:
            SimplexPoint._from_ints(nums, den)
        assert str(exc.value) == text


class TestPublicPointConstructorUnused:
    """The kernels build their points from integers: the public `Fraction`
    constructor runs only for points a caller supplies."""

    def test_kernels(self, monkeypatch):
        prefix = embed_triangular(all_ones_spec(9), 9)
        f, g = level_maps(prefix)[6:8]
        point = SimplexPoint.normalized(range(1, 10))
        halving = StationarySpec(tail=TailRule.geometric(F(1, 2))).targets()
        explicit = TargetSequence.explicit([SimplexPoint.barycenter(n + 1) for n in range(6)])
        identity = StochasticAffineMap(SimplexPoint.vertex(f.cols, j) for j in range(f.cols))
        calls = []
        init = SimplexPoint.__init__

        def counting_init(self, coords):
            calls.append(coords)
            init(self, coords)

        monkeypatch.setattr(SimplexPoint, "__init__", counting_init)
        push_point(prefix, point, 8, 0)
        f.apply(g.apply(point))
        f.compose(g)
        map_distance(f, f.compose(identity), "l1")
        map_distance(g, StochasticAffineMap.vertex_fixing(SimplexPoint.barycenter(8)), "l2")
        synthesize(halving, 8)
        synthesize(halving, 8, exact=True)
        synthesize(explicit, 5, exact=True)
        assert calls == []
