"""The integer kernels of `SimplexPoint` and `StochasticAffineMap` against
the Fraction oracles `ReferencePoint` and `ReferenceMap`: views, equality,
distances, apply, compose, the constructors, the induced trace maps, map
distances and every constructor error text; and a work guard that the
package's own arithmetic never goes through the public point constructor."""

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
    random_unital_prefix,
    random_unital_step,
    reference_induced_trace_map,
    reference_map_distance,
)

weights = st.fractions(min_value=0, max_value=9, max_denominator=12)


def points(dim: int):
    return st.lists(weights, min_size=dim, max_size=dim).filter(any).map(SimplexPoint.normalized)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Rows of a random column-stochastic Fraction matrix."""
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    columns = draw(st.lists(points(rows), min_size=cols, max_size=cols))
    return [[c[i] for c in columns] for i in range(rows)]


def int_columns(rows):
    """The columns of a non-empty, non-ragged matrix as (nums, den) over
    the lcm of each column's denominators."""
    out = []
    for column in zip(*(tuple(F(v) for v in r) for r in rows)):
        den = lcm(*(v.denominator for v in column))
        out.append((tuple(v.numerator * (den // v.denominator) for v in column), den))
    return out


def outcome(build, rows):
    try:
        return "ok", build(rows).entries
    except ValueError as exc:
        return "error", str(exc)


def assert_matches(m: StochasticAffineMap, ref: ReferenceMap) -> None:
    assert (m.rows, m.cols) == (ref.rows, ref.cols)
    assert m.entries == ref.entries
    for j in range(m.cols):
        assert m.column_point(j).coords == ref.column_point(j).coords


class TestViewsAndEquality:
    @settings(max_examples=100, deadline=None)
    @given(matrices())
    def test_row_constructor_matches_oracle(self, rows):
        assert_matches(StochasticAffineMap(rows), ReferenceMap(rows))

    @settings(max_examples=100, deadline=None)
    @given(matrices(), st.data())
    def test_equal_maps_have_equal_storage(self, rows, data):
        m = StochasticAffineMap(rows)
        scales = data.draw(st.lists(st.integers(1, 50), min_size=m.cols, max_size=m.cols))
        scaled = StochasticAffineMap._from_int_columns(
            (tuple(n * c for n in nums), den * c) for (nums, den), c in zip(int_columns(rows), scales)
        )
        copies = (
            scaled,
            StochasticAffineMap(m.entries),
        )
        for other in copies:
            assert other == m and hash(other) == hash(m)
            assert other._columns == m._columns

    def test_distinct_maps_differ(self):
        f = StochasticAffineMap([[1, F(1, 2)], [0, F(1, 2)]])
        g = StochasticAffineMap([[1, F(1, 3)], [0, F(2, 3)]])
        assert f != g and f.entries != g.entries

    def test_immutable(self):
        m = StochasticAffineMap([[1, 0], [0, 1]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            m._columns = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.entries = ((F(1),),)
        assert m == StochasticAffineMap([[1, 0], [0, 1]])


class TestArithmetic:
    @settings(max_examples=100, deadline=None)
    @given(matrices(), st.data())
    def test_apply_matches_oracle(self, rows, data):
        point = data.draw(points(len(rows[0])))
        assert StochasticAffineMap(rows).apply(point).coords == ReferenceMap(rows).apply(point).coords

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
    def test_compose_matches_oracle(self, rows, mid, cols, data):
        outer = data.draw(matrices(rows, mid))
        inner = data.draw(matrices(mid, cols))
        got = StochasticAffineMap(outer).compose(StochasticAffineMap(inner))
        want = ReferenceMap(outer).compose(ReferenceMap(inner))
        assert_matches(got, want)
        assert got == StochasticAffineMap(want.entries)

    def test_shape_errors_match_oracle(self):
        for build in (StochasticAffineMap, ReferenceMap):
            f, g = build([[1, 0], [0, 1]]), build([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
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
        a, b = data.draw(matrices(rows, cols)), data.draw(matrices(rows, cols))
        for metric in ("l1", "l2"):
            want = reference_map_distance(ReferenceMap(a), ReferenceMap(b), metric)
            assert map_distance(StochasticAffineMap(a), StochasticAffineMap(b), metric) == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_induced_map_against_random_map(self, seed, data):
        mat, u_src, u_dst = random_unital_step(random.Random(seed))
        f = induced_trace_map(mat, u_src, u_dst)
        other = data.draw(matrices(f.rows, f.cols))
        for metric in ("l1", "l2"):
            want = reference_map_distance(reference_induced_trace_map(mat, u_src, u_dst), ReferenceMap(other), metric)
            assert map_distance(f, StochasticAffineMap(other), metric) == want


@st.composite
def bad_matrices(draw):
    """Row matrices of ints or Fractions that are often not column
    stochastic: empty, ragged, with a negative entry or a bad column sum."""
    kind = draw(st.sampled_from(["empty", "ragged", "negative", "sum", "ints", "valid"]))
    if kind == "empty":
        return draw(st.sampled_from([[], [[]], [[], []]]))
    if kind == "ints":
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        return draw(st.lists(st.lists(st.integers(-2, 3), min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    rows = draw(matrices())
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[0]) - 1))
    if kind == "ragged":
        if draw(st.booleans()) and len(rows[i]) > 1:
            rows[i] = rows[i][:-1]
        else:
            rows[i] = rows[i] + [F(0)]
        if i == 0:
            rows.append(list(rows[0]) + [F(0)])
    elif kind == "negative":
        rows[i][j] = -draw(weights.filter(bool))
    elif kind == "sum":
        rows[i][j] += draw(weights.filter(bool)) * draw(st.sampled_from([1, -1]))
    return rows


class TestErrorTexts:
    @settings(max_examples=200, deadline=None)
    @given(bad_matrices())
    def test_row_constructor_matches_oracle(self, rows):
        assert outcome(StochasticAffineMap, rows) == outcome(ReferenceMap, rows)

    @settings(max_examples=150, deadline=None)
    @given(bad_matrices())
    def test_trusted_constructor_matches_oracle(self, rows):
        if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
            return
        got = outcome(lambda r: StochasticAffineMap._from_int_columns(int_columns(r)), rows)
        assert got == outcome(ReferenceMap, rows)

    @pytest.mark.parametrize(
        "rows, text",
        [
            ([], "matrix must be non-empty"),
            ([[]], "matrix must be non-empty"),
            ([[1, 0], [0]], "ragged matrix"),
            ([[1, -1], [0, 2]], "entries must be non-negative"),
            ([[F(-1, 2), 1], [F(3, 2), 0]], "entries must be non-negative"),
            ([[1, 1], [0, 1]], "column 1 sums to 2, expected 1"),
            ([[1, F(1, 2)], [0, F(1, 3)]], "column 1 sums to 5/6, expected 1"),
        ],
    )
    def test_fixed_texts(self, rows, text):
        for build in (StochasticAffineMap, ReferenceMap):
            with pytest.raises(ValueError) as exc:
                build(rows)
            assert str(exc.value) == text

    @pytest.mark.parametrize(
        "columns, text",
        [
            ([], "matrix must be non-empty"),
            ([((), 1)], "matrix must be non-empty"),
            ([((1,), 1), ((0, 1), 1)], "ragged matrix"),
            ([((2, -1), 1)], "entries must be non-negative"),
            ([((0,), 0)], "entries must be non-negative"),
            ([((1,), 1), ((1, 1), 3)], "ragged matrix"),
            ([((1, 0), 1), ((1, 1), 3)], "column 1 sums to 2/3, expected 1"),
        ],
    )
    def test_trusted_fixed_texts(self, columns, text):
        with pytest.raises(ValueError) as exc:
            StochasticAffineMap._from_int_columns(columns)
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
            assert (a.dim, tuple(a), [a[i] for i in range(a.dim)]) == (ra.dim, tuple(ra), list(ra.coords))
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
        identity = StochasticAffineMap([[int(i == j) for j in range(f.cols)] for i in range(f.cols)])
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
