from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bratteli import (
    SimplexPoint,
    StationarySpec,
    StochasticAffineMap,
    TriangularSpec,
    characteristic_sequence,
    check_rfd_ji,
    close,
    embed_triangular,
    induced_trace_map,
    map_distance,
    profile_is_valid,
    stationary_targets,
    zeta,
)
import bratteli
from bratteli.diagram import MultiplicityMatrix


@st.composite
def triangular_specs(draw, max_levels=5):
    levels = draw(st.integers(1, max_levels))
    k0 = draw(st.integers(1, 3))
    mvectors = []
    for n in range(levels):
        vec = draw(
            st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1).filter(
                lambda v: any(v)
            )
        )
        mvectors.append(tuple(vec))
    return TriangularSpec(k0, mvectors)


@st.composite
def positive_triangular_specs(draw, max_levels=5):
    levels = draw(st.integers(1, max_levels))
    k0 = draw(st.integers(1, 3))
    mvectors = [
        tuple(draw(st.lists(st.integers(1, 3), min_size=n + 1, max_size=n + 1)))
        for n in range(levels)
    ]
    return TriangularSpec(k0, mvectors)


@st.composite
def rationals(draw, max_num=6, max_den=6):
    return F(draw(st.integers(0, max_num)), draw(st.integers(1, max_den)))


@st.composite
def stochastic_maps(draw, rows, cols):
    columns = []
    for _ in range(cols):
        weights = draw(
            st.lists(rationals(), min_size=rows, max_size=rows).filter(lambda w: any(w))
        )
        total = sum(weights)
        columns.append(tuple(w / total for w in weights))
    return StochasticAffineMap(SimplexPoint(c) for c in columns)


@settings(max_examples=60, deadline=None)
@given(triangular_specs(), st.data())
def test_characteristic_sequence_monotone_in_multiplicities(spec, data):
    n = data.draw(st.integers(0, spec.levels_defined - 1))
    j = data.draw(st.integers(0, n))
    bumped = [list(m) for m in spec.mvectors]
    bumped[n][j] += data.draw(st.integers(1, 3))
    other = TriangularSpec(spec.k0, bumped)
    ks = characteristic_sequence(spec, spec.levels_defined)
    ks2 = characteristic_sequence(other, other.levels_defined)
    assert all(b >= a for a, b in zip(ks, ks2))
    assert ks2[n + 1] > ks[n + 1]


@settings(max_examples=60, deadline=None)
@given(triangular_specs())
def test_embedding_validates_and_matches_sizes(spec):
    depth = spec.levels_defined
    prefix = embed_triangular(spec, depth)
    assert prefix.validate().ok
    ks = characteristic_sequence(spec, depth)
    for n in range(depth + 1):
        assert prefix.levels[n].entries == ks[: n + 1]


@settings(max_examples=60, deadline=None)
@given(triangular_specs())
def test_zeta_sums_to_one(spec):
    for n in range(spec.levels_defined):
        assert sum(zeta(spec, n).coords) == 1


@settings(max_examples=40, deadline=None)
@given(positive_triangular_specs())
def test_positive_specs_are_ji_consistent_with_full_stable_count(spec):
    depth = spec.levels_defined
    result = check_rfd_ji(embed_triangular(spec, depth))
    assert result.consistent
    assert result.witness.r == tuple(range(1, depth + 2))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_induced_maps_are_column_stochastic(data):
    cols = data.draw(st.integers(1, 4))
    rows = data.draw(st.integers(1, 5))
    entries = [
        [data.draw(st.integers(0, 3)) for _ in range(cols)] for _ in range(rows)
    ]
    for i in range(rows):
        if not any(entries[i]):
            entries[i][data.draw(st.integers(0, cols - 1))] = 1
    for j in range(cols):
        if not any(entries[i][j] for i in range(rows)):
            entries[data.draw(st.integers(0, rows - 1))][j] = 1
    mat = MultiplicityMatrix(entries)
    u_src = [data.draw(st.integers(1, 5)) for _ in range(cols)]
    u_dst = list(mat.apply(u_src))
    induced_trace_map(mat, u_src, u_dst)  # constructor checks column sums


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_composition_of_stochastic_maps_is_stochastic(data):
    a = data.draw(st.integers(1, 4))
    b = data.draw(st.integers(1, 4))
    c = data.draw(st.integers(1, 4))
    f = data.draw(stochastic_maps(a, b))
    g = data.draw(stochastic_maps(b, c))
    f.compose(g)  # constructor validates column sums


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_map_distance_is_a_metric_on_same_shape_maps(data):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    f = data.draw(stochastic_maps(rows, cols))
    g = data.draw(stochastic_maps(rows, cols))
    h = data.draw(stochastic_maps(rows, cols))
    assert map_distance(f, f) == 0
    assert map_distance(f, g) == map_distance(g, f)
    assert map_distance(f, h) <= map_distance(f, g) + map_distance(g, h)


@settings(max_examples=40, deadline=None)
@given(triangular_specs(max_levels=4), st.data())
def test_close_is_a_closure_operator(spec, data):
    prefix = embed_triangular(spec, spec.levels_defined)
    seed_count = data.draw(st.integers(0, 4))
    seeds = [
        (
            data.draw(st.integers(0, prefix.depth - 1)),
            data.draw(st.integers(0, 10)),
        )
        for _ in range(seed_count)
    ]
    seeds = [(n, v % prefix.width(n)) for n, v in seeds]
    profile = close(prefix, seeds)
    assert profile_is_valid(prefix, profile)
    # extensive
    for n, v in seeds:
        assert v in set(profile.T[n])
    # idempotent
    reseeded = [(n, v) for n in range(prefix.depth) for v in profile.T[n]]
    assert close(prefix, reseeded) == profile
    # monotone
    smaller = close(prefix, seeds[: len(seeds) // 2])
    assert all(
        set(smaller.T[n]) <= set(profile.T[n]) for n in range(prefix.depth)
    )


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_stationary_families_are_coherent(data):
    head = data.draw(
        st.lists(rationals(), min_size=1, max_size=6).filter(lambda h: any(h))
    )
    spec = StationarySpec(head)
    targets = spec.targets()
    assert targets.check_coherence(len(head) + 3)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_stationary_targets_scale_invariance(data):
    head = data.draw(
        st.lists(rationals(max_num=4), min_size=2, max_size=5).filter(lambda h: any(h))
    )
    factor = F(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
    a = StationarySpec(head)
    b = StationarySpec([factor * x for x in head])
    for n in range(len(head)):
        assert stationary_targets(a, n) == stationary_targets(b, n)


def _package_dataclasses() -> list[type]:
    found = set()
    for info in pkgutil.iter_modules(bratteli.__path__, "bratteli."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.add(cls)
    return sorted(found, key=lambda c: c.__qualname__)


@pytest.mark.parametrize("cls", _package_dataclasses(), ids=lambda c: c.__qualname__)
def test_assigning_any_name_is_a_frozen_error(cls):
    obj = object.__new__(cls)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.not_a_field = 1

