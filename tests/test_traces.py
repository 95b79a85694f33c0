from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from bratteli import (
    BratteliError,
    BratteliPrefix,
    MultiplicityMatrix,
    SimplexPoint,
    StationarySpec,
    StochasticAffineMap,
    TailRule,
    TraceLabel,
    TriangularSpec,
    check_rfd_ji,
    embed_triangular,
    induced_trace_map,
    label_trace,
    level_maps,
    limit_trace_restriction,
    push_point,
    zeta,
)
from bratteli.cli import run
from bratteli.diagram import characteristic_sequence

from conftest import ReferenceMap, column_coords, random_point, random_unital_prefix, reference_induced_trace_map


def count_map_constructions(monkeypatch) -> dict[str, int]:
    """Count `StochasticAffineMap` constructions from the next call on:
    every map goes through its one constructor, from column points."""
    calls = {"maps": 0}
    init = StochasticAffineMap.__init__

    def counting_init(self, columns):
        calls["maps"] += 1
        init(self, columns)

    monkeypatch.setattr(StochasticAffineMap, "__init__", counting_init)
    return calls


class TestInducedTraceMap:
    def test_single_source_vertex_forces_unit_columns(self):
        m = induced_trace_map(MultiplicityMatrix([[1], [2]]), [2], [2, 4])
        assert m.column_point(0).coords == (F(1),)
        assert m.column_point(1).coords == (F(1),)

    def test_all_ones_step_two(self, ones12):
        prefix = embed_triangular(ones12, 3)
        m = induced_trace_map(prefix.matrices[2], prefix.levels[2], prefix.levels[3])
        assert m.column_point(0) == SimplexPoint.vertex(3, 0)
        assert m.column_point(1) == SimplexPoint.vertex(3, 1)
        assert m.column_point(2) == SimplexPoint.vertex(3, 2)
        assert m.column_point(3).coords == (F(1, 4), F(1, 4), F(1, 2))

    def test_identity_step(self):
        m = induced_trace_map(MultiplicityMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [1, 2, 3], [1, 2, 3])
        assert m == StochasticAffineMap(SimplexPoint.vertex(3, j) for j in range(3))

    def test_non_unital_rejected(self):
        with pytest.raises(BratteliError):
            induced_trace_map(MultiplicityMatrix([[1]]), [1], [2])


class TestZeta:
    def test_all_ones_level_four(self, ones12):
        assert zeta(ones12, 4).coords == (F(1, 16), F(1, 16), F(2, 16), F(4, 16), F(8, 16))

    def test_level_zero_is_the_point(self, ones12):
        assert zeta(ones12, 0).coords == (F(1),)

    def test_hand_formula(self):
        spec = TriangularSpec(1, [(1,), (2, 1)])
        assert zeta(spec, 1).coords == (F(2, 3), F(1, 3))

    def test_sums_to_one_exactly(self):
        spec = TriangularSpec(3, [(2,), (5, 1), (1, 0, 7), (2, 3, 1, 1)])
        for n in range(4):
            assert sum(zeta(spec, n).coords) == 1


class TestPushPoint:
    def test_persistent_vertices_fixed(self, ones12):
        prefix = embed_triangular(ones12, 4)
        assert push_point(prefix, SimplexPoint.vertex(4, 2), 3, 2) == SimplexPoint.vertex(3, 2)

    def test_new_vertex_lands_on_zeta(self, ones12):
        prefix = embed_triangular(ones12, 4)
        assert push_point(prefix, SimplexPoint.vertex(4, 3), 3, 2) == zeta(ones12, 2)

    def test_barycenter_through_identity_steps(self):
        prefix = BratteliPrefix([[2, 3]] * 3, [MultiplicityMatrix([[1, 0], [0, 1]])] * 2)
        b = SimplexPoint.barycenter(2)
        assert push_point(prefix, b, 2, 0) == b

    def test_dimension_mismatch(self, ones12):
        prefix = embed_triangular(ones12, 3)
        with pytest.raises(BratteliError):
            push_point(prefix, SimplexPoint.vertex(2, 0), 3, 1)

    def test_functorial_over_intermediate_level(self, ones12):
        prefix = embed_triangular(ones12, 6)
        point = zeta(ones12, 5)
        direct = push_point(prefix, point, 5, 1)
        staged = push_point(prefix, push_point(prefix, point, 5, 3), 3, 1)
        assert direct == staged


def chained_push(prefix: BratteliPrefix, point: SimplexPoint, src: int, dst: int) -> SimplexPoint:
    """Oracle: build each step's induced map and apply it."""
    for n in range(src - 1, dst - 1, -1):
        step = induced_trace_map(prefix.matrices[n], prefix.levels[n], prefix.levels[n + 1])
        point = step.apply(point)
    return point


class TestPushAgainstInducedMaps:
    def test_random_unital_prefixes(self):
        rng = random.Random(41)
        for _ in range(200):
            prefix = random_unital_prefix(rng, max_depth=6, max_width=5)
            src = rng.randrange(1, prefix.depth)
            dst = rng.randrange(src)
            point = random_point(rng, prefix.width(src))
            assert push_point(prefix, point, src, dst) == chained_push(prefix, point, src, dst)

    def test_triangular_towers(self):
        rng = random.Random(43)
        for _ in range(30):
            depth = rng.randrange(2, 10)
            mvectors = []
            for n in range(depth):
                m = [rng.randrange(0, 4) for _ in range(n + 1)]
                m[rng.randrange(n + 1)] += 1  # keeps k_{n+1} positive
                mvectors.append(tuple(m))
            prefix = embed_triangular(TriangularSpec(rng.randrange(1, 5), mvectors), depth)
            for src in range(1, prefix.depth):
                point = random_point(rng, prefix.width(src))
                for dst in range(src):
                    assert push_point(prefix, point, src, dst) == chained_push(prefix, point, src, dst)

    def test_non_unital_step_error_text(self):
        # the step from level 1 to 2 is unital; the one below it carries
        # size 1 to 2, not to 3
        prefix = BratteliPrefix([[1], [3], [3]], [[[2]], [[1]]], unital=False)
        with pytest.raises(BratteliError) as oracle:
            chained_push(prefix, SimplexPoint.vertex(1, 0), 2, 0)
        with pytest.raises(BratteliError) as got:
            push_point(prefix, SimplexPoint.vertex(1, 0), 2, 0)
        assert str(got.value) == str(oracle.value) == "non-unital step: A u_src != u_dst"

    def test_shape_error_text(self):
        # level 0 has two vertices, but matrix 0 has one column
        prefix = BratteliPrefix([[1, 1], [2], [2]], [[[1]], [[1]]])
        with pytest.raises(BratteliError) as oracle:
            chained_push(prefix, SimplexPoint.vertex(1, 0), 2, 0)
        with pytest.raises(BratteliError) as got:
            push_point(prefix, SimplexPoint.vertex(1, 0), 2, 0)
        assert str(got.value) == str(oracle.value) == "matrix shape does not match the size vectors"

    def test_builds_no_map(self, monkeypatch, ones12):
        prefix = embed_triangular(ones12, 10)
        calls = count_map_constructions(monkeypatch)
        assert push_point(prefix, SimplexPoint.barycenter(10), 9, 0) == SimplexPoint.vertex(1, 0)
        assert calls == {"maps": 0}
        # the counter sees every map
        level_maps(prefix)
        StochasticAffineMap([SimplexPoint.vertex(1, 0)])
        assert calls == {"maps": prefix.depth}


class TestPackageMapsSkipRowConstructor:
    """The package builds each of its maps once, from integer column points,
    and never through a `Fraction` matrix."""

    def test_level_maps(self, monkeypatch, ones12):
        prefix = embed_triangular(ones12, 10)
        calls = count_map_constructions(monkeypatch)
        maps = level_maps(prefix)
        assert calls == {"maps": prefix.depth - 1}
        for n, m in enumerate(maps):
            ref = reference_induced_trace_map(prefix.matrices[n], prefix.levels[n], prefix.levels[n + 1])
            assert column_coords(m) == column_coords(ref)

    def test_target_map_sequence(self, monkeypatch):
        targets = StationarySpec(tail=TailRule.geometric(F(1, 2))).targets()
        calls = count_map_constructions(monkeypatch)
        seq = targets.map_sequence(8)
        assert calls == {"maps": 8}
        for n, m in enumerate(seq.maps):
            assert column_coords(m) == column_coords(ReferenceMap.vertex_fixing(targets.point(n)))


class TestLimitTraceRestriction:
    def test_all_ones_level_three(self, ones12):
        ks = characteristic_sequence(ones12, 3)
        assert limit_trace_restriction(ks, 3).coords == (F(1, 8), F(1, 8), F(2, 8), F(4, 8))

    def test_single_atom(self):
        assert limit_trace_restriction([1, 0, 0, 0, 0, 0], 5) == SimplexPoint.vertex(6, 0)

    def test_halving_weights(self):
        assert limit_trace_restriction([F(1, 2), F(1, 4)], 1).coords == (F(2, 3), F(1, 3))

    def test_all_zero_rejected(self):
        with pytest.raises(BratteliError):
            limit_trace_restriction([0, 0, 0], 2)

    @pytest.mark.parametrize("weights", [[], [1, 2]])
    def test_negative_level_rejected(self, weights):
        with pytest.raises(BratteliError, match=r"^level must be non-negative$"):
            limit_trace_restriction(weights, -1)

    @pytest.mark.parametrize("source", [["--stationary", "geometric:1/2"], ["--t", "1,1/2"]])
    def test_cli_negative_level(self, capsys, source):
        assert run(["traces", "limit-restrict", *source, "--level", "-1"]) == 1
        assert capsys.readouterr() == ("", "bratteli: level must be non-negative\n")


class TestLabelTrace:
    def test_line_index(self, ones12):
        prefix = embed_triangular(ones12, 6)
        witness = check_rfd_ji(prefix).witness
        assert label_trace(prefix, witness, 3) == TraceLabel("type-I", 4)

    def test_coherent_limit_family_is_candidate(self, ones12):
        prefix = embed_triangular(ones12, 6)
        witness = check_rfd_ji(prefix).witness
        family = [
            limit_trace_restriction(characteristic_sequence(ones12, n), n)
            for n in range(7)
        ]
        assert label_trace(prefix, witness, family) == TraceLabel("type-II1-candidate")

    def test_family_pinned_to_vertex(self, ones12):
        prefix = embed_triangular(ones12, 5)
        witness = check_rfd_ji(prefix).witness
        family = [push_point(prefix, SimplexPoint.vertex(6, 2), 5, n) for n in range(5)]
        family.append(SimplexPoint.vertex(6, 2))
        assert label_trace(prefix, witness, family) == TraceLabel("type-I", 2)

    def test_incoherent_family_rejected(self, ones12):
        prefix = embed_triangular(ones12, 3)
        witness = check_rfd_ji(prefix).witness
        family = [SimplexPoint.vertex(1, 0), SimplexPoint.vertex(2, 1), SimplexPoint.vertex(3, 2)]
        with pytest.raises(BratteliError):
            label_trace(prefix, witness, family)

    def test_never_both_labels(self, ones12):
        # a family pinned to a vertex stays type I under every truncation
        prefix = embed_triangular(ones12, 6)
        witness = check_rfd_ji(prefix).witness
        family = [push_point(prefix, SimplexPoint.vertex(7, 1), 6, n) for n in range(6)]
        family.append(SimplexPoint.vertex(7, 1))
        kinds = set()
        for cut in range(1, len(family) + 1):
            kinds.add(label_trace(prefix, witness, family[:cut]).kind)
        assert kinds == {"type-I"}
