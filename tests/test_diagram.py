from __future__ import annotations

import pytest

from bratteli import (
    BratteliPrefix,
    DimensionVector,
    InsufficientPrefixError,
    MultiplicityMatrix,
    TriangularSpec,
    characteristic_sequence,
    embed_triangular,
)

from conftest import all_ones_spec


class TestTypes:
    def test_dimension_vector_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            DimensionVector([])
        with pytest.raises(ValueError):
            DimensionVector([1, -2])
        with pytest.raises(TypeError):
            DimensionVector([1.5])

    def test_matrix_shape_checks(self):
        with pytest.raises(ValueError):
            MultiplicityMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            MultiplicityMatrix([[1, -1]])
        m = MultiplicityMatrix([[1, 0], [2, 3]])
        assert m.apply((1, 1)) == (1, 5)
        assert m.entries == ((1, 0), (2, 3))

    def test_triangular_spec_validation(self):
        with pytest.raises(ValueError):
            TriangularSpec(0, [(1,)])
        with pytest.raises(ValueError):
            TriangularSpec(1, [(1, 1)])  # wrong length at level 0
        with pytest.raises(ValueError):
            TriangularSpec(1, [(0,)])  # zero vector
        spec = TriangularSpec(2, [(1,), (0, 3)])
        assert spec.levels_defined == 2

    def test_prefix_requires_matching_matrix_count(self):
        with pytest.raises(ValueError):
            BratteliPrefix([[1], [1, 1]], [])


class TestCharacteristicSequence:
    def test_all_ones_doubles(self):
        assert characteristic_sequence(all_ones_spec(6), 6) == (1, 1, 2, 4, 8, 16, 32)

    def test_identity_step(self):
        assert characteristic_sequence(TriangularSpec(5, [(1,)]), 1) == (5, 5)

    def test_hand_recurrence(self):
        spec = TriangularSpec(1, [(1,), (1, 2), (1, 2, 3)])
        assert characteristic_sequence(spec, 3) == (1, 1, 3, 12)

    def test_insufficient_prefix(self):
        with pytest.raises(InsufficientPrefixError):
            characteristic_sequence(all_ones_spec(2), 3)


class TestEmbed:
    def test_all_ones_depth_two(self):
        prefix = embed_triangular(all_ones_spec(2), 2)
        assert [l.entries for l in prefix.levels] == [(1,), (1, 1), (1, 1, 2)]
        assert prefix.matrices[1].entries == ((1, 0), (0, 1), (1, 1))
        assert prefix.unital

    def test_single_level(self):
        prefix = embed_triangular(TriangularSpec(3, []), 0)
        assert prefix.depth == 1
        assert prefix.levels[0].entries == (3,)

    def test_embed_passes_validate_and_matches_sequence(self):
        spec = TriangularSpec(2, [(2,), (0, 1), (3, 1, 2), (1, 1, 1, 1)])
        prefix = embed_triangular(spec, 4)
        assert prefix.validate().ok
        ks = characteristic_sequence(spec, 4)
        for n in range(5):
            assert prefix.levels[n].entries == ks[: n + 1]


class TestValidate:
    def test_embed_is_ok(self):
        assert embed_triangular(all_ones_spec(4), 4).validate().ok

    def test_zero_column_reported_at_level(self):
        prefix = embed_triangular(all_ones_spec(4), 4)
        bad = [list(r) for r in prefix.matrices[2].entries]
        for row in bad:
            row[1] = 0  # kill column 1 of the level-2 matrix
        mats = list(prefix.matrices)
        mats[2] = MultiplicityMatrix(bad)
        # keep shapes; sizes now break unitality too, so check both issues
        broken = BratteliPrefix(prefix.levels, mats, unital=False)
        report = broken.validate()
        assert not report.ok
        assert any(i.code == "degenerate matrix" and i.level == 2 for i in report.issues)

    def test_unitality_violation(self):
        prefix = BratteliPrefix([[1], [2, 1]], [[[1], [1]]], unital=True)
        report = prefix.validate()
        assert [(i.code, i.level) for i in report.issues] == [("unitality", 0)]
        assert BratteliPrefix([[1], [2, 1]], [[[1], [1]]], unital=False).validate().ok

    def test_domination_violation(self):
        prefix = BratteliPrefix([[2], [1]], [[[1]]], unital=False)
        assert any(i.code == "domination" for i in prefix.validate().issues)

    def test_every_issue_kind_in_order(self):
        prefix = BratteliPrefix(
            [[2, 0], [2, 3], [2, 3, 9], [1, 0]],
            [[[1, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 1, 1], [1, 0, 0]]],
            unital=True,
        )
        issues = tuple((i.level, i.code, i.detail) for i in prefix.validate().issues)
        assert issues == (
            (0, "nonpositive size", "u_0(1) = 0"),
            (3, "nonpositive size", "u_3(1) = 0"),
            (0, "degenerate matrix", "zero row 1 in A_0"),
            (0, "degenerate matrix", "zero column 1 in A_0"),
            (0, "unitality", "A_0 u_0 = (2, 0) != u_1 = (2, 3)"),
            (1, "shape mismatch", "A_1 is 2x2, expected 3x2"),
            (2, "domination", "A_2 u_2 = (14, 2) exceeds u_3 = (1, 0)"),
        )
