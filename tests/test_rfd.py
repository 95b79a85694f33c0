from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bratteli import rfd
from bratteli import (
    BratteliError,
    BratteliPrefix,
    InsufficientPrefixError,
    MultiplicityMatrix,
    TriangularSpec,
    check_rfd,
    check_rfd_ji,
    embed_triangular,
    primitive_profiles,
    validate_witness,
)
from bratteli.cli import run
from bratteli.formats import emit_diagram

from conftest import all_ones_spec, brute_strict, reference_perm_check, reference_reason


def zeroed_a22_variant(depth: int, at: int) -> BratteliPrefix:
    """ex57A-right with the new-line entry of one matrix zeroed, sizes
    recomputed so the prefix stays unital."""
    levels = [[1]]
    mats = []
    for i in range(depth):
        width = i + 1
        rows = [[1 if b == j else 0 for b in range(width)] for j in range(width - 1)]
        ones = [1] * width
        if i == at:
            ones[-1] = 0
        rows.append(ones)
        rows.append([0] * (width - 1) + [2])
        mats.append(rows)
        prev = levels[-1]
        levels.append([sum(rows[a][b] * prev[b] for b in range(width)) for a in range(width + 1)])
    return BratteliPrefix(levels, mats, unital=True)


class TestCheckRfd:
    def test_car_quotient_right_is_consistent(self, ex57a_right):
        result = check_rfd(ex57a_right)
        assert result.consistent
        # one stable line at the top two levels, then one new line per level
        assert result.witness.r == (1,) + tuple(range(1, ex57a_right.depth))
        assert validate_witness(ex57a_right, result.witness)

    def test_identity_diagram_fully_stable(self):
        prefix = BratteliPrefix([[2, 3]] * 4, [MultiplicityMatrix([[1, 0], [0, 1]])] * 3)
        result = check_rfd(prefix)
        assert result.consistent
        assert result.witness.r == (2, 2, 2, 2)
        assert result.witness.kseq == (2, 3)

    def test_zeroed_new_line_entry_is_located(self):
        broken = zeroed_a22_variant(6, at=3)
        result = check_rfd(broken)
        assert not result.consistent
        assert result.level == 3
        assert "A^(2,2)" in result.reason

    def test_insufficient_prefix(self):
        with pytest.raises(InsufficientPrefixError):
            check_rfd(embed_triangular(all_ones_spec(0), 0))


class TestCheckRfdJi:
    def test_all_ones_embedding(self, ones12):
        prefix = embed_triangular(ones12, 8)
        result = check_rfd_ji(prefix)
        assert result.consistent
        assert result.witness.r == tuple(range(1, 10))
        assert result.witness.kseq == (1, 1, 2, 4, 8, 16, 32, 64, 128)
        # third-row blocks are empty along the witness
        assert all(not b.a31 and not b.a32 for b in result.witness.blocks)

    def test_car_quotient_right_fails_positivity(self, ex57a_right):
        result = check_rfd_ji(ex57a_right)
        assert not result.consistent
        assert result.level == 1
        assert "A^(3,1)" in result.reason

    def test_zero_multiplicity_fails_at_first_level(self):
        spec = TriangularSpec(1, [(1,), (1, 1), (1, 0, 1), (1, 1, 1, 1)])
        result = check_rfd_ji(embed_triangular(spec, 4))
        assert not result.consistent
        assert result.level == 2
        assert "zero entry" in result.reason

    def test_ji_witness_is_also_rfd_witness(self, ones12):
        prefix = embed_triangular(ones12, 6)
        ji = check_rfd_ji(prefix)
        rfd = check_rfd(prefix)
        assert ji.consistent and rfd.consistent
        assert validate_witness(prefix, ji.witness, ji=False)
        assert rfd.witness.r == ji.witness.r


class TestInvariants:
    def test_witness_blocks_reassemble(self, ex57a_right, ex57b):
        for prefix in (ex57a_right, ex57b):
            result = check_rfd(prefix)
            assert result.consistent
            assert validate_witness(prefix, result.witness)

    def test_violation_level_monotone_under_extension(self):
        broken6 = zeroed_a22_variant(6, at=3)
        broken9 = zeroed_a22_variant(9, at=3)
        r6, r9 = check_rfd(broken6), check_rfd(broken9)
        assert not r6.consistent and not r9.consistent
        assert r9.level <= r6.level

    def test_triangular_all_positive_multiplicities_invariant(self):
        spec = TriangularSpec(1, [(2,), (1, 3), (2, 1, 1), (1, 1, 2, 1)])
        for depth in range(1, 5):
            prefix = embed_triangular(spec, depth)
            result = check_rfd_ji(prefix)
            assert result.consistent
            assert result.witness.r == tuple(range(1, depth + 2))
            assert all(not b.a31 and not b.a32 for b in result.witness.blocks)


class TestPermutationMode:
    def test_left_presentation_needs_reordering(self, ex57a_left):
        small = ex57a_left.truncate(6)
        strict = check_rfd(small)
        assert not strict.consistent and strict.level == 0

        perm = check_rfd(small, mode="perm")
        assert perm.consistent
        assert perm.witness.r == (1, 1, 2, 3, 4, 5)
        assert perm.witness.permutations is not None
        assert validate_witness(small, perm.witness)

    def test_right_presentation_same_r_in_both_modes(self, ex57a_right):
        small = ex57a_right.truncate(6)
        assert check_rfd(small).witness.r == check_rfd(small, mode="perm").witness.r

    def test_perm_ji_on_left_fails_like_right(self, ex57a_left):
        small = ex57a_left.truncate(5)
        result = check_rfd_ji(small, mode="perm")
        assert not result.consistent

    def test_scrambled_triangular_embedding(self, ones12):
        scrambled = reversed_levels(embed_triangular(ones12, 3))
        assert not check_rfd(scrambled).consistent
        result = check_rfd_ji(scrambled, mode="perm")
        assert result.consistent
        assert result.witness.r == (1, 2, 3, 4)
        assert validate_witness(scrambled, result.witness, ji=True)


def reversed_levels(prefix: BratteliPrefix) -> BratteliPrefix:
    """The same diagram with every level's vertex order reversed."""
    perms = [list(range(prefix.width(n)))[::-1] for n in range(prefix.depth)]
    levels = [[prefix.levels[n][v] for v in perms[n]] for n in range(prefix.depth)]
    mats = []
    for n, mat in enumerate(prefix.matrices):
        mats.append(
            [[mat.entry(perms[n + 1][a], perms[n][b]) for b in range(mat.cols)]
             for a in range(mat.rows)]
        )
    return BratteliPrefix(levels, mats, unital=prefix.unital)


def two_loose_columns() -> BratteliPrefix:
    """One stable column and two loose ones, each fed by its own row: the
    last-level cover needs both rows, the third row set tried."""
    return BratteliPrefix([[1, 1, 1], [1, 2, 2]], [[[1, 0, 0], [0, 2, 0], [0, 0, 2]]])


def cli_check(capsys, tmp_path, prefix: BratteliPrefix, *flags: str):
    path = tmp_path / "diagram.json"
    path.write_text(emit_diagram(prefix))
    code = run(["check-rfd", "--json", *flags, str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPermAboveOldCap:
    @pytest.mark.parametrize("width", [20, 40])
    def test_all_ones_matches_strict(self, width):
        prefix = embed_triangular(all_ones_spec(width - 1), width - 1)
        assert prefix.width(prefix.depth - 1) == width
        for checker in (check_rfd, check_rfd_ji):
            perm = checker(prefix, mode="perm")
            assert perm.consistent
            assert perm.witness.r == checker(prefix).witness.r
            assert validate_witness(prefix, perm.witness, ji=checker is check_rfd_ji)

    @pytest.mark.parametrize("width", [20, 40])
    def test_all_ones_through_cli(self, capsys, tmp_path, width):
        prefix = embed_triangular(all_ones_spec(width - 1), width - 1)
        code, out, _ = cli_check(capsys, tmp_path, prefix, "--mode", "perm")
        assert code == 0
        perm = json.loads(out)
        code, out, _ = cli_check(capsys, tmp_path, prefix)
        assert code == 0
        strict = json.loads(out)
        assert perm["consistent"] and perm["permutations"]
        assert (perm["r"], perm["kseq"]) == (strict["r"], strict["kseq"])

    def test_reversed_width_20_triangular_is_ji(self):
        rng = random.Random(4020)
        spec = TriangularSpec(1, [tuple(rng.randrange(1, 4) for _ in range(n + 1)) for n in range(19)])
        scrambled = reversed_levels(embed_triangular(spec, 19))
        assert scrambled.width(scrambled.depth - 1) == 20
        result = check_rfd_ji(scrambled, mode="perm")
        assert result.consistent
        assert result.witness.r == tuple(range(1, 21))
        assert validate_witness(scrambled, result.witness, ji=True)

    def test_cover_budget_is_named_when_exhausted(self, capsys, tmp_path, monkeypatch):
        prefix = two_loose_columns()
        assert check_rfd(prefix, mode="perm").witness.r == (1, 3)
        monkeypatch.setattr(rfd, "_COVER_BUDGET", 2)
        with pytest.raises(BratteliError, match="_COVER_BUDGET = 2"):
            check_rfd(prefix, mode="perm")
        code, out, err = cli_check(capsys, tmp_path, prefix, "--mode", "perm")
        assert code == 1 and not out
        assert "_COVER_BUDGET" in err

    @pytest.mark.parametrize("checker", [check_rfd, check_rfd_ji], ids=["rfd", "ji"])
    @pytest.mark.parametrize(
        "prefix, verdicts",
        [
            (embed_triangular(all_ones_spec(19), 19), (True, True)),
            (reversed_levels(embed_triangular(all_ones_spec(9), 9)), (True, True)),
            (two_loose_columns(), (True, False)),
            (zeroed_a22_variant(9, at=3), (False, False)),
        ],
        ids=["ones-20", "reversed-10", "two-loose", "zeroed-a22"],
    )
    def test_last_cover_runs_once_on_consistent_only(self, checker, prefix, verdicts, monkeypatch):
        seen = []
        original = rfd._last_cover

        def counting(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(rfd, "_last_cover", counting)
        result = checker(prefix, mode="perm")
        assert result.consistent == verdicts[checker is check_rfd_ji]
        assert len(seen) == (1 if result.consistent else 0)


def forged(witness, **changes):
    return dataclasses.replace(witness, **changes)


def forged_block(witness, i, **changes):
    blocks = list(witness.blocks)
    blocks[i] = dataclasses.replace(blocks[i], **changes)
    return forged(witness, blocks=tuple(blocks))


class TestValidateWitness:
    @pytest.mark.parametrize(
        "forge",
        [
            lambda w: forged(w, kseq=(7,) * len(w.kseq)),
            lambda w: forged(w, kseq=w.kseq[:-1]),
            lambda w: forged(w, kseq=w.kseq + (1,)),
            lambda w: forged(w, blocks=w.blocks[:-1]),
            lambda w: forged(w, blocks=w.blocks + w.blocks[-1:]),
            lambda w: forged(w, permutations=w.permutations[:-1]),
            lambda w: forged(w, permutations=w.permutations + w.permutations[-1:]),
            lambda w: forged_block(w, 2, r_src=w.r[2] + 1),
            lambda w: forged_block(w, 2, r_dst=w.r[3] - 1),
            lambda w: forged_block(w, 2, a22=w.blocks[2].a22 + ((1,),)),
        ],
        ids=[
            "kseq-sevens",
            "kseq-short",
            "kseq-long",
            "blocks-short",
            "blocks-long",
            "permutations-short",
            "permutations-long",
            "r_src",
            "r_dst",
            "a22-extra-row",
        ],
    )
    def test_forged_ji_witness_is_rejected(self, ones12, forge):
        prefix = embed_triangular(ones12, 5)
        witness = check_rfd_ji(prefix, mode="perm").witness
        assert validate_witness(prefix, witness, ji=True)
        assert not validate_witness(prefix, forge(witness), ji=True)

    def test_strict_witness_with_forged_kseq_is_rejected(self, ones12):
        prefix = embed_triangular(ones12, 5)
        witness = check_rfd_ji(prefix).witness
        assert witness.permutations is None
        assert not validate_witness(prefix, forged(witness, kseq=(7,) * len(witness.kseq)), ji=True)

    def test_primitive_profiles_refuses_forged_kseq(self, ones12):
        prefix = embed_triangular(ones12, 5)
        witness = check_rfd_ji(prefix).witness
        assert [p.k for p in primitive_profiles(prefix, witness)] == list(witness.kseq[:-1])
        with pytest.raises(BratteliError, match="witness mismatch"):
            primitive_profiles(prefix, forged(witness, kseq=(7,) * len(witness.kseq)))


@st.composite
def general_prefixes(draw):
    """Valid general-shape prefixes, depth 2-6 and widths 1-4, biased
    towards identity rows on top so that both verdicts occur."""
    depth = draw(st.integers(2, 6))
    widths = [draw(st.integers(1, 4))]
    for _ in range(depth - 1):
        widths.append(min(4, max(1, widths[-1] + draw(st.sampled_from([-1, 0, 1, 1, 2])))))
    unital = draw(st.booleans())
    levels = [draw(st.lists(st.integers(1, 3), min_size=widths[0], max_size=widths[0]))]
    mats = []
    for n in range(depth - 1):
        n_rows, n_cols = widths[n + 1], widths[n]
        top = draw(st.integers(0, min(n_rows, n_cols)) | st.just(min(n_rows, n_cols)))
        rows = [[1 if k == j else 0 for k in range(n_cols)] for j in range(top)]
        for _ in range(top, n_rows):
            rows.append(draw(st.lists(st.integers(0, 2), min_size=n_cols, max_size=n_cols)))
        for j in range(n_rows):
            if not any(rows[j]):
                rows[j][j % n_cols] = 1
        for k in range(n_cols):
            if not any(rows[j][k] for j in range(n_rows)):
                rows[k % n_rows][k] = 1
        mats.append(rows)
        image = [sum(a * b for a, b in zip(row, levels[-1])) for row in rows]
        if not unital:
            extra = draw(st.lists(st.sampled_from([0, 0, 0, 1]), min_size=n_rows, max_size=n_rows))
            image = [a + b for a, b in zip(image, extra)]
        levels.append(image)
    return BratteliPrefix(levels, mats, unital=unital)


def triangular_with_zeros(rng: random.Random) -> BratteliPrefix:
    """A triangular embedding of depth 1-14 whose multiplicity vectors hold
    zeros, the shape of the benchmark's `zeros` family."""
    depth = rng.randrange(1, 15)
    p_zero = rng.choice([0.1, 0.3, 0.5])
    mvectors = []
    for n in range(depth):
        m = [0 if rng.random() < p_zero else rng.randrange(1, 3) for _ in range(n + 1)]
        if not any(m):
            m[rng.randrange(n + 1)] = 1
        mvectors.append(tuple(m))
    return embed_triangular(TriangularSpec(rng.randrange(1, 3), mvectors), depth)


def shift_after_identity(width: int) -> BratteliPrefix:
    """Three levels of width `width`: an identity matrix, then a cyclic
    shift, non-unital.  The strict check fails at matrix 0 with every
    stable count 1..width in reach."""
    identity = [[1 if k == j else 0 for k in range(width)] for j in range(width)]
    shift = [[1 if k == (j + 1) % width else 0 for k in range(width)] for j in range(width)]
    return BratteliPrefix([[1] * width] * 3, [identity, shift], unital=False)


class TestStrictAgainstBruteForce:
    def check_against_oracles(self, prefix, ji):
        result = (check_rfd_ji if ji else check_rfd)(prefix)
        expected = brute_strict(prefix, ji)
        if expected[0] == "fail":
            assert not result.consistent
            assert result.level == expected[1]
            assert result.reason == reference_reason(prefix, ji)
        else:
            assert result.consistent
            assert (result.witness.r, result.witness.kseq) == expected[1:]
            assert validate_witness(prefix, result.witness, ji=ji)

    @settings(max_examples=300, deadline=None)
    @given(general_prefixes(), st.booleans())
    def test_matches_brute_force(self, prefix, ji):
        assert prefix.validate().ok
        self.check_against_oracles(prefix, ji)

    def test_triangular_zeros_match_brute_force(self):
        rng = random.Random(20171)
        for _ in range(150):
            prefix = triangular_with_zeros(rng)
            for ji in (False, True):
                self.check_against_oracles(prefix, ji)

    @pytest.mark.parametrize(
        "checker, reason",
        [
            (
                check_rfd,
                "zero column in A^(2,2): column 59 has no edge into a new stable line"
                " (matrix 0)",
            ),
            (
                check_rfd_ji,
                "zero entry in positivity block: zero entry in block A^(2,1) at row 59,"
                " column 0 (matrix 0)",
            ),
        ],
        ids=["check_rfd", "check_rfd_ji"],
    )
    def test_failing_level_scans_each_matrix_once(self, checker, reason, monkeypatch):
        # Every stable count 1..60 is in reach of the failing matrix; its
        # reason is read from the bounds, with no second search under JI.
        calls = []
        original = rfd._matrix_bounds

        def counting(prefix, i):
            calls.append(i)
            return original(prefix, i)

        monkeypatch.setattr(rfd, "_matrix_bounds", counting)
        result = checker(shift_after_identity(60))
        assert not result.consistent and result.level == 0
        assert result.reason == reason
        assert sorted(calls) == [0, 1]


@st.composite
def perm_prefixes(draw):
    """Valid general-shape prefixes, depth 2-6 and widths 1-6, whose unit
    rows e_v sit at random rows and columns, so that perm mode has to
    reorder; in some matrices no column has two unit rows and the other
    rows are positive, so that RFD-JI verdicts of both kinds occur."""
    depth = draw(st.integers(2, 6))
    widths = [draw(st.integers(1, 6))]
    for _ in range(depth - 1):
        widths.append(min(6, max(1, widths[-1] + draw(st.sampled_from([-1, 0, 1, 1, 2])))))
    unital = draw(st.booleans())
    levels = [draw(st.lists(st.integers(1, 3), min_size=widths[0], max_size=widths[0]))]
    mats = []
    for n in range(depth - 1):
        n_rows, n_cols = widths[n + 1], widths[n]
        low = draw(st.integers(0, 1))
        share = draw(st.integers(1, 3))  # out of 4 rows, on average, are unit rows
        # Either any column per unit row, or each column at most once.
        pool = draw(st.none() | st.permutations(range(n_cols)))
        rows = []
        for _ in range(n_rows):
            if draw(st.integers(0, 3)) < share and pool != []:
                v = draw(st.integers(0, n_cols - 1)) if pool is None else pool.pop()
                rows.append([1 if k == v else 0 for k in range(n_cols)])
            else:
                rows.append(draw(st.lists(st.integers(low, 2), min_size=n_cols, max_size=n_cols)))
        for j in range(n_rows):
            if not any(rows[j]):
                rows[j][j % n_cols] = 1
        for k in range(n_cols):
            if not any(rows[j][k] for j in range(n_rows)):
                rows[draw(st.integers(0, n_rows - 1))][k] = 1
        mats.append(rows)
        image = [sum(a * b for a, b in zip(row, levels[-1])) for row in rows]
        if not unital:
            extra = draw(st.lists(st.sampled_from([0, 0, 0, 1]), min_size=n_rows, max_size=n_rows))
            image = [a + b for a, b in zip(image, extra)]
        levels.append(image)
    return BratteliPrefix(levels, mats, unital=unital)


class TestPermAgainstExhaustiveSearch:
    @settings(max_examples=300, deadline=None)
    @given(perm_prefixes(), st.booleans())
    def test_matches_exhaustive_search(self, prefix, ji):
        assert prefix.validate().ok
        result = (check_rfd_ji if ji else check_rfd)(prefix, mode="perm")
        # verdict, level, reason, r, kseq, permutations and blocks at once
        assert result == reference_perm_check(prefix, ji)
        if result.consistent:
            assert validate_witness(prefix, result.witness, ji=ji)
