from __future__ import annotations

import itertools
import random

import pytest

from bratteli import (
    BratteliError,
    K0Element,
    TriangularSpec,
    characteristic_sequence,
    nondegeneracy_witness,
    positivity_check,
    recurrence_check,
)

from conftest import all_ones_spec


class TestRecurrenceCheck:
    def test_size_sequence_holds_from_zero(self, ones12):
        ks = characteristic_sequence(ones12, 6)
        assert recurrence_check(ones12, ks) == 0

    def test_zero_holds_from_zero(self, ones12):
        assert recurrence_check(ones12, [0] * 7) == 0

    def test_free_head_example(self, ones12):
        assert recurrence_check(ones12, [1, 0, 1, 2, 4, 8]) == 1

    def test_never(self, ones12):
        assert recurrence_check(ones12, [1, 0, 1, 2, 4, 9]) is None

    def test_length_mismatch(self):
        spec = all_ones_spec(2)
        with pytest.raises(BratteliError):
            recurrence_check(spec, [1, 1, 2, 4])

    def test_short_prefix_vacuous(self, ones12):
        assert recurrence_check(ones12, [17]) == 0


class TestPositivity:
    def test_order_unit_positive(self, ones12):
        assert positivity_check(K0Element(characteristic_sequence(ones12, 6), eventual_from=0))

    def test_negative_entry(self):
        assert not positivity_check(K0Element([1, -1, 3]))

    def test_zero(self):
        assert positivity_check(K0Element([0, 0]))


class TestNondegeneracyWitness:
    def test_low_coordinates_are_free(self, ones12):
        wits = nondegeneracy_witness(ones12, [0, 1], 5)
        assert [w.element.prefix[:2] for w in wits] == [(1, 0), (0, 1)]
        for w in wits:
            assert recurrence_check(ones12, w.element.prefix) is not None

    def test_single_high_coordinate(self, ones12):
        (w,) = nondegeneracy_witness(ones12, [3], 5)
        assert w.element.prefix[:4] == (0, 0, 0, 1)
        assert w.element.eventual_from == 3
        assert recurrence_check(ones12, w.element.prefix) == 3

    def test_projections_generate_the_lattice(self, ones12):
        # brute-force oracle: projections of small recurrence-eventually
        # sequences span the rank-2 lattice over coordinates {0, 1}
        seen = set()
        for x0, x1 in itertools.product(range(-2, 3), repeat=2):
            xs = [x0, x1]
            for n in range(1, 5):
                xs.append(sum(xs[j] for j in range(n + 1)))
            if recurrence_check(ones12, xs) is not None:
                seen.add((x0, x1))
        assert (1, 0) in seen and (0, 1) in seen
        # some pair with determinant +-1 exists
        assert any(
            a * d - b * c in (1, -1) for (a, b) in seen for (c, d) in seen
        )

    def test_depth_guard(self, ones12):
        with pytest.raises(BratteliError):
            nondegeneracy_witness(ones12, [3], 2)


class TestIntegerEntries:
    """Non-integer entries are rejected by name, never truncated."""

    @pytest.mark.parametrize("prefix, bad", [([1.5, 2.9], "1.5"), ([True, "3"], "True")])
    def test_element(self, prefix, bad):
        with pytest.raises(BratteliError, match=f"^expected an integer, got {bad}$"):
            K0Element(prefix)

    def test_recurrence_check(self, ones12):
        with pytest.raises(BratteliError, match="^expected an integer, got 1.9$"):
            recurrence_check(ones12, [1, 1.9, 2, 4.2])

    def test_positivity_check(self):
        with pytest.raises(BratteliError, match="^expected an integer, got -0.5$"):
            positivity_check([-0.5, 1])

    def test_nondegeneracy_witness(self, ones12):
        with pytest.raises(BratteliError, match="^expected an integer, got 0.7$"):
            nondegeneracy_witness(ones12, [0.7, 1.2], 4)

    @pytest.mark.parametrize("start, bad", [(True, "True"), (1.5, "1.5"), ("1", "'1'")])
    def test_eventual_from(self, start, bad):
        with pytest.raises(BratteliError, match=f"^expected an integer, got {bad}$"):
            K0Element([1, 2, 3], eventual_from=start)

    def test_eventual_from_range_still_checked(self):
        assert K0Element([1, 2, 3], eventual_from=2).eventual_from == 2
        with pytest.raises(BratteliError, match="^eventual_from outside the prefix$"):
            K0Element([1, 2, 3], eventual_from=3)

    @pytest.mark.parametrize("depth, bad", [(2.5, "2.5"), (True, "True"), ("4", "'4'")])
    def test_witness_depth(self, ones12, depth, bad):
        with pytest.raises(BratteliError, match=f"^expected an integer, got {bad}$"):
            nondegeneracy_witness(ones12, [0], depth)


class TestClosureUnderAddition:
    def test_sum_holds_from_max_of_starts(self):
        rng = random.Random(31)
        spec = TriangularSpec(1, [tuple(rng.randrange(0, 3) or 1 for _ in range(n + 1)) for n in range(8)])
        for _ in range(25):
            a_start = rng.randrange(0, 4)
            b_start = rng.randrange(0, 4)

            def build(start):
                xs = [rng.randrange(-3, 4) for _ in range(start + 1)]
                for n in range(start, 7):
                    m = spec.mvectors[n]
                    xs.append(sum(m[j] * xs[j] for j in range(n + 1)))
                return xs

            xa, xb = build(a_start), build(b_start)
            ra, rb = recurrence_check(spec, xa), recurrence_check(spec, xb)
            assert ra is not None and ra <= a_start
            assert rb is not None and rb <= b_start
            total = [p + q for p, q in zip(xa, xb)]
            rt = recurrence_check(spec, total)
            assert rt is not None and rt <= max(ra, rb)
