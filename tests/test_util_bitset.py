"""Unit and property tests for repro.util.bitset."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.packed import masks_to_u64, u64_to_mask
from repro.util.bitset import (
    bit_count,
    bit_indices,
    mask_of,
    popcount_u64,
    random_mask,
    symmetric_difference_size,
)


class TestBitCount:
    def test_zero(self):
        assert bit_count(0) == 0

    def test_small_values(self):
        assert bit_count(0b1011) == 3

    def test_large_value(self):
        assert bit_count((1 << 200) | 1) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_count(-1)


class TestMaskOf:
    def test_empty(self):
        assert mask_of([]) == 0

    def test_examples(self):
        assert mask_of([0, 3]) == 0b1001

    def test_duplicates_idempotent(self):
        assert mask_of([2, 2, 2]) == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask_of([-1])


class TestBitIndices:
    def test_roundtrip_example(self):
        assert list(bit_indices(0b101001)) == [0, 3, 5]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(bit_indices(-5))

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_roundtrip_property(self, mask):
        assert mask_of(bit_indices(mask)) == mask

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_count_matches(self, mask):
        assert len(list(bit_indices(mask))) == bit_count(mask)


class TestSymmetricDifference:
    def test_disjoint(self):
        assert symmetric_difference_size(0b1100, 0b0011) == 4

    def test_identical(self):
        assert symmetric_difference_size(0b1010, 0b1010) == 0

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_symmetry(self, a, b):
        assert symmetric_difference_size(a, b) == symmetric_difference_size(b, a)

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_triangle_inequality(self, a, b, c):
        assert symmetric_difference_size(a, c) <= (
            symmetric_difference_size(a, b) + symmetric_difference_size(b, c)
        )


class TestPopcountU64:
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=50))
    def test_matches_python_popcount(self, values):
        arr = masks_to_u64(values)
        got = popcount_u64(arr)
        expected = [v.bit_count() for v in values]
        assert got.tolist() == expected

    def test_shape_preserved(self):
        arr = np.arange(12, dtype=np.uint64).reshape(3, 4)
        assert popcount_u64(arr).shape == (3, 4)

    def test_all_ones_lane(self):
        assert int(popcount_u64(np.uint64(2**64 - 1))) == 64


class TestMaskLaneConversion:
    def test_roundtrip(self):
        values = [0, 1, 2**63, 2**64 - 1]
        arr = masks_to_u64(values)
        assert [u64_to_mask(v) for v in arr] == values

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            masks_to_u64([1 << 64])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            masks_to_u64([-1])


class TestRandomMask:
    def test_density_bounds(self):
        rng = np.random.default_rng(0)
        assert random_mask(rng, 10, 0.0) == 0
        assert random_mask(rng, 10, 1.0) == (1 << 10) - 1

    def test_within_universe(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert random_mask(rng, 16, 0.5) < (1 << 16)

    def test_invalid_density(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_mask(rng, 4, 1.5)

    def test_deterministic_for_seed(self):
        a = random_mask(np.random.default_rng(7), 32, 0.4)
        b = random_mask(np.random.default_rng(7), 32, 0.4)
        assert a == b
