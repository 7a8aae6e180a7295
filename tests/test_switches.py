"""Tests for SwitchUniverse and SwitchSet (repro.core.switches)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.switches import SwitchSet, SwitchUniverse, _anonymous_universe

U = SwitchUniverse(["a", "b", "c", "d"])


class TestSwitchUniverse:
    def test_size_and_names(self):
        assert U.size == 4
        assert U.names == ("a", "b", "c", "d")

    def test_of_size(self):
        u = SwitchUniverse.of_size(3, prefix="s")
        assert u.names == ("s0", "s1", "s2")

    def test_of_size_shares_one_instance_per_width(self):
        assert SwitchUniverse.of_size(48) is SwitchUniverse.of_size(48)
        assert SwitchUniverse.of_size(48) is not SwitchUniverse.of_size(48, "y")
        assert SwitchUniverse.of_size(48) == SwitchUniverse(
            [f"x{i}" for i in range(48)]
        )
        info = _anonymous_universe.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_of_size_on_subclass_builds_fresh_instances(self):
        class Named(SwitchUniverse):
            __slots__ = ()

        u = Named.of_size(5)
        assert type(u) is Named and u is not Named.of_size(5)
        assert u == SwitchUniverse.of_size(5)

    def test_full_mask(self):
        assert U.full_mask == 0b1111

    def test_index(self):
        assert U.index("c") == 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            U.index("z")

    def test_contains(self):
        assert "a" in U and "z" not in U

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SwitchUniverse(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SwitchUniverse([])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            SwitchUniverse([""])

    def test_equality_by_names(self):
        assert SwitchUniverse(["a", "b"]) == SwitchUniverse(["a", "b"])
        assert SwitchUniverse(["a", "b"]) != SwitchUniverse(["b", "a"])

    def test_names_from_mask(self):
        assert U.names_from_mask(0b0101) == ("a", "c")


class TestSwitchSetBasics:
    def test_construction_from_names(self):
        s = U.set(["a", "c"])
        assert s.mask == 0b0101
        assert len(s) == 2

    def test_iteration_sorted_by_bit(self):
        assert list(U.set(["c", "a"])) == ["a", "c"]

    def test_contains(self):
        s = U.set(["b"])
        assert "b" in s and "a" not in s and "zz" not in s

    def test_bool(self):
        assert U.set(["a"])
        assert not U.empty_set()

    def test_mask_range_validation(self):
        with pytest.raises(ValueError):
            SwitchSet(U, 1 << 10)
        with pytest.raises(ValueError):
            SwitchSet(U, -1)

    def test_full_and_empty(self):
        assert len(U.full_set()) == 4
        assert len(U.empty_set()) == 0


# Strategy: subsets of U as masks.
subsets = st.integers(min_value=0, max_value=U.full_mask)


class TestSwitchSetAlgebra:
    @given(subsets, subsets)
    def test_matches_python_sets(self, m1, m2):
        s1, s2 = U.from_mask(m1), U.from_mask(m2)
        p1, p2 = set(s1), set(s2)
        assert set(s1 | s2) == p1 | p2
        assert set(s1 & s2) == p1 & p2
        assert set(s1 - s2) == p1 - p2
        assert set(s1 ^ s2) == p1 ^ p2

    @given(subsets, subsets)
    def test_subset_relation(self, m1, m2):
        s1, s2 = U.from_mask(m1), U.from_mask(m2)
        assert s1.issubset(s2) == set(s1).issubset(set(s2))
        assert (s1 <= s2) == s1.issubset(s2)

    @given(subsets, subsets)
    def test_satisfies_is_superset(self, m1, m2):
        h, c = U.from_mask(m1), U.from_mask(m2)
        assert h.satisfies(c) == c.issubset(h)

    @given(subsets)
    def test_strict_subset_irreflexive(self, m):
        s = U.from_mask(m)
        assert not (s < s)

    def test_cross_universe_rejected(self):
        other = SwitchUniverse(["x", "y", "z", "w"])
        with pytest.raises(ValueError):
            U.set(["a"]) | other.set(["x"])

    def test_hash_consistency(self):
        assert hash(U.set(["a"])) == hash(U.from_mask(1))
        assert U.set(["a"]) == U.from_mask(1)

    def test_repr_small(self):
        assert "a" in repr(U.set(["a"]))
