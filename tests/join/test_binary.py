"""Tests for the reference tuple hash join and its schema helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference.binary_join import hash_join, merge_schemas, project, reorder

pairs = st.sets(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=25
)


class TestMergeSchemas:
    def test_union_preserving_order(self):
        assert merge_schemas(("x", "y"), ("y", "z")) == ("x", "y", "z")

    def test_disjoint(self):
        assert merge_schemas(("x",), ("y",)) == ("x", "y")


class TestHashJoin:
    def test_natural_join(self):
        left = {(0, 1), (2, 3)}
        right = {(1, 9), (1, 8)}
        out, schema = hash_join(left, ("x", "y"), right, ("y", "z"))
        assert schema == ("x", "y", "z")
        assert out == {(0, 1, 9), (0, 1, 8)}

    def test_cartesian_when_disjoint(self):
        out, schema = hash_join({(1,), (2,)}, ("x",), {(9,)}, ("y",))
        assert schema == ("x", "y")
        assert out == {(1, 9), (2, 9)}

    def test_multi_variable_key(self):
        left = {(0, 1, 2)}
        right = {(1, 2, 7), (1, 3, 8)}
        out, schema = hash_join(left, ("x", "y", "z"), right, ("y", "z", "w"))
        assert schema == ("x", "y", "z", "w")
        assert out == {(0, 1, 2, 7)}

    @given(pairs, pairs)
    @settings(max_examples=50, deadline=None)
    def test_against_nested_loop(self, a, b):
        out, _ = hash_join(a, ("x", "y"), b, ("y", "z"))
        expected = {
            (x, y, z) for (x, y) in a for (y2, z) in b if y == y2
        }
        assert out == expected

    @given(pairs, pairs)
    @settings(max_examples=30, deadline=None)
    def test_join_is_commutative_up_to_reorder(self, a, b):
        out1, schema1 = hash_join(a, ("x", "y"), b, ("y", "z"))
        out2, schema2 = hash_join(b, ("y", "z"), a, ("x", "y"))
        assert reorder(out2, schema2, schema1) == out1


class TestProjectReorder:
    def test_project(self):
        assert project({(1, 2, 3)}, ("x", "y", "z"), ("z", "x")) == {(3, 1)}

    def test_project_deduplicates(self):
        assert project({(1, 2), (1, 3)}, ("x", "y"), ("x",)) == {(1,)}

    def test_reorder_roundtrip(self):
        tuples = {(1, 2), (3, 4)}
        swapped = reorder(tuples, ("x", "y"), ("y", "x"))
        assert swapped == {(2, 1), (4, 3)}
        assert reorder(swapped, ("y", "x"), ("x", "y")) == tuples

    def test_reorder_schema_mismatch(self):
        with pytest.raises(ValueError):
            reorder({(1, 2)}, ("x", "y"), ("x", "z"))
