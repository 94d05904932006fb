"""Tests for the Relation data type."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.relation import Relation, relation_from_pairs


def rel(tuples, name="R", arity=2):
    return Relation(name, arity, tuples)


class TestConstruction:
    def test_deduplicates(self):
        r = rel([(1, 2), (1, 2), (3, 4)])
        assert len(r) == 2

    def test_arities_checked(self):
        with pytest.raises(ValueError):
            Relation("R", 2, [(1, 2, 3)])
        with pytest.raises(ValueError):
            Relation("R", 0, [])

    def test_container_protocol(self):
        r = rel([(1, 2)])
        assert (1, 2) in r
        assert (2, 1) not in r
        assert list(r) == [(1, 2)]

    def test_equality_and_hash(self):
        a = rel([(1, 2), (3, 4)])
        b = rel([(3, 4), (1, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != rel([(1, 2)])

    def test_from_array_rejects_uint64_above_int64_max(self):
        """2**64 - 1 used to wrap to -1 instead of raising."""
        rows = np.array([[2**64 - 1, 1]], dtype=np.uint64)
        with pytest.raises(ValueError, match="int64 maximum"):
            Relation.from_array("R", rows)

    def test_from_array_keeps_uint64_that_fit(self):
        top = np.iinfo(np.int64).max
        r = Relation.from_array("R", np.array([[top, 1], [5, 2]], dtype=np.uint64))
        assert r.to_array().tolist() == [[5, 2], [top, 1]]
        assert r.to_array().dtype == np.int64

    def test_from_array_rejects_floats(self):
        with pytest.raises(TypeError, match="integer"):
            Relation.from_array("R", np.array([[1.5, 2.0]]))

    def test_sorted_tuples_deterministic(self):
        # The canonical array lists the tuples in sorted order.
        r = rel([(3, 4), (1, 2), (1, 1)])
        assert r.to_array().tolist() == [[1, 1], [1, 2], [3, 4]]


class TestDegrees:
    def test_degree_single_position(self):
        r = rel([(1, 2), (1, 3), (2, 3)])
        assert r.degree((0,), (1,)) == 2
        assert r.degree((0,), (9,)) == 0

    def test_degree_pair(self):
        r = rel([(1, 2), (1, 3)])
        assert r.degree((0, 1), (1, 2)) == 1

    def test_degrees_histogram(self):
        r = rel([(1, 2), (1, 3), (2, 3)])
        assert dict(r.degrees((1,))) == {(2,): 1, (3,): 2}

    def test_max_degree(self):
        r = rel([(1, 2), (1, 3), (2, 3)])
        assert r.max_degree((0,)) == 2
        assert rel([]).max_degree((0,)) == 0

    def test_heavy_hitters(self):
        r = rel([(1, 2), (1, 3), (1, 4), (2, 5)])
        assert r.heavy_hitters(0, 3) == {1: 3}
        assert r.heavy_hitters(0, 4) == {}

    def test_position_bounds_checked(self):
        r = rel([(1, 2)])
        with pytest.raises(IndexError):
            r.degree((5,), (1,))
        with pytest.raises(IndexError):
            r.key_counts((0, 2))


class TestInvariants:
    def test_matching_detection(self):
        assert rel([(1, 2), (3, 4)]).is_matching()
        assert not rel([(1, 2), (1, 4)]).is_matching()
        assert not rel([(1, 2), (3, 2)]).is_matching()

    def test_from_pairs(self):
        r = relation_from_pairs("E", [(0, 1)])
        assert r.arity == 2 and len(r) == 1
