"""The columnar frequency scan against a tuple-at-a-time oracle.

``Relation.key_counts`` (``repro.data.arrays.column_counts``) is the
only frequency scan in the package; the per-tuple implementations it
replaced live on here as the reference.  Every statistic is compared
for tuple-born, array-born and chunked inputs, and every key and count
handed back must be a plain Python ``int`` (they are pickled,
JSON-traced and compared with ``==``).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.families import simple_join_query
from repro.data.arrays import column_counts
from repro.data.database import Database
from repro.data.relation import Relation
from repro.skew.heavy_hitters import variable_frequencies
from repro.storage.chunked import ChunkedRelation


# ------------------------------------------------------------------ oracle

def ref_degrees(tuples, positions) -> Counter:
    return Counter(tuple(t[p] for p in positions) for t in tuples)


def ref_degree(tuples, positions, values) -> int:
    return sum(
        1 for t in tuples if all(t[p] == v for p, v in zip(positions, values))
    )


def ref_max_degree(tuples, positions) -> int:
    return max(ref_degrees(tuples, positions).values(), default=0)


def ref_heavy_hitters(tuples, position, threshold) -> dict[int, int]:
    return {
        key[0]: count
        for key, count in ref_degrees(tuples, (position,)).items()
        if count >= threshold
    }


def ref_is_matching(tuples, arity) -> bool:
    return all(ref_max_degree(tuples, (p,)) <= 1 for p in range(arity))


# -------------------------------------------------------------- strategies

@st.composite
def relation_cases(draw):
    """``(arity, distinct tuples, positions, chunk_rows)``.

    Small domains force repeated values; ``positions`` may repeat a
    column or be a single one.
    """
    arity = draw(st.integers(1, 3))
    domain = draw(st.integers(1, 6))
    tuples = draw(
        st.sets(
            st.tuples(*[st.integers(0, domain - 1)] * arity), max_size=40
        )
    )
    positions = tuple(
        draw(st.lists(st.integers(0, arity - 1), min_size=1, max_size=3))
    )
    chunk_rows = draw(st.integers(1, 12))
    return arity, sorted(tuples), positions, chunk_rows


def encodings(arity, tuples, chunk_rows):
    """The same tuple set as tuple-born, array-born and chunked relations."""
    array = np.array(tuples, dtype=np.int64).reshape(len(tuples), arity)
    return {
        "tuples": Relation("R", arity, tuples),
        "array": Relation.from_array("R", array),
        "chunked": ChunkedRelation.from_array("R", array, chunk_rows=chunk_rows),
    }


def assert_plain_ints(values):
    assert all(type(v) is int for v in values)


# ------------------------------------------------------------------- tests

class TestAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(relation_cases())
    def test_degrees(self, case):
        arity, tuples, positions, chunk_rows = case
        expected = ref_degrees(tuples, positions)
        for kind, relation in encodings(arity, tuples, chunk_rows).items():
            got = relation.degrees(positions)
            assert isinstance(got, Counter), kind
            assert got == expected, kind
            assert_plain_ints(got.values())
            for key in got:
                assert type(key) is tuple
                assert_plain_ints(key)
            assert relation.max_degree(positions) == ref_max_degree(
                tuples, positions
            ), kind
            assert type(relation.max_degree(positions)) is int

    @settings(max_examples=120, deadline=None)
    @given(relation_cases(), st.data())
    def test_degree(self, case, data):
        arity, tuples, positions, chunk_rows = case
        values = tuple(
            data.draw(st.integers(-1, 6)) for _ in positions
        )
        expected = ref_degree(tuples, positions, values)
        for kind, relation in encodings(arity, tuples, chunk_rows).items():
            got = relation.degree(positions, values)
            assert got == expected, kind
            assert type(got) is int

    @settings(max_examples=120, deadline=None)
    @given(relation_cases(), st.data())
    def test_heavy_hitters(self, case, data):
        arity, tuples, positions, chunk_rows = case
        position = positions[0]
        counts = sorted(set(ref_degrees(tuples, (position,)).values()))
        # Thresholds exactly at, just below and just above real counts.
        threshold = data.draw(
            st.sampled_from(
                [c + d for c in counts or [1] for d in (-0.5, 0, 0.5)]
            )
        )
        expected = ref_heavy_hitters(tuples, position, threshold)
        for kind, relation in encodings(arity, tuples, chunk_rows).items():
            got = relation.heavy_hitters(position, threshold)
            assert got == expected, kind
            assert_plain_ints(got)
            assert_plain_ints(got.values())

    @settings(max_examples=120, deadline=None)
    @given(relation_cases(), st.data())
    def test_degrees_of(self, case, data):
        arity, tuples, positions, chunk_rows = case
        position = positions[0]
        wanted = data.draw(st.lists(st.integers(-1, 7), max_size=6))
        expected = [ref_degree(tuples, (position,), (v,)) for v in wanted]
        for kind, relation in encodings(arity, tuples, chunk_rows).items():
            got = relation.degrees_of(position, wanted)
            assert got == expected, kind
            assert_plain_ints(got)

    @settings(max_examples=120, deadline=None)
    @given(relation_cases())
    def test_is_matching(self, case):
        arity, tuples, _positions, chunk_rows = case
        expected = ref_is_matching(tuples, arity)
        for kind, relation in encodings(arity, tuples, chunk_rows).items():
            assert relation.is_matching() is expected, kind

    @settings(max_examples=60, deadline=None)
    @given(relation_cases())
    def test_chunked_spool_counts_duplicate_rows(self, case):
        # The spool form trusts the writer on distinctness, so the scan
        # counts rows, not distinct tuples.
        arity, tuples, positions, chunk_rows = case
        doubled = tuples + tuples[::-1]
        spool = ChunkedRelation("R", arity, chunk_rows=chunk_rows)
        spool.append(np.array(doubled, dtype=np.int64).reshape(-1, arity))
        assert spool.degrees(positions) == ref_degrees(doubled, positions)


class TestEdges:
    @pytest.mark.parametrize("kind", ["tuples", "array", "chunked"])
    def test_empty_relation(self, kind):
        relation = encodings(2, [], 4)[kind]
        assert relation.degrees((0,)) == Counter()
        assert relation.degrees((0, 1)) == Counter()
        assert relation.degree((1,), (3,)) == 0
        assert relation.max_degree((0,)) == 0
        assert relation.heavy_hitters(0, 1) == {}
        assert relation.degrees_of(0, [1, 2]) == [0, 0]
        assert relation.is_matching()

    @pytest.mark.parametrize("kind", ["tuples", "array", "chunked"])
    def test_arity_one(self, kind):
        relation = encodings(1, [(4,), (2,), (9,)], 2)[kind]
        assert relation.degrees((0,)) == {(2,): 1, (4,): 1, (9,): 1}
        assert relation.degrees((0, 0)) == {(2, 2): 1, (4, 4): 1, (9, 9): 1}
        assert relation.degree((0, 0), (4, 2)) == 0
        assert relation.is_matching()

    @pytest.mark.parametrize("kind", ["tuples", "array", "chunked"])
    def test_empty_key_matches_every_row(self, kind):
        relation = encodings(2, [(1, 2), (1, 3), (2, 3)], 2)[kind]
        assert relation.degrees(()) == {(): 3}
        assert relation.degree((), ()) == 3
        assert encodings(2, [], 2)[kind].degrees(()) == Counter()

    @pytest.mark.parametrize("kind", ["tuples", "array", "chunked"])
    @pytest.mark.parametrize("position", [-1, 2, 5])
    def test_out_of_range_positions(self, kind, position):
        relation = encodings(2, [(1, 2), (3, 4)], 1)[kind]
        with pytest.raises(IndexError):
            relation.degrees((position,))
        with pytest.raises(IndexError):
            relation.degree((0, position), (1, 2))
        with pytest.raises(IndexError):
            relation.max_degree((position,))
        with pytest.raises(IndexError):
            relation.heavy_hitters(position, 1)
        with pytest.raises(IndexError):
            relation.degrees_of(position, [1])

    def test_degree_needs_one_value_per_position(self):
        with pytest.raises(ValueError):
            Relation("R", 2, [(1, 2)]).degree((0, 1), (1,))

    def test_threshold_exactly_equal_to_a_count(self):
        relation = Relation("R", 2, [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)])
        assert relation.heavy_hitters(0, 3) == {1: 3}
        assert relation.heavy_hitters(0, 2) == {1: 3, 2: 2}
        assert relation.heavy_hitters(0, 3.0000001) == {}

    def test_weighted_scan_merges_partial_scans(self):
        rows = np.array([[3, 1], [1, 1], [3, 1], [1, 2], [3, 2]])
        keys, counts = column_counts(rows, (0,), weights=np.array([5, 1, 2, 4, 1]))
        assert keys.tolist() == [[1], [3]]
        assert counts.tolist() == [5, 8]


class TestVariableFrequencies:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=25),
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=25),
        st.integers(1, 7),
    )
    def test_max_over_atoms(self, left, right, chunk_rows):
        query = simple_join_query()  # S1(x, z), S2(y, z)
        expected: dict[int, int] = {}
        for tuples in (left, right):
            for (value,), count in ref_degrees(tuples, (1,)).items():
                expected[value] = max(expected.get(value, 0), count)
        in_memory = Database(
            [Relation("S1", 2, left), Relation("S2", 2, right)], 6
        )
        chunked = Database(
            [
                ChunkedRelation.from_relation(r, chunk_rows=chunk_rows)
                for r in in_memory
            ],
            6,
        )
        for database in (in_memory, chunked):
            got = variable_frequencies(query, database, "z")
            assert got == expected
            assert_plain_ints(got)
            assert_plain_ints(got.values())
