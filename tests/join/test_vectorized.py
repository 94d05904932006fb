"""Tests for the library's one local join, ``evaluate_arrays``.

Every engine's computation phase and every CLI self-check runs
:func:`repro.join.evaluate_arrays`, so it is checked here against the
backtracking oracle (``tests/reference/multiway_join.py``), which
shares no code with it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.families import chain_query, simple_join_query, triangle_query
from repro.core.query import Atom, ConjunctiveQuery, UnsupportedQueryError
from repro.join import evaluate_arrays
from repro.join.vectorized import evaluate_arrays as evaluate_arrays_by_path
from tests.conftest import random_queries
from tests.reference.multiway_join import evaluate_on_fragments


def as_rows(tuples, arity: int) -> np.ndarray:
    return np.array(list(tuples), dtype=np.int64).reshape(len(tuples), arity)


def check_output_contract(query: ConjunctiveQuery, answers: np.ndarray) -> None:
    """int64, one column per head variable, sorted distinct rows."""
    assert answers.dtype == np.int64
    assert answers.ndim == 2 and answers.shape[1] == query.num_variables
    rows = [tuple(row) for row in answers.tolist()]
    assert rows == sorted(set(rows))


@st.composite
def instances(draw):
    """A random query with one small fragment per atom.

    Each fragment is empty, a single row, or up to 12 rows (duplicates
    allowed) over a domain of at most 4 values.
    """
    query = draw(random_queries(max_variables=5, max_atoms=5))
    domain = draw(st.integers(min_value=1, max_value=4))
    fragments = {}
    for atom in query.atoms:
        size = draw(st.sampled_from(("empty", "one", "any")))
        row = st.tuples(*[st.integers(0, domain - 1)] * atom.arity)
        if size == "empty":
            rows = []
        elif size == "one":
            rows = [draw(row)]
        else:
            rows = draw(st.lists(row, max_size=12))
        fragments[atom.relation] = rows
    return query, fragments


class TestAgainstBacktrackingJoin:
    @given(instances())
    @settings(max_examples=300, deadline=None)
    def test_random_queries(self, instance):
        query, fragments = instance
        expected = evaluate_on_fragments(
            query, {name: set(rows) for name, rows in fragments.items()}
        )
        arrays = {
            atom.relation: as_rows(fragments[atom.relation], atom.arity)
            for atom in query.atoms
        }
        answers = evaluate_arrays(query, arrays)
        check_output_contract(query, answers)
        assert answers.tolist() == [list(t) for t in sorted(expected)]

    @pytest.mark.parametrize(
        "query", [triangle_query(), chain_query(3), simple_join_query()],
        ids=lambda q: q.name,
    )
    def test_missing_relation_is_empty(self, query):
        first = query.atoms[0]
        arrays = {first.relation: as_rows([(1,) * first.arity], first.arity)}
        answers = evaluate_arrays(query, arrays)
        assert answers.shape == (0, query.num_variables)
        assert evaluate_on_fragments(
            query, {first.relation: {(1,) * first.arity}}
        ) == set()


class TestExplicitCases:
    def test_repeated_variable_atom(self):
        q = ConjunctiveQuery((Atom("S", ("x", "x")),))
        answers = evaluate_arrays(q, {"S": as_rows([(1, 1), (1, 2), (3, 3)], 2)})
        assert answers.tolist() == [[1], [3]]

    def test_repeated_variable_joined(self):
        q = ConjunctiveQuery((Atom("S", ("x", "x")), Atom("R", ("x", "y"))))
        arrays = {
            "S": as_rows([(1, 1), (2, 3), (4, 4)], 2),
            "R": as_rows([(1, 7), (2, 8), (4, 9), (4, 5)], 2),
        }
        assert evaluate_arrays(q, arrays).tolist() == [[1, 7], [4, 5], [4, 9]]

    def test_disconnected_query_is_a_cross_product(self):
        q = ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("y",))))
        arrays = {"R": as_rows([(2,), (1,)], 1), "S": as_rows([(5,)], 1)}
        assert evaluate_arrays(q, arrays).tolist() == [[1, 5], [2, 5]]

    def test_isolated_variable_rejected(self):
        q = ConjunctiveQuery(
            (Atom("S", ("x",)),), isolated_variables=frozenset({"w"})
        )
        with pytest.raises(UnsupportedQueryError, match="isolated"):
            evaluate_arrays(q, {"S": as_rows([(1,)], 1)})


class TestOutputContract:
    def test_empty_answer_has_head_width(self):
        q = chain_query(2)
        arrays = {"S1": as_rows([(0, 1)], 2), "S2": as_rows([(5, 6)], 2)}
        answers = evaluate_arrays(q, arrays)
        assert answers.shape == (0, 3)
        assert answers.dtype == np.int64

    def test_empty_input_has_head_width(self):
        q = triangle_query()
        answers = evaluate_arrays(q, {})
        assert answers.shape == (0, 3)
        assert answers.dtype == np.int64

    def test_rows_sorted_unique_in_head_order(self):
        q = simple_join_query()  # S1(x, z), S2(y, z): head (x, z, y)
        assert q.variables == ("x", "z", "y")
        arrays = {
            "S1": as_rows([(3, 9), (1, 9), (1, 9)], 2),
            "S2": as_rows([(2, 9), (0, 9), (7, 8)], 2),
        }
        answers = evaluate_arrays(q, arrays)
        assert answers.tolist() == [[1, 9, 0], [1, 9, 2], [3, 9, 0], [3, 9, 2]]
        check_output_contract(q, answers)

    def test_narrow_input_dtype_widened(self):
        q = chain_query(1)
        answers = evaluate_arrays(q, {"S1": np.array([[2, 1], [0, 3]], np.int32)})
        assert answers.dtype == np.int64
        assert answers.tolist() == [[0, 3], [2, 1]]

    def test_no_atoms_yields_one_empty_row(self):
        answers = evaluate_arrays(ConjunctiveQuery(()), {})
        assert answers.shape == (1, 0)
        assert evaluate_on_fragments(ConjunctiveQuery(()), {}) == {()}

    def test_package_exports_the_one_join(self):
        import repro.join

        assert repro.join.__all__ == ["evaluate_arrays", "join_arrays"]
        assert evaluate_arrays_by_path is evaluate_arrays
