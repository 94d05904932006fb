"""Tests for the backtracking multiway join (the reference oracle)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.families import (
    chain_query,
    simple_join_query,
    star_query,
    triangle_query,
)
from repro.core.query import Atom, ConjunctiveQuery
from repro.data.database import Database
from repro.data.generators import matching_database, uniform_database
from repro.data.relation import Relation
from tests.reference.multiway_join import (
    evaluate,
    evaluate_on_fragments,
    join_order,
)


def brute_force(query, fragments, n):
    """Reference evaluator: enumerate all assignments over [n]^k."""
    variables = query.variables
    out = set()
    for values in itertools.product(range(n), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        ok = True
        for atom in query.atoms:
            t = tuple(assignment[v] for v in atom.variables)
            if t not in fragments.get(atom.relation, set()):
                ok = False
                break
        if ok:
            out.add(values)
    return out


class TestKnownInstances:
    def test_triangle(self):
        q = triangle_query()
        edges = {(0, 1), (1, 2), (2, 0), (0, 3)}
        fragments = {"S1": edges, "S2": edges, "S3": edges}
        result = evaluate_on_fragments(q, fragments)
        assert result == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}

    def test_chain(self):
        q = chain_query(2)
        fragments = {"S1": {(0, 1), (2, 3)}, "S2": {(1, 5), (1, 6)}}
        result = evaluate_on_fragments(q, fragments)
        assert result == {(0, 1, 5), (0, 1, 6)}

    def test_star(self):
        q = star_query(2)
        fragments = {"S1": {(7, 1), (8, 1)}, "S2": {(7, 2)}}
        result = evaluate_on_fragments(q, fragments)
        assert result == {(7, 1, 2)}

    def test_simple_join(self):
        q = simple_join_query()  # S1(x,z), S2(y,z)
        fragments = {"S1": {(1, 9)}, "S2": {(2, 9), (3, 9)}}
        result = evaluate_on_fragments(q, fragments)
        # Head order is first-occurrence: (x, z, y).
        assert q.variables == ("x", "z", "y")
        assert result == {(1, 9, 2), (1, 9, 3)}

    def test_cartesian_product(self):
        q = ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("y",))))
        fragments = {"R": {(1,), (2,)}, "S": {(5,)}}
        result = evaluate_on_fragments(q, fragments)
        assert result == {(1, 5), (2, 5)}

    def test_empty_relation_gives_empty_answer(self):
        q = chain_query(2)
        assert evaluate_on_fragments(q, {"S1": set(), "S2": {(1, 2)}}) == set()

    def test_missing_relation_treated_as_empty(self):
        q = chain_query(2)
        assert evaluate_on_fragments(q, {"S1": {(1, 2)}}) == set()

    def test_repeated_variable_atom(self):
        # Contraction can produce S(x, x): only diagonal tuples survive.
        q = ConjunctiveQuery((Atom("S", ("x", "x")),))
        fragments = {"S": {(1, 1), (1, 2), (3, 3)}}
        assert evaluate_on_fragments(q, fragments) == {(1,), (3,)}

    def test_no_atoms_yields_empty_tuple(self):
        q = ConjunctiveQuery(())
        assert evaluate_on_fragments(q, {}) == {()}


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "query",
        [
            triangle_query(),
            chain_query(3),
            star_query(3),
            simple_join_query(),
        ],
        ids=lambda q: q.name,
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_uniform_instances(self, query, seed):
        n = 5
        db = uniform_database(query, m=8, n=n, seed=seed)
        fragments = {r: set(db[r].tuples) for r in query.relation_names}
        assert evaluate(query, db) == brute_force(query, fragments, n)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_matching_instances_chain(self, seed):
        q = chain_query(3)
        db = matching_database(q, m=6, n=8, seed=seed)
        fragments = {r: set(db[r].tuples) for r in q.relation_names}
        assert evaluate(q, db) == brute_force(q, fragments, 8)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_uniform_instances_triangle(self, seed):
        q = triangle_query()
        db = uniform_database(q, m=10, n=4, seed=seed)
        fragments = {r: set(db[r].tuples) for r in q.relation_names}
        assert evaluate(q, db) == brute_force(q, fragments, 4)


class TestOrders:
    def test_join_order_is_permutation(self):
        for q in (triangle_query(), chain_query(5), star_query(4)):
            order = join_order(q)
            assert sorted(order) == sorted(q.variables)

    def test_custom_order_same_result(self):
        q = chain_query(3)
        db = matching_database(q, m=5, n=10, seed=3)
        base = evaluate(q, db)
        for order in itertools.permutations(q.variables):
            assert evaluate(q, db, order=order) == base

    def test_invalid_order_rejected(self):
        q = chain_query(2)
        db = matching_database(q, m=2, n=5, seed=0)
        with pytest.raises(ValueError, match="permutation"):
            evaluate(q, db, order=("x0",))


class TestValidation:
    def test_isolated_variables_rejected(self):
        q = ConjunctiveQuery(
            (Atom("S", ("x",)),), isolated_variables=frozenset({"w"})
        )
        with pytest.raises(ValueError, match="isolated"):
            evaluate_on_fragments(q, {"S": {(1,)}})

    def test_database_schema_checked(self):
        q = chain_query(1)
        db = Database([Relation("S1", 1, [(1,)])], 10)
        with pytest.raises(ValueError, match="arity"):
            evaluate(q, db)
