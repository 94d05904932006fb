"""Tests for instance-level contraction (Lemma 5.12's construction)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.families import chain_query, cycle_query
from repro.data.generators import matching_database
from repro.multiround.contraction import (
    apply_permutation,
    contract_instance,
    contraction_identity_holds,
    contraction_permutation,
)
from repro.multiround.good_sets import contract_to_survivors
from tests.reference.multiway_join import evaluate, evaluate_on_fragments


class TestPermutation:
    def test_identity_outside_contracted_component(self):
        q = chain_query(3)
        db = matching_database(q, m=10, n=20, seed=1)
        mapping = contraction_permutation(q, db, ["S2"])
        # x0 is not in S2's component closure via S2 alone.
        assert mapping.apply_value("x0", 5) == 5

    def test_maps_component_values_to_representative(self):
        q = chain_query(2)
        db = matching_database(q, m=8, n=16, seed=2)
        mapping = contraction_permutation(q, db, ["S1"])
        # For every S1 tuple (a, b): sigma maps both endpoints to the
        # representative (x0's value).
        for a, b in db["S1"]:
            assert mapping.apply_value("x0", a) == mapping.apply_value("x1", b)

    def test_rejects_nonzero_characteristic(self):
        q = cycle_query(3)
        db = matching_database(q, m=5, n=15, seed=3)
        with pytest.raises(ValueError, match="characteristic"):
            contraction_permutation(q, db, ["S1", "S2", "S3"])

    def test_apply_permutation_preserves_sizes_on_matchings(self):
        q = chain_query(3)
        db = matching_database(q, m=12, n=12, seed=4)
        mapping = contraction_permutation(q, db, ["S2"])
        mapped = apply_permutation(q, db, mapping)
        # Permutations keep matchings matchings of the same size.
        for rel in q.relation_names:
            assert len(mapped[rel]) == len(db[rel])


class TestContractionIdentity:
    @pytest.mark.parametrize(
        "k,survivors",
        [
            (3, ["S1", "S3"]),
            (5, ["S1", "S3", "S5"]),
            (4, ["S1", "S4"]),
            (6, ["S1", "S4"]),
        ],
    )
    def test_chains(self, k, survivors):
        q = chain_query(k)
        db = matching_database(q, m=20, n=20, seed=k)
        assert contraction_identity_holds(q, db, survivors)

    @pytest.mark.parametrize("survivors", [["S1", "S3", "S5"], ["S1", "S4"]])
    def test_cycles(self, survivors):
        q = cycle_query(6)
        db = matching_database(q, m=15, n=15, seed=7)
        assert contraction_identity_holds(q, db, survivors)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_matchings(self, seed):
        q = chain_query(5)
        db = matching_database(q, m=12, n=12, seed=seed)
        assert contraction_identity_holds(q, db, ["S1", "S3", "S5"])

    def test_answer_counts_preserved_on_permutations(self):
        # chi(q|M) = chi(q): on permutation databases both queries have
        # ~n answers, and the contraction identity makes them equal.
        q = chain_query(5)
        db = matching_database(q, m=24, n=24, seed=9)
        cq, cdb, _ = contract_instance(q, db, ["S1", "S3", "S5"])
        assert len(evaluate(cq, cdb)) == len(evaluate(q, db))

    def test_contracted_schema(self):
        q = chain_query(5)
        db = matching_database(q, m=6, n=12, seed=10)
        cq, cdb, _ = contract_instance(q, db, ["S1", "S3", "S5"])
        assert cq.num_atoms == 3
        assert set(cdb.relation_names) == {"S1", "S3", "S5"}


def reference_sigma(query, database, contracted):
    """``m_sigma`` built on the backtracking join over Python tuples."""
    sigma = {}
    for component in query.subquery(list(contracted)).connected_components():
        fragments = {
            a.relation: database[a.relation].tuples for a in component.atoms
        }
        head = component.variables
        for t in evaluate_on_fragments(component, fragments):
            for variable, value in zip(head, t):
                sigma.setdefault(variable, {})[value] = t[0]
    return sigma


def rewrite(sigma, variables, tuples):
    return {
        tuple(sigma.get(v, {}).get(a, a) for v, a in zip(variables, t))
        for t in tuples
    }


@st.composite
def contractions(draw):
    """A matching chain or cycle (often a permutation) and its survivors."""
    if draw(st.booleans()):
        query = chain_query(draw(st.integers(min_value=2, max_value=6)))
    else:
        query = cycle_query(draw(st.integers(min_value=3, max_value=6)))
    names = list(query.relation_names)
    survivors = draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=len(names) - 1,
                 unique=True)
    )
    m = draw(st.integers(min_value=0, max_value=12))
    n = draw(st.sampled_from((max(m, 1), 16)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return query, matching_database(query, m=m, n=n, seed=seed), survivors


class TestAgainstTupleReference:
    @given(contractions())
    @settings(max_examples=60, deadline=None)
    def test_same_sigma_and_contracted_instance(self, case):
        query, db, survivors = case
        complement = [r for r in query.relation_names if r not in survivors]
        sigma = reference_sigma(query, db, complement)

        assert contraction_permutation(query, db, complement).sigma == sigma
        cq, cdb, mapping = contract_instance(query, db, survivors)
        assert mapping.sigma == sigma
        assert cq == contract_to_survivors(query, survivors)
        assert set(cdb.relation_names) == set(survivors)
        contracted = {}
        for atom in cq.atoms:
            original = query.atom(atom.relation).variables
            contracted[atom.relation] = rewrite(sigma, original, db[atom.relation])
            assert cdb[atom.relation].arity == atom.arity
            assert cdb[atom.relation].tuples == contracted[atom.relation]
        permuted = apply_permutation(query, db, mapping)
        for atom in query.atoms:
            assert permuted[atom.relation].tuples == rewrite(
                sigma, atom.variables, db[atom.relation]
            )

        # The identity check agrees with the tuple form of Lemma 5.12's
        # identity, and holds on permutations (m = n).
        head = query.variables
        positions = [head.index(v) for v in cq.variables]
        mapped = rewrite(sigma, head, evaluate(query, db))
        identity = evaluate_on_fragments(cq, contracted) == {
            tuple(t[i] for i in positions) for t in mapped
        }
        assert contraction_identity_holds(query, db, survivors) == identity
        if len(db[query.atoms[0].relation]) == db.domain_size:
            assert identity
