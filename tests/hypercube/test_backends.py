"""Kernel equivalence: the array kernel must be bit-identical.

The property the acceptance criteria demand: for randomized queries and
databases under a fixed seed, the HyperCube core on the array kernel
produces exactly the same answers, the same per-server loads (bits and
tuples), and the same :class:`LoadReport` bit totals as the
tuple-at-a-time oracle (``tests/reference/tuple_kernel.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session

from repro.config import ExecutionSettings
from repro.core.families import chain_query, star_query, triangle_query
from repro.core.query import Atom, ConjunctiveQuery
from repro.data.database import Database
from repro.data.generators import (
    matching_database,
    planted_heavy_hitter_database,
    uniform_database,
    zipf_database,
)
from repro.data.relation import Relation
from repro.hypercube.algorithm import hypercube_core
from repro.run import dispatch_run

from tests.conftest import random_queries
from tests.reference.multiway_join import evaluate
from tests.reference.tuple_kernel import kernel


def run_on(kernel_name, query, db, p, seed, hash_method):
    with kernel(kernel_name):
        return dispatch_run(
            hypercube_core, query, db, p, seed=seed,
            settings=ExecutionSettings(hash_method=hash_method),
        )


def assert_kernels_identical(query, db, p, seed=0, hash_method="splitmix64"):
    tuples, arrays = (
        run_on(name, query, db, p, seed, hash_method)
        for name in ("tuples", "numpy")
    )
    assert arrays.answers == tuples.answers
    assert arrays.details["shares"] == tuples.details["shares"]
    assert arrays.report.num_rounds == tuples.report.num_rounds
    for round_a, round_t in zip(arrays.report.rounds, tuples.report.rounds):
        assert round_a.bits == round_t.bits
        assert round_a.tuples == round_t.tuples
    assert arrays.report.total_bits == tuples.report.total_bits
    assert arrays.report.max_load_bits == tuples.report.max_load_bits
    return tuples, arrays


class TestPropertyEquivalence:
    @given(query=random_queries(), seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=30, deadline=None)
    def test_randomized_queries_and_databases(self, query, seed):
        n = 8
        sizes = {a.relation: min(25, n**a.arity) for a in query.atoms}
        db = uniform_database(query, m=sizes, n=n, seed=seed)
        tuples, _ = assert_kernels_identical(query, db, p=8, seed=seed)
        assert tuples.answers == evaluate(query, db)

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=10, deadline=None)
    def test_triangle_uniform(self, seed):
        query = triangle_query()
        db = uniform_database(query, m=60, n=25, seed=seed)
        tuples, _ = assert_kernels_identical(query, db, p=8, seed=seed)
        assert tuples.answers == evaluate(query, db)


class TestKnownWorkloads:
    @pytest.mark.parametrize("p", [4, 8, 27])
    def test_matching_chain(self, p):
        query = chain_query(3)
        db = matching_database(query, m=40, n=200, seed=11)
        assert_kernels_identical(query, db, p, seed=5)

    def test_star_zipf(self):
        query = star_query(3)
        db = zipf_database(query, m=80, n=50, skew=1.2, seed=3)
        assert_kernels_identical(query, db, p=16, seed=3)

    def test_planted_skew(self):
        query = ConjunctiveQuery(
            (Atom("S1", ("x", "z")), Atom("S2", ("y", "z"))), name="J"
        )
        db = planted_heavy_hitter_database(query, 50, 500, "z", 1.0, 3, seed=7)
        assert_kernels_identical(query, db, p=8, seed=1)

    def test_capacity_drop_identical_truncation(self):
        # Both kernels route in canonical order, so a binding capacity
        # cap with on_overflow="drop" discards the same tuples: not
        # just equal loads, equal *answers*.
        query = ConjunctiveQuery(
            (Atom("S1", ("x", "z")), Atom("S2", ("y", "z"))), name="J"
        )
        db = planted_heavy_hitter_database(query, 200, 2000, "z", 1.0, 5, seed=1)
        results = []
        for name in ("tuples", "numpy"):
            with kernel(name):
                results.append(Session(
                    p=16, seed=3, capacity_bits=333.3, on_overflow="drop",
                ).run(query, db, "hypercube", exponents={"z": 1.0}))
        assert results[0].report.dropped_bits > 0
        assert results[0].report.dropped_bits == results[1].report.dropped_bits
        for round_t, round_a in zip(
            results[0].report.rounds, results[1].report.rounds
        ):
            assert round_t.bits == round_a.bits
        assert results[0].answers == results[1].answers

    def test_blake2b_flag_cross_check(self):
        # The legacy hash stays available behind the flag and the
        # kernels agree under it too.
        query = triangle_query()
        db = uniform_database(query, m=50, n=20, seed=9)
        assert_kernels_identical(query, db, p=8, seed=9, hash_method="blake2b")

    def test_hash_methods_place_differently(self):
        # Sanity: the two PRFs are genuinely different functions.
        query = triangle_query()
        db = uniform_database(query, m=60, n=30, seed=2)
        split, blake = (
            Session(p=8, seed=2, hash_method=method).run(query, db, "hypercube")
            for method in ("splitmix64", "blake2b")
        )
        assert split.answers == blake.answers == evaluate(query, db)
        assert split.report.rounds[0].bits != blake.report.rounds[0].bits

    def test_repeated_variable_atom(self):
        query = ConjunctiveQuery(
            (Atom("R", ("x", "x")), Atom("S", ("x", "y"))), name="loop"
        )
        db = Database(
            [
                Relation("R", 2, [(1, 1), (1, 2), (3, 3), (4, 5)]),
                Relation("S", 2, [(1, 5), (3, 7), (2, 9)]),
            ],
            10,
        )
        tuples, _ = assert_kernels_identical(query, db, p=6, seed=0)
        assert tuples.answers == evaluate(query, db) == {(1, 5), (3, 7)}


class TestColumnarPlumbing:
    def test_relation_array_roundtrip(self):
        rel = Relation("R", 3, [(2, 1, 0), (0, 1, 2), (2, 1, 0)])
        arr = rel.to_array()
        assert arr.shape == (2, 3)
        assert arr.tolist() == [[0, 1, 2], [2, 1, 0]]
        assert rel.to_array() is arr  # cached
        assert not arr.flags.writeable
        back = Relation.from_array("R", arr)
        assert back == rel

    def test_from_array_deduplicates(self):
        rel = Relation.from_array("R", np.array([[1, 2], [1, 2], [3, 4]]))
        assert len(rel) == 2

    def test_database_arrays(self):
        query = triangle_query()
        db = matching_database(query, m=10, n=50, seed=0)
        arrays = db.arrays(query)
        assert set(arrays) == set(query.relation_names)
        rebuilt = Database.from_arrays(arrays, db.domain_size)
        for name in arrays:
            assert rebuilt[name] == db[name]
