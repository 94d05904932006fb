"""Tests for the one-round HyperCube algorithm (paper Section 3.1)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import (
    binom_query,
    chain_query,
    simple_join_query,
    star_query,
    triangle_query,
)
from repro.core.query import Atom, ConjunctiveQuery
from repro.data.database import Database
from repro.data.generators import (
    matching_database,
    planted_heavy_hitter_database,
    uniform_database,
)
from repro.data.relation import Relation
from repro.hashing.family import GridPartitioner
from repro.hypercube.algorithm import resolve_shares, route_relation_arrays
from repro.hypercube.analysis import (
    predicted_load_bits,
    predicted_load_bits_skewed,
    predicted_load_tuples,
)
from repro.join.multiway import evaluate
from repro.core.query import UnsupportedQueryError
from repro.mpc.simulator import LoadExceededError, MPCSimulation
from repro.run import dispatch_run

from tests.reference.tuple_kernel import kernel, route_relation


class TestCorrectness:
    @pytest.mark.parametrize(
        "query",
        [
            triangle_query(),
            chain_query(3),
            star_query(3),
            simple_join_query(),
            binom_query(3, 2),
        ],
        ids=lambda q: q.name,
    )
    @pytest.mark.parametrize("p", [4, 8, 27])
    def test_matches_sequential_on_matchings(self, query, p):
        db = matching_database(query, m=40, n=200, seed=11)
        result = Session(p=p, seed=5).run(query, db, "hypercube")
        assert result.answers == evaluate(query, db)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sequential_on_uniform(self, seed):
        q = triangle_query()
        db = uniform_database(q, m=60, n=25, seed=seed)
        result = Session(p=8, seed=seed).run(q, db, "hypercube")
        assert result.answers == evaluate(q, db)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_chain_random_seeds(self, seed):
        q = chain_query(2)
        db = uniform_database(q, m=30, n=12, seed=seed)
        result = dispatch_run(
            "hypercube", q, db, 6, seed=seed, settings=ExecutionSettings()
        )
        assert result.answers == evaluate(q, db)

    def test_correct_even_with_skew(self):
        # Skew hurts the load, never the correctness.
        q = simple_join_query()
        db = planted_heavy_hitter_database(q, 50, 500, "z", 1.0, 3, seed=7)
        result = Session(p=8, seed=1).run(q, db, "hypercube")
        assert result.answers == evaluate(q, db)

    def test_custom_shares_still_correct(self):
        q = triangle_query()
        db = matching_database(q, m=30, n=100, seed=3)
        result = Session(p=8).run(
            q, db, "hypercube", shares={"x1": 8, "x2": 1, "x3": 1}
        )
        assert result.answers == evaluate(q, db)

    def test_non_perfect_power_p(self):
        q = triangle_query()
        db = matching_database(q, m=30, n=100, seed=4)
        result = Session(p=10, seed=2).run(q, db, "hypercube")
        assert result.answers == evaluate(q, db)
        assert math.prod(result.details["shares"].values()) <= 10


class TestInconsistentRepeatedVariables:
    """Tuples binding a repeated variable inconsistently ship zero bits."""

    def query(self):
        return ConjunctiveQuery(
            (Atom("R", ("x", "x")), Atom("S", ("x", "y"))), name="loop"
        )

    def database(self):
        # (1, 2) and (4, 5) bind x inconsistently in R(x, x): droppable.
        return Database(
            [
                Relation("R", 2, [(1, 1), (1, 2), (3, 3), (4, 5)]),
                Relation("S", 2, [(1, 5), (3, 7)]),
            ],
            10,
        )

    def test_route_relation_drops_inconsistent_tuples(self):
        grid = GridPartitioner([3, 2])
        routed = list(
            route_relation(grid, ("x", "y"), ("x", "x"), [(1, 1), (1, 2), (4, 5)])
        )
        shipped = {t for _, t in routed}
        assert shipped == {(1, 1)}
        # The consistent tuple replicates along the unbound y axis only.
        assert len(routed) == 2

    def test_route_relation_arrays_drops_inconsistent_tuples(self):
        import numpy as np

        grid = GridPartitioner([3, 2])
        batches = list(
            route_relation_arrays(
                grid, ("x", "y"), ("x", "x"), np.array([[1, 1], [1, 2], [4, 5]])
            )
        )
        shipped = {
            tuple(row) for _, batch in batches for row in batch.tolist()
        }
        assert shipped == {(1, 1)}
        assert sum(len(batch) for _, batch in batches) == 2

    @pytest.mark.parametrize("kernel_name", ["tuples", "numpy"])
    def test_inconsistent_tuples_contribute_zero_bits(self, kernel_name):
        query, db = self.query(), self.database()
        with kernel(kernel_name):
            result = Session(p=6, seed=0).run(
                query, db, "hypercube", shares={"x": 3, "y": 2}
            )
        assert result.answers == evaluate(query, db) == {(1, 5), (3, 7)}
        # Load accounting matches Eq. 9 over *consistent* tuples only:
        # R ships its 2 consistent tuples, replicated along y's share 2;
        # S ships its 2 tuples exactly once each.  The 2 inconsistent
        # R-tuples contribute zero bits.
        bits = db.statistics(query).value_bits
        expected = (2 * 2 + 2) * 2 * bits
        assert result.report.total_bits == expected


class TestShares:
    def test_lp_shares_for_triangle(self):
        q = triangle_query()
        db = matching_database(q, m=64, n=256, seed=0)
        result = Session(p=64).run(q, db, "hypercube")
        assert result.details["shares"] == {"x1": 4, "x2": 4, "x3": 4}

    def test_star_shares_go_to_z(self):
        q = star_query(2)
        db = matching_database(q, m=64, n=256, seed=0)
        result = Session(p=16).run(q, db, "hypercube")
        assert result.details["shares"]["z"] == 16

    def test_resolve_shares_validation(self):
        q = triangle_query()
        db = matching_database(q, m=16, n=64, seed=0)
        stats = db.statistics(q)
        with pytest.raises(ValueError, match="exceeds"):
            resolve_shares(q, stats, 4, shares={"x1": 4, "x2": 2, "x3": 1})
        with pytest.raises(ValueError, match=">= 1"):
            resolve_shares(q, stats, 4, shares={"x1": 0, "x2": 1, "x3": 1})

    def test_explicit_exponents(self):
        q = simple_join_query()
        db = matching_database(q, m=16, n=64, seed=0)
        result = Session(p=16).run(q, db, "hypercube", exponents={"z": 1.0})
        assert result.details["shares"]["z"] == 16


class TestLoads:
    def test_matching_load_near_prediction(self):
        # C3 with m=1500, p=64: predicted ~ m / p^{2/3} tuples/relation.
        q = triangle_query()
        m, p = 1500, 64
        db = matching_database(q, m=m, n=2**14, seed=9)
        stats = db.statistics(q)
        result = Session(p=p, seed=9).run(q, db, "hypercube")
        predicted = predicted_load_bits(q, stats, result.details["shares"])
        # Load counts all three relations; allow constant ~ 3x plus
        # hashing fluctuation.
        assert result.max_load_bits <= 5 * predicted
        assert result.max_load_bits >= predicted  # can't beat one relation's share

    def test_skewed_load_matches_corollary_4_3(self):
        # All tuples share z: hashing on z routes them to one server.
        q = simple_join_query()
        m, p = 400, 16
        db = planted_heavy_hitter_database(q, m, 4000, "z", 1.0, 5, seed=10)
        stats = db.statistics(q)
        result = Session(p=p, seed=3).run(
            q, db, "hypercube", exponents={"z": 1.0}
        )
        skew_prediction = predicted_load_bits_skewed(q, stats, result.details["shares"])
        # Everything lands on one server: the load reaches Theta(M).
        assert result.max_load_bits >= stats.bits("S1")
        assert result.max_load_bits <= 2 * skew_prediction

    def test_predicted_load_tuples_formula(self):
        q = triangle_query()
        db = matching_database(q, m=100, n=1000, seed=0)
        stats = db.statistics(q)
        shares = {"x1": 4, "x2": 4, "x3": 1}
        # S1(x1,x2): 100/16; S2(x2,x3): 100/4; S3(x3,x1): 100/4.
        assert predicted_load_tuples(q, stats, shares) == pytest.approx(25.0)

    def test_capacity_abort(self):
        q = simple_join_query()
        db = planted_heavy_hitter_database(q, 200, 2000, "z", 1.0, 5, seed=1)
        with pytest.raises(LoadExceededError):
            Session(p=16, capacity_bits=100.0, on_overflow="fail").run(
                q, db, "hypercube", exponents={"z": 1.0}
            )

    def test_capacity_drop_loses_answers(self):
        q = simple_join_query()
        db = planted_heavy_hitter_database(q, 200, 2000, "z", 1.0, 5, seed=1)
        full = evaluate(q, db)
        result = Session(p=16, capacity_bits=500.0, on_overflow="drop").run(
            q, db, "hypercube", exponents={"z": 1.0}
        )
        assert result.report.dropped_bits > 0
        assert result.answers < full  # strict subset


class TestReplication:
    def test_triangle_replication_factor(self):
        # With shares (4,4,4), each tuple of each relation is replicated
        # 4 times: total bits = 4 * |I|.
        q = triangle_query()
        db = matching_database(q, m=200, n=2048, seed=5)
        stats = db.statistics(q)
        result = Session(p=64, seed=5).run(q, db, "hypercube")
        assert result.replication_rate(stats) == pytest.approx(4.0, rel=1e-6)


class TestUnsupportedQuery:
    """Isolated variables fail with one typed error, before round 1."""

    @pytest.mark.parametrize("pool", ["serial", "process"])
    @pytest.mark.parametrize("strategy", ["hypercube", "single-server", "broadcast"])
    def test_rejected_before_routing(self, strategy, pool, monkeypatch):
        query = ConjunctiveQuery(
            (Atom("S", ("x", "y")),), isolated_variables=frozenset({"w"})
        )
        db = Database([Relation("S", 2, [(1, 2), (3, 4)])], 10)

        def no_rounds(self):
            raise AssertionError("a round started for an unsupported query")

        monkeypatch.setattr(MPCSimulation, "begin_round", no_rounds)
        settings = ExecutionSettings(pool=pool, max_workers=2)
        with pytest.raises(UnsupportedQueryError, match="isolated"):
            dispatch_run(strategy, query, db, 4, seed=0, settings=settings)
        assert issubclass(UnsupportedQueryError, ValueError)
