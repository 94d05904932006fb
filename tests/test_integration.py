"""Cross-module integration and property tests.

End-to-end checks tying the subsystems together: random queries run
through the HyperCube algorithm and the plan executor against the
sequential ground truth; the probability lemmas checked by Monte Carlo;
the full pipeline exercised exactly as a downstream user would.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.one_round import lower_bound, upper_bound
from repro.bounds.probability import output_concentration_bound
from repro.core.families import chain_query, triangle_query
from repro.core.friedgut import expected_output_size
from repro.core.stats import Statistics
from repro.data.generators import matching_database, uniform_database
from repro.hypercube.algorithm import run_hypercube
from repro.hypercube.baselines import run_broadcast_join, run_single_server
from repro.join.multiway import evaluate
from repro.multiround.executor import run_plan
from repro.multiround.plans import generic_plan
from tests.conftest import random_queries


def bounded_uniform_db(query, m, n, seed):
    """Uniform database with per-relation sizes clamped to n^arity."""
    sizes = {
        atom.relation: min(m, n**atom.arity) for atom in query.atoms
    }
    return uniform_database(query, sizes, n, seed=seed)


class TestRandomQueryPipelines:
    @given(
        random_queries(max_variables=4, max_atoms=4, connected_only=True),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_hypercube_matches_sequential(self, query, seed):
        db = bounded_uniform_db(query, m=20, n=8, seed=seed)
        result = run_hypercube(query, db, p=8, seed=seed)
        assert result.answers == evaluate(query, db)

    @given(
        random_queries(max_variables=4, max_atoms=4, connected_only=True),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_generic_plan_matches_sequential(self, query, seed):
        db = bounded_uniform_db(query, m=15, n=7, seed=seed)
        plan = generic_plan(query)
        result = run_plan(plan, db, p=8, seed=seed)
        assert result.answers == evaluate(query, db)

    @given(
        random_queries(max_variables=4, max_atoms=4, connected_only=True),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_baselines_match_sequential(self, query, seed):
        db = bounded_uniform_db(query, m=12, n=6, seed=seed)
        truth = evaluate(query, db)
        assert run_single_server(query, db, p=4).answers == truth
        assert run_broadcast_join(query, db, p=4).answers == truth

    @given(random_queries(max_variables=4, max_atoms=4))
    @settings(max_examples=20, deadline=None)
    def test_bounds_sandwich_all_queries(self, query):
        stats = Statistics.uniform(query, 2**16, domain_size=2**20)
        lo = lower_bound(query, stats, 16)
        hi = upper_bound(query, stats, 16)
        if lo > 0:
            assert hi == pytest.approx(lo, rel=1e-5)


class TestLoadOrdering:
    """The textbook ordering: single server >= broadcast >= HyperCube."""

    @pytest.mark.parametrize(
        "query", [triangle_query(), chain_query(3)], ids=lambda q: q.name
    )
    def test_hypercube_never_worse_than_single_server(self, query):
        db = matching_database(query, m=400, n=2**13, seed=3)
        p = 16
        single = run_single_server(query, db, p)
        hypercube = run_hypercube(query, db, p, seed=3)
        assert hypercube.max_load_bits < single.max_load_bits

    def test_broadcast_between_for_small_relation(self):
        query = triangle_query()
        db = matching_database(
            query, {"S1": 10, "S2": 500, "S3": 500}, n=2**12, seed=4
        )
        p = 16
        single = run_single_server(query, db, p)
        broadcast = run_broadcast_join(query, db, p, partition_relation="S2")
        assert broadcast.max_load_bits < single.max_load_bits


class TestLemmaB1MonteCarlo:
    def test_output_concentration_on_matchings(self):
        # Lemma B.1: P(|q(I)| > mu/3) >= (2/3)^2 mu/(mu+1) over random
        # matchings.  L2 with m = n has mu = n.
        query = chain_query(2)
        n = m = 16
        stats = Statistics.uniform(query, m, domain_size=n)
        mu = expected_output_size(stats)
        rng = random.Random(5)
        trials, hits = 300, 0
        for _ in range(trials):
            db = matching_database(query, m=m, n=n, seed=rng.randrange(10**9))
            if len(evaluate(query, db)) > mu / 3:
                hits += 1
        empirical = hits / trials
        bound = output_concentration_bound(mu, 1 / 3)
        assert empirical >= bound - 0.1

    def test_bound_is_not_vacuous_here(self):
        query = chain_query(2)
        stats = Statistics.uniform(query, 16, domain_size=16)
        mu = expected_output_size(stats)
        assert output_concentration_bound(mu, 1 / 3) > 0.4


class TestUserJourney:
    """The README quickstart, as a test."""

    def test_quickstart_flow(self):
        from repro import (
            matching_database as mdb,
            run_hypercube as rhc,
            triangle_query as tq,
        )
        from repro.bounds import lower_bound as lb, upper_bound as ub
        from repro.join import evaluate as ev

        q = tq()
        db = mdb(q, m=500, n=2**14, seed=0)
        stats = db.statistics(q)
        result = rhc(q, db, p=64)
        assert result.answers == ev(q, db)
        assert result.details["shares"] == {"x1": 4, "x2": 4, "x3": 4}
        assert lb(q, stats, 64) == pytest.approx(ub(q, stats, 64), rel=1e-6)

    def test_version_exported(self):
        import repro

        assert repro.__version__ == "2.0.0"
