"""Cross-module integration and property tests.

End-to-end checks tying the subsystems together: random queries run
through the HyperCube algorithm and the plan executor against the
sequential ground truth; the probability lemmas checked by Monte Carlo;
the full pipeline exercised exactly as a downstream user would.
"""

from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.bounds.one_round import lower_bound, upper_bound
from repro.config import ExecutionSettings
from repro.bounds.probability import output_concentration_bound
from repro.core.families import chain_query, triangle_query
from repro.core.friedgut import expected_output_size
from repro.core.stats import Statistics
from repro.data.generators import matching_database, uniform_database
from repro.multiround.plans import generic_plan
from repro.hypercube.algorithm import hypercube_core
from repro.hypercube.baselines import broadcast_core, single_server_core
from repro.multiround.executor import multiround_core
from repro.run import dispatch_run
from tests.conftest import random_queries
from tests.reference.multiway_join import evaluate

#: Hot hypothesis loops run the executor cores directly: a session
#: would collect statistics and rank every strategy per example.
ENGINE = ExecutionSettings()


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
        result = dispatch_run(hypercube_core, query, db, 8, seed=seed, settings=ENGINE)
        assert result.answers == evaluate(query, db)

    @given(
        random_queries(max_variables=4, max_atoms=4, connected_only=True),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_generic_plan_matches_sequential(self, query, seed):
        db = bounded_uniform_db(query, m=15, n=7, seed=seed)
        plan = generic_plan(query)
        result = dispatch_run(
            multiround_core, query, db, 8, seed=seed, settings=ENGINE, plan=plan
        )
        assert result.answers == evaluate(query, db)

    @given(
        random_queries(max_variables=4, max_atoms=4, connected_only=True),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_baselines_match_sequential(self, query, seed):
        db = bounded_uniform_db(query, m=12, n=6, seed=seed)
        truth = evaluate(query, db)
        for core in (single_server_core, broadcast_core):
            result = dispatch_run(core, query, db, 4, seed=0, settings=ENGINE)
            assert result.answers == truth

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
        with Session(p=p, seed=3) as session:
            single = session.run(query, db, "single-server")
            hypercube = session.run(query, db, "hypercube")
        assert hypercube.max_load_bits < single.max_load_bits

    def test_broadcast_between_for_small_relation(self):
        query = triangle_query()
        db = matching_database(
            query, {"S1": 10, "S2": 500, "S3": 500}, n=2**12, seed=4
        )
        p = 16
        single = Session(p=p).run(query, db, "single-server")
        broadcast = dispatch_run(
            broadcast_core, query, db, p, seed=0, settings=ENGINE,
            partition_relation="S2",
        )
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
            Session as S,
            matching_database as mdb,
            triangle_query as tq,
        )
        from repro.bounds import lower_bound as lb, upper_bound as ub
        from repro.join import evaluate_arrays as ev

        q = tq()
        db = mdb(q, m=500, n=2**14, seed=0)
        stats = db.statistics(q)
        result = S(p=64).run(q, db, "hypercube")
        assert result.answers == evaluate(q, db)
        assert np.array_equal(result.answers_array(), ev(q, db.arrays(q)))
        assert result.details["shares"] == {"x1": 4, "x2": 4, "x3": 4}
        assert lb(q, stats, 64) == pytest.approx(ub(q, stats, 64), rel=1e-6)

    def test_version_exported(self):
        import repro

        assert repro.__version__ == "16.0.0"

    def test_public_names_resolve_and_free_runners_are_gone(self):
        import importlib

        modules = [
            importlib.import_module(name)
            for name in (
                "repro", "repro.hypercube", "repro.skew",
                "repro.multiround", "repro.planner",
            )
        ]
        for module in modules:
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
        # Session.run / run_many are the only public run verbs: no free
        # run_* function or planner execute() is left in the modules
        # that used to hold one.
        runner = re.compile(r"run_\w+|execute(_\w+)?")
        for name in (
            "hypercube.algorithm", "hypercube.baselines", "skew.star",
            "skew.triangle", "multiround.executor",
            "planner.engine",
        ):
            modules.append(importlib.import_module(f"repro.{name}"))
        for module in modules:
            leftovers = sorted(n for n in vars(module) if runner.fullmatch(n))
            assert leftovers == [], module.__name__
        from repro.session import Session

        assert not hasattr(Session, "_planner_run")
        assert len(modules[0].__all__) == 39
