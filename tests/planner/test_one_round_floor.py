"""EXPLAIN's one-round floor is LP (10)'s optimum (Theorem 3.15).

``plan()`` reads ``L_lower`` from the LP (10) solve the ``LP(10)`` share
candidate already needs, so planning never enumerates the packing
polytope pk(q): the floor must equal the vertex form
(:func:`repro.bounds.one_round.lower_bound`, the oracle here), long
queries must plan in well under a second, and a run solves LP (10) for
its query exactly once.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bounds.one_round as one_round
import repro.core.packing as packing
import repro.core.shares as shares
import repro.hypercube.algorithm as hypercube_algorithm
import repro.multiround.executor as multiround_executor
import repro.planner.cost as cost
from repro import Session
from repro.bounds.one_round import lower_bound
from repro.core.families import chain_query, cycle_query, triangle_query
from repro.core.stats import Statistics
from repro.data.generators import uniform_database
from repro.join.multiway import evaluate
from repro.planner import plan
from tests.conftest import random_queries


@given(
    query=random_queries(max_variables=4, max_atoms=4),
    sizes=st.lists(
        st.sampled_from([0, 1, 2, 37, 1000, 10**5, 10**6]),
        min_size=7,
        max_size=7,
    ),
    domain_size=st.sampled_from([1, 2, 1000, 10**6]),
    p=st.sampled_from([1, 2, 8, 27, 64, 100]),
)
@settings(max_examples=150, deadline=None)
def test_floor_equals_the_vertex_form(query, sizes, domain_size, p):
    """Up to 7 atoms, empty and one-tuple relations, p = 1 included.

    ``strategies=()`` prices nothing: the floor is solved regardless.
    """
    cardinalities = dict(zip(query.relation_names, sizes))
    stats = Statistics(query, cardinalities, domain_size)
    floor = plan(query, stats, p, strategies=()).lower_bound_bits
    assert floor == pytest.approx(lower_bound(query, stats, p), rel=1e-9, abs=0)


def test_floor_at_one_server_is_the_largest_relation():
    q = triangle_query()
    stats = Statistics(q, {"S1": 10, "S2": 300, "S3": 0}, 1024)
    assert plan(q, stats, 1).lower_bound_bits == stats.bits("S2")
    assert plan(q, stats, 0, strategies=()).lower_bound_bits == 0.0


@pytest.mark.parametrize(
    "query",
    [chain_query(16), cycle_query(12), chain_query(20)],
    ids=["L16", "C12", "L20"],
)
def test_long_queries_plan_quickly(query):
    """Vertex enumeration refused 17+ atoms and took minutes at L16."""
    started = time.perf_counter()
    explained = plan(query, Statistics.uniform(query, 10**5), 64)
    assert time.perf_counter() - started < 10.0
    one_round_price = explained.candidate("hypercube").estimate.load_bits
    assert 0 < explained.lower_bound_bits <= one_round_price


def _triangle_run():
    q = triangle_query()
    db = uniform_database(q, m=200, n=50, seed=1)
    return q, db, Session(p=8, seed=2).run(q, db)


def test_run_never_enumerates_the_packing_polytope(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("packing polytope enumerated")

    monkeypatch.setattr(packing, "packing_polytope_vertices", refuse)
    monkeypatch.setattr(one_round, "packing_polytope_vertices", refuse)
    one_round._vertices.cache_clear()
    q, db, result = _triangle_run()
    assert result.answers == evaluate(q, db)
    assert result.explained.lower_bound_bits > 0
    with pytest.raises(AssertionError, match="enumerated"):
        lower_bound(q, db.statistics(q), 8)


def test_run_solves_lp10_once_for_its_query(monkeypatch):
    solved = []
    original = shares.share_exponents

    def spy(query, stats, p):
        solved.append(query)
        return original(query, stats, p)

    for module in (shares, cost, hypercube_algorithm, multiround_executor):
        monkeypatch.setattr(module, "share_exponents", spy)
    q, _, result = _triangle_run()
    assert result.explained.lower_bound_bits > 0
    assert sum(query == q for query in solved) == 1
