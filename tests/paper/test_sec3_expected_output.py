"""Lemma 3.6, Friedgut's inequality (Eq. 7) and the AGM bound of
arXiv 1602.06236, empirically.

* Lemma 3.6: over random matchings, E[|q(I)|] = n^{k-a} prod_j m_j;
  a Monte-Carlo mean lands within 20 % of it.
* AGM: no output is larger than min over covers of prod_j m_j^{u_j}.
* Friedgut: the inequality holds for random weights on the triangle
  with the cover (1/2, 1/2, 1/2).
"""

from __future__ import annotations

import random

import pytest

from repro.core.families import chain_query, simple_join_query, triangle_query
from repro.core.friedgut import (
    agm_bound,
    expected_output_size,
    friedgut_lhs,
    friedgut_rhs,
)
from repro.core.stats import Statistics
from repro.data.generators import matching_database, uniform_database
from repro.join import evaluate_arrays


@pytest.mark.parametrize(
    "query, n, m",
    [(chain_query(2), 24, 12), (simple_join_query(), 24, 12), (chain_query(3), 16, 8)],
    ids=["L2", "join", "L3"],
)
def test_lemma_3_6_monte_carlo(query, n, m):
    formula = expected_output_size(Statistics.uniform(query, m, domain_size=n))
    trials = 400
    total = 0
    for trial in range(trials):
        db = matching_database(query, m=m, n=n, seed=trial * 7919 + 1)
        total += len(evaluate_arrays(query, db.arrays(query)))
    assert abs(total / trials - formula) / formula < 0.2


def test_agm_bound_never_violated():
    rng = random.Random(101)
    for trial in range(30):
        query = rng.choice([triangle_query(), chain_query(2), chain_query(3)])
        m = rng.randint(20, 120)
        n = rng.randint(10, 40)
        db = uniform_database(query, m=min(m, n * n), n=n, seed=trial)
        output = len(evaluate_arrays(query, db.arrays(query)))
        bound = agm_bound(query, {r: len(db[r]) for r in query.relation_names})
        assert output <= bound + 1e-9


def test_friedgut_inequality_random_weights():
    rng = random.Random(103)
    q = triangle_query()
    n = 4
    for _ in range(20):
        weights = {}
        for atom in q.atoms:
            weights[atom.relation] = {
                (a, b): rng.uniform(0, 2)
                for a in range(n)
                for b in range(n)
                if rng.random() < 0.6
            }
        lhs = friedgut_lhs(q, weights, n)
        rhs = friedgut_rhs(q, {"S1": 0.5, "S2": 0.5, "S3": 0.5}, weights)
        assert lhs <= rhs + 1e-9
