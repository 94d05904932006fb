"""Theorem 3.15 of arXiv 1602.06236: L_lower = L_upper.

The HyperCube load of LP (10) equals the packing-polytope lower bound
for every query and every statistics vector.  Checked on a grid of
queries, sizes and p, and on random statistics.
"""

from __future__ import annotations

import random

import pytest

from repro.bounds.one_round import equivalence_gap, lower_bound, upper_bound
from repro.core.families import (
    binom_query,
    chain_query,
    cycle_query,
    simple_join_query,
    spk_query,
    star_query,
    triangle_query,
)
from repro.core.stats import Statistics

QUERIES = [
    triangle_query(),
    chain_query(3),
    chain_query(5),
    star_query(3),
    cycle_query(4),
    cycle_query(5),
    binom_query(4, 2),
    spk_query(2),
    simple_join_query(),
]


@pytest.mark.parametrize("query", QUERIES, ids=[q.name for q in QUERIES])
def test_bounds_meet_on_equal_sizes(query):
    stats = Statistics.uniform(query, 2**18, domain_size=2**20)
    for p in (4, 64, 1024):
        lo = lower_bound(query, stats, p)
        hi = upper_bound(query, stats, p)
        assert abs(hi / lo - 1.0) < 1e-6, p


def test_bounds_meet_on_random_statistics():
    rng = random.Random(99)
    for _ in range(40):
        query = rng.choice(QUERIES)
        p = rng.choice([4, 16, 256])
        sizes = {r: rng.randint(2**10, 2**22) for r in query.relation_names}
        stats = Statistics(query, sizes, domain_size=2**24)
        gap = abs(equivalence_gap(query, stats, p) - 1.0)
        assert gap < 1e-5, (query.name, sizes, p)
