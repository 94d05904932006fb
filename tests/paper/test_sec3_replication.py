"""Corollary 3.19 and Example 3.20 of arXiv 1602.06236: replication rate.

For the triangle with equal sizes the replication rate must grow like
sqrt(M / L).  HyperCube at p servers has load ~ M / p^{2/3} and
replication p^{1/3} = (M / L)^{1/2}, on the bound's curve.  A query
with tau* = 1 (the star) needs replication O(1).
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.bounds.replication import (
    replication_rate_equal_sizes,
    replication_rate_lower_bound,
)
from repro.core.families import star_query, triangle_query
from repro.data.generators import matching_database


@pytest.mark.parametrize("p", (8, 27, 64, 216))
def test_triangle_replication_curve(p):
    query = triangle_query()
    db = matching_database(query, m=1_000, n=2**16, seed=29)
    stats = db.statistics(query)
    result = Session(p=p, seed=29).run(query, db, "hypercube")
    r = result.replication_rate(stats)
    load = result.max_load_bits
    # The measured load sums all three relations; the per-relation
    # curve takes L / 3 (a constant factor only).
    shape = replication_rate_equal_sizes(
        query, stats.bits("S1"), load / query.num_atoms
    )
    assert r >= replication_rate_lower_bound(query, stats, load) - 1e-9
    assert r == pytest.approx(shape, rel=0.5)


def test_star_needs_no_replication():
    query = star_query(3)
    db = matching_database(query, m=800, n=2**14, seed=31)
    result = Session(p=16, seed=31).run(query, db, "hypercube")
    assert result.replication_rate(db.statistics(query)) == pytest.approx(1.0, abs=0.05)
