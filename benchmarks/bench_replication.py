"""E7 -- Corollary 3.19 / Example 3.20: the replication-rate tradeoff.

For the triangle query with equal sizes the replication rate must grow
like sqrt(M/L).  The HyperCube algorithm at p servers has load
~ M/p^{2/3} and replication p^{1/3} = (M/L)^{1/2} -- sitting exactly on
the bound's curve.  We measure both sides.
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


def test_triangle_replication_curve(report_table):
    query = triangle_query()
    m = 1_000
    db = matching_database(query, m=m, n=2**16, seed=29)
    stats = db.statistics(query)
    lines = [
        f"{'p':>5} {'measured r':>10} {'measured L':>12} "
        f"{'shape sqrt(M/L)':>16} {'Cor 3.19 bound':>15}"
    ]
    for p in (8, 27, 64, 216):
        result = Session(p=p, seed=29).run(query, db, "hypercube")
        r = result.replication_rate(stats)
        load = result.max_load_bits
        # The measured load sums all three relations; the per-relation
        # tradeoff curve uses L/3 (constants only).
        shape = replication_rate_equal_sizes(
            query, stats.bits("S1"), load / query.num_atoms
        )
        bound = replication_rate_lower_bound(query, stats, load)
        # Measured replication respects the lower bound...
        assert r >= bound - 1e-9
        # ...and sits within a constant of the sqrt(M/L) shape.
        assert r == pytest.approx(shape, rel=0.5)
        lines.append(
            f"{p:>5} {r:>10.2f} {load:>12.0f} {shape:>16.2f} {bound:>15.3f}"
        )
    report_table(
        "Example 3.20: triangle replication rate r ~ sqrt(M/L)", lines
    )


def test_star_needs_no_replication(report_table):
    # tau* = 1: r = O(1) is possible (hash on z replicates nothing).
    query = star_query(3)
    db = matching_database(query, m=800, n=2**14, seed=31)
    stats = db.statistics(query)
    result = Session(p=16, seed=31).run(query, db, "hypercube")
    r = result.replication_rate(stats)
    assert r == pytest.approx(1.0, abs=0.05)
    report_table(
        "Replication for T3 (tau* = 1)",
        [f"measured replication rate at p=16: {r:.3f} (paper: O(1))"],
    )


def test_benchmark_replication_bound(benchmark):
    query = triangle_query()
    stats_db = matching_database(query, m=500, n=2**13, seed=1)
    stats = stats_db.statistics(query)
    load = stats.bits("S1") / 4
    benchmark(replication_rate_lower_bound, query, stats, load)
