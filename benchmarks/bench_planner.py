"""P1 -- the cost-based planner: pick quality, accuracy, and latency.

Three angles on the new planner subsystem, forming the start of its
perf trajectory (run with ``--benchmark-json`` in CI and keep the
artifacts):

* **pick quality** -- across skew-free and skewed scenarios the
  planner's pick is never worse than 1.5x the best measured strategy
  (it may *beat* the nominal best via tie-breaks);
* **accuracy** -- the winner's predicted load is within a small factor
  of its measured load (the EXPLAIN table's promise);
* **latency** -- ``plan()`` is pure closed-form arithmetic and must
  stay in the low-millisecond range even for the 6-atom ``K4`` query
  (pytest-benchmark timings; this is the number to track over PRs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.families import (
    chain_query,
    k4_query,
    star_query,
    triangle_query,
)
from repro.core.stats import Statistics
from repro.data.generators import matching_database, zipf_database
from repro.join import evaluate_arrays
from repro import Session
from repro.planner import DataStatistics, plan


SCENARIOS = {
    "triangle/matching": (
        triangle_query(),
        lambda q: matching_database(q, m=1000, n=2**14, seed=0,
                                    backend="numpy"),
        64,
    ),
    "star2/zipf1.0": (
        star_query(2),
        lambda q: zipf_database(q, m=2000, n=2000, skew=1.0, seed=2),
        16,
    ),
    "chain4/matching": (
        chain_query(4),
        lambda q: matching_database(q, m=1000, n=2**14, seed=1,
                                    backend="numpy"),
        64,
    ),
}


def test_planner_pick_quality(report_table):
    """The planner's pick is (near-)best measured, and its prediction
    tracks the measured load of the chosen strategy."""
    lines = [
        f"{'scenario':<20} {'winner':<14} {'pred L':>10} {'meas L':>10} "
        f"{'meas/pred':>9} {'best meas':>10}"
    ]
    for label, (query, make_db, p) in SCENARIOS.items():
        db = make_db(query)
        truth = evaluate_arrays(query, db.arrays(query))
        explained = plan(query, db, p)
        picked = Session(p=p, seed=0).run(query, db)
        assert np.array_equal(picked.answers_array(), truth)

        # Run every other applicable one-round-cheap candidate to find
        # the best measured load (cap the field to keep the bench fast).
        measured = {picked.strategy: picked.max_load_bits}
        for candidate in explained.ranked[:4]:
            if candidate.name in measured:
                continue
            outcome = candidate.strategy.run(query, db, p, seed=0)
            assert np.array_equal(outcome.answers_array(), truth)
            measured[candidate.name] = outcome.max_load_bits
        best = min(measured.values())
        assert picked.max_load_bits <= 1.5 * best, (
            f"{label}: planner picked {picked.strategy} at "
            f"{picked.max_load_bits:.0f} bits, best measured {best:.0f}"
        )
        ratio = picked.max_load_bits / picked.predicted_bits
        assert 0.2 <= ratio <= 3.0
        lines.append(
            f"{label:<20} {picked.strategy:<14} "
            f"{picked.predicted_bits:>10.0f} "
            f"{picked.max_load_bits:>10.0f} {ratio:>9.2f} {best:>10.0f}"
        )
    report_table("P1a: planner pick quality (predicted vs measured)", lines)


@pytest.mark.parametrize(
    "query",
    [triangle_query(), star_query(3), chain_query(5), k4_query()],
    ids=["C3", "T3", "L5", "K4"],
)
def test_plan_latency(benchmark, query):
    """plan() latency from bare Statistics (pure cost-model time)."""
    stats = Statistics.uniform(query, m=100_000, domain_size=2**20)
    explained = benchmark(plan, query, stats, 64)
    assert explained.winner.applicable


def test_plan_latency_with_hitters(benchmark):
    """plan() latency including hitter statistics on a skewed star."""
    query = star_query(2)
    db = zipf_database(query, m=2000, n=2000, skew=1.0, seed=2)
    dstats = DataStatistics.from_database(query, db, 16)
    explained = benchmark(plan, query, dstats, 16)
    assert explained.winner.name == "skew-star"
