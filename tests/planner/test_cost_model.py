"""Cost-model accuracy: predictions vs measured loads, per strategy.

The planner's promise is that its closed-form estimates track what the
simulator actually measures, within the constant factors the paper's
O-bounds allow.  Each test runs one strategy on a matching (skew-free)
or zipf-skewed database and checks ``measured / predicted`` stays in a
band: predictions must neither wildly undersell (band upper edge) nor
wildly oversell (band lower edge) the real load.
"""

from __future__ import annotations

import pytest

from repro.core.families import (
    chain_query,
    simple_join_query,
    star_query,
    triangle_query,
)
from repro.data.generators import matching_database, zipf_database
from repro.planner import (
    DataStatistics,
    OneRoundHyperCube,
    default_strategies,
    plan,
)
from repro.planner.cost import CostEstimate, share_candidates


def _strategy(name):
    for s in default_strategies():
        if s.name == name:
            return s
    raise KeyError(name)


def _measure(name, query, db, p, seed=0):
    """Run one strategy; return (estimate, outcome)."""
    strategy = _strategy(name)
    dstats = DataStatistics.from_database(query, db, p)
    assert strategy.applicable(query, dstats, p) is None
    estimate = strategy.estimate(query, dstats, p)
    outcome = strategy.run(query, db, p, seed=seed)
    return estimate, outcome


# Bands: measured / predicted must land in [low, high].  The paper's
# bounds are big-O with small constants; hashing noise and per-server
# summation keep real executions within a small factor of the closed
# forms.
MATCHING_BANDS = {
    "hypercube": (0.3, 2.0),
    "skew-triangle": (0.2, 2.0),
    "multiround": (0.2, 3.0),
    "broadcast": (0.5, 1.5),
    "single-server": (0.99, 1.01),
}


class TestMatchingTriangle:
    """Skew-free triangle at p=16: every applicable strategy's band."""

    @pytest.fixture(scope="class")
    def setup(self):
        q = triangle_query()
        db = matching_database(q, m=600, n=4096, seed=7)
        return q, db

    @pytest.mark.parametrize("name", sorted(MATCHING_BANDS))
    def test_prediction_band(self, setup, name):
        q, db = setup
        estimate, outcome = _measure(name, q, db, p=16)
        assert isinstance(estimate, CostEstimate)
        assert estimate.load_bits > 0
        ratio = outcome.max_load_bits / estimate.load_bits
        low, high = MATCHING_BANDS[name]
        assert low <= ratio <= high, (
            f"{name}: measured {outcome.max_load_bits:.0f} vs predicted "
            f"{estimate.load_bits:.0f} (ratio {ratio:.2f})"
        )


class TestMatchingStar:
    def test_star_strategy_band(self):
        q = star_query(2)
        db = matching_database(q, m=800, n=4096, seed=3)
        estimate, outcome = _measure("skew-star", q, db, p=16)
        ratio = outcome.max_load_bits / estimate.load_bits
        assert 0.3 <= ratio <= 2.0

    def test_hash_join_band(self):
        # On a matching the hash-on-z vector is the cheapest candidate,
        # so HyperCube's estimate prices exactly the pinned hash join.
        q = simple_join_query()
        db = matching_database(q, m=800, n=4096, seed=4)
        dstats = DataStatistics.from_database(q, db, 16)
        hashed = dict(share_candidates(q, dstats, 16))["hash on z"]
        _, shares, estimate = OneRoundHyperCube().best_shares(q, dstats, 16)
        assert shares == hashed
        outcome = _strategy("hypercube").run(q, db, 16, exponents={"z": 1.0})
        assert outcome.details["shares"] == hashed
        ratio = outcome.max_load_bits / estimate.load_bits
        assert 0.3 <= ratio <= 2.0


class TestMatchingChain:
    def test_multiround_band(self):
        q = chain_query(4)
        db = matching_database(q, m=800, n=4096, seed=5)
        estimate, outcome = _measure("multiround", q, db, p=16)
        assert estimate.rounds >= 2
        assert outcome.report.num_rounds == estimate.rounds
        ratio = outcome.max_load_bits / estimate.load_bits
        assert 0.2 <= ratio <= 3.0


class TestZipfSkew:
    """Skewed inputs: the skew-aware formulas stay predictive and the
    frequency-corrected HyperCube estimate stops underselling."""

    @pytest.fixture(scope="class")
    def star_setup(self):
        q = star_query(2)
        db = zipf_database(q, m=2000, n=2000, skew=1.0, seed=2)
        return q, db

    def test_star_prediction_band(self, star_setup):
        q, db = star_setup
        estimate, outcome = _measure("skew-star", q, db, p=16)
        ratio = outcome.max_load_bits / estimate.load_bits
        assert 0.3 <= ratio <= 2.0

    def test_hypercube_prediction_band(self, star_setup):
        q, db = star_setup
        estimate, outcome = _measure("hypercube", q, db, p=16)
        ratio = outcome.max_load_bits / estimate.load_bits
        assert 0.4 <= ratio <= 2.0

    def test_triangle_prediction_band(self):
        q = triangle_query()
        db = zipf_database(q, m=800, n=800, skew=1.0, seed=9)
        estimate, outcome = _measure("skew-triangle", q, db, p=8)
        ratio = outcome.max_load_bits / estimate.load_bits
        assert 0.2 <= ratio <= 2.0


class TestStatsOnlyBounds:
    """The max-form statistics-only bounds track their exact database
    counterparts.  Frequencies below the hitter threshold are invisible
    to the statistics, so the stats form may sit at or below the exact
    form -- never above it."""

    def test_star_stats_bound_matches_database_bound(self):
        from repro.skew.heavy_hitters import HitterStatistics
        from repro.skew.star import (
            star_center,
            star_skew_load_bound,
            star_skew_load_bound_from_stats,
        )

        q = star_query(2)
        db = zipf_database(q, m=2000, n=2000, skew=1.0, seed=2)
        hitters = HitterStatistics.from_database(q, db, star_center(q), 1.0, 16)
        from_stats = star_skew_load_bound_from_stats(
            q, db.statistics(q), hitters, 16
        )
        assert from_stats == pytest.approx(star_skew_load_bound(q, db, 16))

    def test_triangle_stats_bound_lower_bounds_database_bound(self):
        from repro.skew.heavy_hitters import HitterStatistics
        from repro.skew.triangle import (
            triangle_skew_load_bound,
            triangle_skew_load_bound_from_stats,
        )

        q = triangle_query()
        db = zipf_database(q, m=800, n=800, skew=1.0, seed=9)
        hitters = {
            v: HitterStatistics.from_database(q, db, v, 1.0, 8)
            for v in q.variables
        }
        exact = triangle_skew_load_bound(db, 8)
        from_stats = triangle_skew_load_bound_from_stats(
            db.statistics(q), hitters, 8
        )
        assert 0 < from_stats <= exact * (1 + 1e-9)


class TestEstimateStructure:
    def test_rounds_and_servers(self):
        q = triangle_query()
        db = matching_database(q, m=300, n=2048, seed=0)
        explained = plan(q, db, 16)
        for candidate in explained.ranked:
            est = candidate.estimate
            assert est.rounds >= 1
            assert est.servers >= 16 or candidate.name == "single-server"

    def test_sort_key_orders_by_load_first(self):
        a = CostEstimate(10.0, 5, 100)
        b = CostEstimate(20.0, 1, 1)
        assert a.sort_key() < b.sort_key()
