"""Planner behaviour: ranking, pruning, execution, acceptance margins."""

from __future__ import annotations

import pytest

from repro import Session
from repro.core.families import (
    chain_query,
    k4_query,
    simple_join_query,
    star_query,
    triangle_query,
)
from repro.core.shares import skew_oblivious_share_exponents
from repro.core.stats import Statistics
from repro.data.generators import (
    matching_database,
    planted_heavy_hitter_database,
    zipf_database,
)
from repro.planner import (
    DataStatistics,
    OneRoundHyperCube,
    Strategy,
    default_strategies,
    plan,
    register,
)
from tests.reference.multiway_join import evaluate


class TestPlanTable:
    def test_triangle_covers_at_least_five_strategies(self):
        """Acceptance: ranked cost table >= 5 strategies for C3."""
        q = triangle_query()
        stats = Statistics.uniform(q, m=1000, domain_size=4096)
        explained = plan(q, stats, 64)
        assert len(explained.ranked) >= 5
        names = {c.name for c in explained.ranked}
        assert {"hypercube", "skew-triangle", "multiround", "broadcast",
                "single-server"} <= names

    def test_accepts_statistics_database_and_datastatistics(self):
        q = triangle_query()
        db = matching_database(q, m=200, n=1024, seed=0)
        from_stats = plan(q, db.statistics(q), 16)
        from_db = plan(q, db, 16)
        from_dstats = plan(q, DataStatistics.from_database(q, db, 16), 16)
        for explained in (from_stats, from_db, from_dstats):
            assert explained.winner.applicable
        # A matching database has no heavy hitters, so all three agree.
        assert from_db.winner.name == from_dstats.winner.name

    def test_rejects_mismatched_statistics(self):
        q = triangle_query()
        other = star_query(2)
        stats = Statistics.uniform(other, m=100, domain_size=100)
        with pytest.raises(ValueError, match="different query"):
            plan(q, stats, 16)

    def test_pruning_reasons(self):
        q = chain_query(3)
        stats = Statistics.uniform(q, m=100, domain_size=100)
        explained = plan(q, stats, 16)
        pruned = {c.name: c.reason for c in explained.pruned}
        assert "skew-star" in pruned
        assert "skew-triangle" in pruned
        for reason in pruned.values():
            assert reason
        # No variable occurs in every atom, so HyperCube has no hash-join
        # candidate: its detail prices LP (10) against LP (18) only.
        detail = explained.candidate("hypercube").estimate.detail
        assert "LP(18)" in detail and "hash on" not in detail

    def test_table_renders(self):
        q = triangle_query()
        stats = Statistics.uniform(q, m=1000, domain_size=4096)
        explained = plan(q, stats, 64)
        table = explained.table()
        assert "EXPLAIN" in table
        assert "pruned" in table
        assert "hypercube" in table
        assert str(explained) == table

    def test_ranking_is_by_predicted_load(self):
        q = triangle_query()
        stats = Statistics.uniform(q, m=1000, domain_size=4096)
        explained = plan(q, stats, 64)
        loads = [c.estimate.load_bits for c in explained.ranked]
        assert loads == sorted(loads)
        assert explained.lower_bound_bits > 0
        assert explained.winner.estimate.load_bits >= 0


class TestSkewRouting:
    """The planner switches strategy exactly when skew warrants it."""

    def test_matching_star_prefers_hypercube(self):
        q = star_query(2)
        db = matching_database(q, m=1000, n=8192, seed=1)
        explained = plan(q, db, 16)
        assert explained.winner.name == "hypercube"

    def test_skewed_star_prefers_skew_aware(self):
        q = star_query(2)
        db = zipf_database(q, m=2000, n=2000, skew=1.0, seed=2)
        explained = plan(q, db, 16)
        assert explained.winner.name == "skew-star"

    def test_threshold_crossing(self):
        """Planner flips to skew-star once a hitter crosses m/p."""
        q = star_query(2)
        p = 16
        light = planted_heavy_hitter_database(
            q, m=1600, n=8192, variable="z", hitter_fraction=0.01, seed=3
        )
        heavy = planted_heavy_hitter_database(
            q, m=1600, n=8192, variable="z", hitter_fraction=0.5, seed=3
        )
        assert plan(q, light, p).winner.name == "hypercube"
        assert plan(q, heavy, p).winner.name == "skew-star"

    def test_skewed_triangle_prefers_skew_triangle(self):
        q = triangle_query()
        db = planted_heavy_hitter_database(
            q, m=2000, n=10000, variable="x1", hitter_fraction=0.5, seed=3
        )
        explained = plan(q, db, 64)
        assert explained.winner.name == "skew-triangle"


class TestExecute:
    """Session.run: plan, run the winner (or a pinned strategy), attach."""

    @pytest.mark.parametrize(
        "query,db_seed",
        [
            (triangle_query(), 0),
            (star_query(2), 1),
            (chain_query(3), 2),
            (simple_join_query(), 3),
        ],
        ids=["triangle", "star", "chain", "join"],
    )
    def test_answers_match_sequential_join(self, query, db_seed):
        """Acceptance: Session.run is bit-identical to join.evaluate."""
        db = matching_database(query, m=300, n=2048, seed=db_seed)
        result = Session(p=16, seed=db_seed).run(query, db)
        assert result.answers == evaluate(query, db)

    def test_skewed_answers_match_sequential_join(self):
        q = star_query(2)
        db = zipf_database(q, m=1000, n=1000, skew=1.0, seed=5)
        result = Session(p=16).run(q, db)
        assert result.answers == evaluate(q, db)

    def test_execute_reuses_precomputed_statistics(self):
        q = triangle_query()
        db = matching_database(q, m=300, n=2048, seed=0)
        explained = plan(q, db, 16)
        result = Session(p=16).run(q, db, stats=explained.statistics)
        assert result.explained.statistics is explained.statistics
        assert result.answers == evaluate(q, db)

    def test_prediction_attached_to_report(self):
        q = triangle_query()
        db = matching_database(q, m=300, n=2048, seed=0)
        result = Session(p=16).run(q, db)
        report = result.report
        assert report.strategy == result.strategy
        assert report.predicted_load_bits == result.predicted_bits
        assert report.prediction_ratio() is not None
        assert "planner" in report.summary()

    def test_forced_strategy(self):
        q = triangle_query()
        db = matching_database(q, m=300, n=2048, seed=0)
        lp18 = skew_oblivious_share_exponents(q, db.statistics(q), 16)
        result = Session(p=16).run(
            q, db, strategy="hypercube", exponents=lp18.exponents
        )
        assert plan(q, db, 16).winner.name != "hypercube"
        assert result.strategy == "hypercube"
        assert result.details["shares"] == lp18.integer_shares()
        assert result.answers == evaluate(q, db)

    def test_forcing_inapplicable_strategy_raises(self):
        q = chain_query(3)
        db = matching_database(q, m=100, n=1024, seed=0)
        with pytest.raises(ValueError, match="not applicable"):
            Session(p=16).run(q, db, strategy="skew-star")

    def test_summary_renders(self):
        q = triangle_query()
        db = matching_database(q, m=300, n=2048, seed=0)
        result = Session(p=16).run(q, db)
        summary = result.summary()
        assert "EXPLAIN" in summary
        assert "executed" in summary


class TestAcceptanceMargin:
    def test_zipf_star_beats_hypercube_by_predicted_margin(self):
        """Acceptance: on a zipf-skewed star join the planner's pick
        beats vanilla HyperCube's measured max-load by the margin its
        own cost model predicted, within 2x.
        """
        q = star_query(2)
        p = 16
        db = zipf_database(q, m=2000, n=2000, skew=1.0, seed=2)

        explained = plan(q, db, p)
        winner = explained.winner
        assert winner.name != "hypercube"
        predicted_margin = (
            explained.candidate("hypercube").estimate.load_bits
            / winner.estimate.load_bits
        )
        assert predicted_margin > 1.0

        with Session(p=p, seed=0) as session:
            hc = session.run(q, db, "hypercube")
            picked = session.run(q, db)
        measured_margin = hc.max_load_bits / picked.max_load_bits
        assert measured_margin > 1.0, "planner's pick must actually win"
        agreement = measured_margin / predicted_margin
        assert 0.5 <= agreement <= 2.0, (
            f"measured margin {measured_margin:.2f} vs predicted "
            f"{predicted_margin:.2f}"
        )


class TestPickQuality:
    """Across skew-free and skewed inputs the planner's pick measures
    within 1.5x of the best of the top four candidates, and within a
    small factor of its own prediction (EXPLAIN's promise)."""

    @pytest.mark.parametrize(
        "query, make_db, p",
        [
            (triangle_query(), lambda q: matching_database(q, m=1000, n=2**14, seed=0), 64),
            (star_query(2), lambda q: zipf_database(q, m=2000, n=2000, skew=1.0, seed=2), 16),
            (chain_query(4), lambda q: matching_database(q, m=1000, n=2**14, seed=1), 64),
        ],
        ids=["triangle-matching", "star2-zipf1.0", "chain4-matching"],
    )
    def test_pick_near_best_measured(self, query, make_db, p):
        db = make_db(query)
        expected = evaluate(query, db)
        picked = Session(p=p, seed=0).run(query, db)
        assert picked.answers == expected
        measured = {picked.strategy: picked.max_load_bits}
        for candidate in plan(query, db, p).ranked[:4]:
            if candidate.name not in measured:
                outcome = candidate.strategy.run(query, db, p, seed=0)
                assert outcome.answers == expected
                measured[candidate.name] = outcome.max_load_bits
        assert picked.max_load_bits <= 1.5 * min(measured.values())
        assert 0.2 <= picked.max_load_bits / picked.predicted_bits <= 3.0

    @pytest.mark.parametrize(
        "query", [triangle_query(), star_query(3), chain_query(5), k4_query()],
        ids=["C3", "T3", "L5", "K4"],
    )
    def test_winner_from_bare_statistics_is_applicable(self, query):
        stats = Statistics.uniform(query, m=100_000, domain_size=2**20)
        assert plan(query, stats, 64).winner.applicable


class TestRegistry:
    def test_default_strategies_have_unique_names(self):
        names = [s.name for s in default_strategies()]
        assert len(names) == len(set(names))

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register(OneRoundHyperCube())

    def test_register_and_use_custom_strategy(self):
        class Never(Strategy):
            name = "never"
            summary = "always pruned"

            def applicable(self, query, dstats, p):
                return "test strategy, never applicable"

        q = triangle_query()
        stats = Statistics.uniform(q, m=100, domain_size=128)
        pool = list(default_strategies()) + [Never()]
        explained = plan(q, stats, 16, strategies=pool)
        assert explained.candidate("never").reason
