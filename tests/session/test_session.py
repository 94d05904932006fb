"""``repro.session``: the unified front door must change nothing.

The acceptance property: ``Session.run`` pinned to a strategy is
bit-identical -- answers, per-server per-round loads, capacity
truncation -- to the strategy's executor core reached directly through
``dispatch_run`` with the same knobs, across strategies x kernels (the
array kernel and the tuple oracle) x storage modes; and every run returns the one :class:`RunResult`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExecutionSettings
from repro.core.families import star_query, triangle_query
from repro.data.generators import (
    matching_database,
    uniform_database,
    zipf_database,
)
from repro.multiround.plans import chain_plan
from repro.planner import DataStatistics, OneRoundHyperCube
from repro.hypercube.algorithm import hypercube_core
from repro.multiround.executor import multiround_core
from repro.skew.star import star_core
from repro.skew.triangle import triangle_core
from repro.run import dispatch_run
from repro.session import ClusterConfig, RunResult, Session
from repro.storage import StorageManager

from tests.conftest import KERNELS, random_queries
from tests.reference.multiway_join import evaluate
from tests.reference.tuple_kernel import kernel

#: A 1-byte budget: every database's assumed footprint exceeds it, so
#: the session always engages its shared out-of-core manager.
TINY_BUDGET = 1


def assert_identical(a: RunResult, b: RunResult) -> None:
    """Bit-identity over the RunResult surface."""
    assert a.answers == b.answers
    report_a, report_b = a.load_report, b.load_report
    assert report_a.num_rounds == report_b.num_rounds
    for round_a, round_b in zip(report_a.rounds, report_b.rounds):
        assert round_a.bits == round_b.bits
        assert round_a.tuples == round_b.tuples
        assert round_a.dropped_bits == round_b.dropped_bits
    assert a.rounds == b.rounds


def star_case(seed):
    q = star_query(2)
    return q, zipf_database(q, m=250, n=100, skew=1.0, seed=seed)


def triangle_case(seed):
    q = triangle_query()
    return q, zipf_database(q, m=220, n=60, skew=1.1, seed=seed)


def matching_triangle_case(seed):
    q = triangle_query()
    return q, matching_database(q, m=150, n=600, seed=seed)


class TestBitIdentityToLegacy:
    """session.run(strategy=...) == the core through dispatch_run."""

    @pytest.mark.parametrize("kernel_name", KERNELS, indirect=True)
    @pytest.mark.parametrize("with_budget", [False, True])
    @pytest.mark.parametrize("seed", range(2))
    def test_hypercube(self, kernel_name, with_budget, seed):
        q, db = matching_triangle_case(seed)
        budget = TINY_BUDGET if with_budget else None
        with Session(p=16, seed=seed,
                     memory_budget_bytes=budget) as session:
            mine = session.run(q, db, strategy="hypercube")
            if with_budget:
                direct_storage = StorageManager.from_budget(TINY_BUDGET)
            else:
                direct_storage = None
            direct = dispatch_run(
                hypercube_core, q, db, 16, seed=seed,
                settings=ExecutionSettings(),
                storage=direct_storage,
            )
            assert_identical(mine, direct)
            assert mine.answers == evaluate(q, db)
            if direct_storage is not None:
                direct_storage.close()

    @pytest.mark.parametrize("kernel_name", KERNELS, indirect=True)
    @pytest.mark.parametrize("with_budget", [False, True])
    @pytest.mark.parametrize("seed", range(2))
    def test_skew_star(self, kernel_name, with_budget, seed):
        q, db = star_case(seed)
        budget = TINY_BUDGET if with_budget else None
        with Session(p=8, seed=seed,
                     memory_budget_bytes=budget) as session:
            mine = session.run(q, db, strategy="skew-star")
            if with_budget:
                direct_storage = StorageManager.from_budget(TINY_BUDGET)
            else:
                direct_storage = None
            direct = dispatch_run(
                star_core, q, db, 8, seed=seed,
                settings=ExecutionSettings(),
                storage=direct_storage,
            )
            assert_identical(mine, direct)
            if direct_storage is not None:
                direct_storage.close()

    @pytest.mark.parametrize("kernel_name", KERNELS, indirect=True)
    @pytest.mark.parametrize("with_budget", [False, True])
    @pytest.mark.parametrize("seed", range(2))
    def test_skew_triangle(self, kernel_name, with_budget, seed):
        q, db = triangle_case(seed)
        budget = TINY_BUDGET if with_budget else None
        with Session(p=8, seed=seed,
                     memory_budget_bytes=budget) as session:
            mine = session.run(q, db, strategy="skew-triangle")
            if with_budget:
                direct_storage = StorageManager.from_budget(TINY_BUDGET)
            else:
                direct_storage = None
            direct = dispatch_run(
                triangle_core, q, db, 8, seed=seed,
                settings=ExecutionSettings(),
                storage=direct_storage,
            )
            assert_identical(mine, direct)
            if direct_storage is not None:
                direct_storage.close()

    @pytest.mark.parametrize("kernel_name", KERNELS, indirect=True)
    @pytest.mark.parametrize("with_budget", [False, True])
    def test_multiround(self, kernel_name, with_budget):
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=60, n=60, seed=0)
        budget = TINY_BUDGET if with_budget else None
        with Session(p=8, seed=2,
                     memory_budget_bytes=budget) as session:
            mine = session.run(
                plan.query, db, strategy="multiround", plan=plan
            )
            if with_budget:
                direct_storage = StorageManager.from_budget(TINY_BUDGET)
            else:
                direct_storage = None
            direct = dispatch_run(
                multiround_core, plan.query, db, 8, seed=2,
                settings=ExecutionSettings(),
                storage=direct_storage, plan=plan,
            )
            assert_identical(mine, direct)
            if direct_storage is not None:
                direct_storage.close()

    @pytest.mark.parametrize("seed", range(2))
    def test_planner_default_route(self, seed):
        q, db = triangle_case(seed)
        with Session(p=8, seed=seed) as session:
            mine = session.run(q, db)
            winner = session.plan(q, db).winner
        direct = winner.strategy.run(q, db, 8, seed=seed)
        assert mine.strategy == direct.strategy
        assert_identical(mine, direct)

    @given(query=random_queries(),
           seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=15, deadline=None)
    def test_property_random_queries(self, query, seed):
        n = 8
        sizes = {a.relation: min(20, n**a.arity) for a in query.atoms}
        db = uniform_database(query, m=sizes, n=n, seed=seed)
        # The strategy runs its cheapest candidate vector; the core runs
        # whatever shares it is handed.
        _, shares, _ = OneRoundHyperCube().best_shares(
            query, DataStatistics.from_database(query, db, 8), 8, None,
        )
        direct = dispatch_run(
            hypercube_core, query, db, 8, seed=seed, settings=ExecutionSettings(),
            shares=shares,
        )
        with Session(p=8, seed=seed) as session:
            mine = session.run(query, db, strategy="hypercube")
        assert mine.details["shares"] == shares
        assert_identical(mine, direct)


class TestCapacityThreading:
    """A session capacity cap truncates exactly like the engine knob."""

    @pytest.mark.parametrize("kernel_name", KERNELS, indirect=True)
    def test_hypercube_drop(self, kernel_name):
        q, db = triangle_case(seed=4)
        capacity = 900.0
        with Session(p=8, seed=1, capacity_bits=capacity,
                     on_overflow="drop") as session:
            mine = session.run(q, db, strategy="hypercube")
            direct = dispatch_run(
                hypercube_core, q, db, 8, seed=1,
                settings=ExecutionSettings(
                    capacity_bits=capacity, on_overflow="drop",
                ),
            )
            assert direct.load_report.dropped_bits > 0
            assert_identical(mine, direct)

    @pytest.mark.parametrize("kernel_name", KERNELS, indirect=True)
    def test_star_drop(self, kernel_name):
        q, db = star_case(seed=5)
        capacity = 700.0
        with Session(p=8, seed=1, capacity_bits=capacity,
                     on_overflow="drop") as session:
            mine = session.run(q, db, strategy="skew-star")
            direct = dispatch_run(
                star_core, q, db, 8, seed=1,
                settings=ExecutionSettings(
                    capacity_bits=capacity, on_overflow="drop",
                ),
            )
            assert direct.load_report.dropped_bits > 0
            assert_identical(mine, direct)


class TestRunResultProtocol:
    """Every run returns a RunResult (see tests/test_run_result.py)."""

    def test_all_result_types_conform(self):
        q, db = matching_triangle_case(seed=0)
        sq, sdb = star_case(seed=0)
        plan = chain_plan(4, 0.0)
        pdb = matching_database(plan.query, m=40, n=40, seed=0)
        with Session(p=8, seed=0) as session:
            results = [
                session.run(q, db, "hypercube"),
                session.run(sq, sdb, "skew-star"),
                session.run(q, db, "skew-triangle"),
                session.run(plan.query, pdb, "multiround", plan=plan),
                session.run(q, db),
            ]
        expected_strategies = [
            "hypercube", "skew-star", "skew-triangle", "multiround",
        ]
        for result, expected in zip(results, expected_strategies):
            assert isinstance(result, RunResult)
            assert result.strategy == expected
            assert result.rounds == result.load_report.num_rounds
            array = result.answers_array()
            assert len(array) == len(result.answers)
        planned = results[-1]
        assert isinstance(planned, RunResult)
        assert planned.predicted_bits is not None
        assert len(planned.answers_array()) == len(planned.answers)

    def test_baselines_conform_and_are_labeled(self):
        from repro.core.families import simple_join_query

        q = simple_join_query()
        db = matching_database(q, m=60, n=240, seed=1)
        with Session(p=4) as session:
            for name in ("single-server", "broadcast"):
                result = session.run(q, db, name)
                assert result.strategy == name
                assert isinstance(result, RunResult)
            # The parallel hash join is HyperCube pinned to the join key.
            hashed = session.run(q, db, "hypercube", exponents={"z": 1.0})
            assert hashed.strategy == "hypercube"
            assert hashed.details["shares"]["z"] == 4


class TestSessionSemantics:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="server"):
            ClusterConfig(p=0)
        with pytest.raises(TypeError, match="backend"):
            ClusterConfig(p=4, backend="numpy")
        with pytest.raises(ValueError, match="on_overflow"):
            ClusterConfig(p=4, on_overflow="explode")
        with pytest.raises(ValueError, match="hash_method"):
            ClusterConfig(p=4, hash_method="md5")
        with pytest.raises(ValueError, match="chunk_rows"):
            ClusterConfig(p=4, chunk_rows=0)
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            ClusterConfig(p=4, memory_budget_bytes=0)

    def test_config_or_knobs_not_both(self):
        with pytest.raises(TypeError, match="not both"):
            Session(ClusterConfig(p=4), p=8)

    def test_closed_session_rejects_runs(self):
        q, db = matching_triangle_case(seed=0)
        session = Session(p=4)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run(q, db)

    def test_owned_storage_lifecycle(self):
        q, db = matching_triangle_case(seed=1)
        with Session(p=8, memory_budget_bytes=TINY_BUDGET) as session:
            result = session.run(q, db, strategy="hypercube")
            assert session.storage is not None
            root = session.storage.root
            assert root.exists()
            # Materialize before close: outputs live in the spill dir.
            _ = result.answers
        assert session.storage is None
        assert not root.exists()

    def test_budgeted_summary_reports_spill(self):
        # A run that streamed through the session's own manager reports
        # its spill traffic (the run's counter delta) in summary().
        q = triangle_query()
        db = matching_database(q, m=8000, n=32000, seed=0)
        with Session(p=8, memory_budget_bytes=TINY_BUDGET) as session:
            result = session.run(q, db, strategy="hypercube")
            assert result.report.spill_stats["files_created"] > 0
            assert "out-of-core: spilled" in result.summary()

    def test_no_storage_under_generous_budget(self):
        q, db = matching_triangle_case(seed=1)
        with Session(p=8, memory_budget_bytes=2**34) as session:
            session.run(q, db, strategy="hypercube")
            assert session.storage is None

    def test_unsupported_override_rejected(self):
        q, db = star_case(seed=0)
        with Session(p=8) as session:
            with pytest.raises(ValueError, match="does not accept"):
                session.run(q, db, strategy="skew-star",
                            shares={"x0": 2})

    def test_hitters_override_accepted_by_skew_strategies(self):
        from repro.planner import DataStatistics
        from repro.skew.star import star_center

        sq, sdb = star_case(seed=1)
        star_stats = DataStatistics.from_database(sq, sdb, 8)
        tq, tdb = triangle_case(seed=1)
        tri_stats = DataStatistics.from_database(tq, tdb, 8)
        with Session(p=8, seed=1) as session:
            star_pre = session.run(
                sq, sdb, strategy="skew-star",
                hitters=star_stats.hitters[star_center(sq)],
            )
            star_scan = session.run(sq, sdb, strategy="skew-star")
            assert_identical(star_pre, star_scan)
            tri_pre = session.run(
                tq, tdb, strategy="skew-triangle",
                hitters=tri_stats.hitters,
            )
            tri_scan = session.run(tq, tdb, strategy="skew-triangle")
            assert_identical(tri_pre, tri_scan)

    def test_mismatched_plan_override_rejected(self):
        # A plan built for a different query must not run silently
        # under the pinned query's name.
        from repro.multiround.plans import chain_plan

        q, db = matching_triangle_case(seed=0)
        wrong_plan = chain_plan(4, 0.0)
        with Session(p=8) as session:
            with pytest.raises(ValueError, match="plan answers"):
                session.run(q, db, strategy="multiround", plan=wrong_plan)

    def test_pinned_twin_strategies(self):
        q, db = matching_triangle_case(seed=3)
        with kernel("tuples"), Session(p=16, seed=1) as session:
            tuples_run = session.run(q, db, strategy="hypercube")
        with Session(p=16, seed=1) as session:
            numpy_run = session.run(q, db, strategy="hypercube")
        assert_identical(tuples_run, numpy_run)

    def test_history_and_explain(self):
        q, db = matching_triangle_case(seed=0)
        with Session(p=8, seed=0) as session:
            assert session.history == []
            session.run(q, db, strategy="hypercube", label="first")
            session.run(q, db)
            table = session.plan(q, db).table()
        assert "hypercube" in table
        assert len(session.history) == 2
        first, second = session.history
        assert first.label == "first"
        assert second.label == "run-1"
        assert first.strategy == "hypercube"
        assert first.max_load_bits > 0
        assert first.percentiles["max"] == first.max_load_bits
        summary = session.workload_summary()
        assert "first" in summary and "per-run L percentiles" in summary
        pct = session.workload_percentiles()
        assert pct["max"] >= pct["p50"] >= 0

    def test_seed_override_matches_config_seed(self):
        q, db = matching_triangle_case(seed=0)
        with Session(p=8, seed=7) as session:
            by_config = session.run(q, db, strategy="hypercube")
        with Session(p=8, seed=0) as session:
            by_override = session.run(q, db, strategy="hypercube", seed=7)
        assert_identical(by_config, by_override)
