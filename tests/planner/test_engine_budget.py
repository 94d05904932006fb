"""Memory-budgeted runs (`Session(memory_budget_bytes=)`).

The budget contract: a binding budget opens the session's storage
manager and runs the strategy chunked -- every strategy streams, the
baselines included -- so the run's report carries its ``spill_stats``
and ``summary()`` says so.  Budgeted runs plan from the same exact
statistics as unbudgeted ones, so the decision does not depend on the
budget.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.core.families import star_query, triangle_query
from repro.data.generators import matching_database, zipf_database
from repro.join.multiway import evaluate
from repro.planner.engine import IN_MEMORY_FOOTPRINT_FACTOR

from tests.reference.tuple_kernel import tuple_kernel


@pytest.fixture(scope="module")
def triangle_db():
    query = triangle_query()
    return query, matching_database(query, m=2000, n=8000, seed=0)


class TestBudgetSelection:
    def test_binding_budget_runs_chunked(self, triangle_db):
        query, db = triangle_db
        assert db.total_bytes() * IN_MEMORY_FOOTPRINT_FACTOR > 1
        with Session(p=8, memory_budget_bytes=1) as session:
            planned = session.run(query, db, strategy="hypercube")
            assert session.storage is not None
            assert not session.storage.closed
            assert "out-of-core" in planned.summary()
            assert planned.answers == evaluate(query, db)

    def test_loose_budget_stays_in_memory(self, triangle_db):
        query, db = triangle_db
        with Session(p=8, memory_budget_bytes=64 * 2**30) as session:
            planned = session.run(query, db)
            assert session.storage is None
            assert planned.answers == evaluate(query, db)

    def test_chunked_results_match_in_memory(self, triangle_db):
        query, db = triangle_db
        reference = Session(p=8).run(query, db, strategy="hypercube")
        with Session(p=8, memory_budget_bytes=1) as session:
            budgeted = session.run(
                query, db, strategy="hypercube",
                stats=reference.explained.statistics,  # same (exact) statistics
            )
            assert budgeted.max_load_bits == reference.max_load_bits
            assert budgeted.answers == reference.answers


class TestNonStreamingWinners:
    """There are none left: the baselines and the tuple oracle stream too."""

    @pytest.mark.parametrize("strategy", ["single-server", "broadcast"])
    def test_baselines_honour_the_budget(self, triangle_db, strategy):
        query, db = triangle_db
        reference = Session(p=8, seed=1).run(query, db, strategy)
        with Session(p=8, seed=1, memory_budget_bytes=1) as session:
            planned = session.run(query, db, strategy)
            spill = planned.report.spill_stats
            assert spill is not None and spill["bytes_written"] > 0
            assert "out-of-core" in planned.summary()
            assert planned.answers == reference.answers
        for budgeted, plain in zip(planned.report.rounds, reference.report.rounds):
            assert budgeted.bits == plain.bits

    def test_tuple_default_backend_never_crashes(self):
        # The oracle kernel delivers through the simulator, so it spools
        # under a manager like the array kernel instead of declining it.
        query = star_query(2)
        db = zipf_database(query, m=1500, n=600, skew=1.2, seed=2)
        with tuple_kernel(), Session(p=8, memory_budget_bytes=1) as session:
            planned = session.run(query, db, strategy="skew-star")
            assert planned.report.spill_stats is not None
            assert planned.answers == evaluate(query, db)


class TestExactStatsUnderBudget:
    def test_budgeted_run_uses_exact_statistics(self, triangle_db, monkeypatch):
        query, db = triangle_db
        from repro.planner.statistics import DataStatistics

        calls = {"exact": 0, "sampled": 0}
        real_exact = DataStatistics.from_database.__func__
        real_sampled = DataStatistics.from_sample.__func__

        def spy_exact(cls, *a, **k):
            calls["exact"] += 1
            return real_exact(cls, *a, **k)

        def spy_sampled(cls, *a, **k):
            calls["sampled"] += 1
            return real_sampled(cls, *a, **k)

        monkeypatch.setattr(
            DataStatistics, "from_database", classmethod(spy_exact)
        )
        monkeypatch.setattr(
            DataStatistics, "from_sample", classmethod(spy_sampled)
        )
        with Session(p=8, memory_budget_bytes=1) as session:
            planned = session.run(query, db, strategy="hypercube")
            assert calls["exact"] == 1 and calls["sampled"] == 0
            assert planned.answers == evaluate(query, db)
