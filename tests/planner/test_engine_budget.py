"""Memory-budgeted planner execution (`execute(..., memory_budget_bytes=)`).

The engine's budget contract: a binding budget opens a storage manager
and runs streaming winners chunked (attaching the manager to the
result); winners that cannot stream -- in-memory baselines, or any
strategy under the tuple backend (pinned or default) -- run
in-memory with ``.storage is None`` so callers can tell the budget was
not enforced, and never crash.  Budgeted runs also plan from *sampled*
statistics so the exact frequency scan cannot blow the budget first.
"""

from __future__ import annotations

import pytest

from repro.config import ExecutionSettings, use_backend
from repro.core.families import star_query, triangle_query
from repro.data.generators import matching_database, zipf_database
from repro.join.multiway import evaluate
from repro.planner import execute
from repro.planner.engine import IN_MEMORY_FOOTPRINT_FACTOR
from repro.planner.strategies import default_strategies

NUMPY = ExecutionSettings(backend="numpy")
TUPLES = ExecutionSettings(backend="tuples")


@pytest.fixture(scope="module")
def triangle_db():
    query = triangle_query()
    return query, matching_database(query, m=2000, n=8000, seed=0)


class TestBudgetSelection:
    def test_binding_budget_runs_chunked(self, triangle_db):
        query, db = triangle_db
        assert db.total_bytes() * IN_MEMORY_FOOTPRINT_FACTOR > 1
        planned = execute(
            query, db, 8, strategy="hypercube", settings=NUMPY,
            memory_budget_bytes=1,
        )
        try:
            assert planned.storage is not None
            assert not planned.storage.closed
            assert "out-of-core" in planned.summary()
            assert planned.answers == evaluate(query, db)
        finally:
            planned.storage.close()

    def test_loose_budget_stays_in_memory(self, triangle_db):
        query, db = triangle_db
        planned = execute(
            query, db, 8, memory_budget_bytes=64 * 2**30
        )
        assert planned.storage is None
        assert planned.answers == evaluate(query, db)

    def test_chunked_results_match_in_memory(self, triangle_db):
        query, db = triangle_db
        reference = execute(query, db, 8, strategy="hypercube", settings=NUMPY)
        budgeted = execute(
            query, db, 8, strategy="hypercube", settings=NUMPY,
            stats=reference.explained.statistics,  # same (exact) statistics
            memory_budget_bytes=1,
        )
        try:
            assert budgeted.max_load_bits == reference.max_load_bits
            assert budgeted.answers == reference.answers
        finally:
            budgeted.storage.close()


class TestNonStreamingWinners:
    def test_tuples_twin_declines_budget_honestly(self, triangle_db):
        query, db = triangle_db
        planned = execute(
            query, db, 8, strategy="hypercube", settings=TUPLES,
            memory_budget_bytes=1,
        )
        assert planned.storage is None  # budget NOT enforced, and said so
        assert "out-of-core" not in planned.summary()

    def test_explicit_storage_with_nonstreaming_winner_raises(self, triangle_db):
        # An explicit manager is a demand, not a hint: refusing beats
        # silently dropping the caller's memory constraint.
        from repro.storage import StorageManager

        query, db = triangle_db
        with StorageManager() as manager:
            with pytest.raises(ValueError, match="cannot stream"):
                execute(
                    query, db, 8, strategy="hypercube", settings=TUPLES,
                    storage=manager,
                )

    def test_tuple_default_backend_never_crashes(self):
        # The skew-aware strategies resolve backend=None at run time;
        # under the tuple default they must decline the manager, not
        # raise "requires the numpy backend".
        query = star_query(2)
        db = zipf_database(query, m=1500, n=600, skew=1.2, seed=2)
        with use_backend("tuples"):
            planned = execute(
                query, db, 8, strategy="skew-star", memory_budget_bytes=1
            )
            assert planned.storage is None
            assert planned.answers == evaluate(query, db)

    def test_streams_capability_tracks_backend(self):
        by_name = {s.name: s for s in default_strategies()}
        assert by_name["hypercube"].streams(NUMPY)
        assert not by_name["hypercube"].streams(TUPLES)
        assert not by_name["single-server"].streams()
        assert by_name["hypercube"].streams()  # numpy default
        assert by_name["skew-star"].streams()
        with use_backend("tuples"):
            assert not by_name["hypercube"].streams()
            assert not by_name["skew-star"].streams()
            assert not by_name["multiround"].streams()
            assert by_name["multiround"].streams(NUMPY)


class TestSampledStatsUnderBudget:
    def test_budgeted_run_uses_sampled_statistics(self, triangle_db, monkeypatch):
        query, db = triangle_db
        from repro.planner import engine as engine_module
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
            engine_module.DataStatistics, "from_database",
            classmethod(spy_exact),
        )
        monkeypatch.setattr(
            engine_module.DataStatistics, "from_sample",
            classmethod(spy_sampled),
        )
        planned = execute(
            query, db, 8, strategy="hypercube", settings=NUMPY,
            memory_budget_bytes=1,
        )
        try:
            assert calls["sampled"] == 1 and calls["exact"] == 0
            assert planned.answers == evaluate(query, db)
        finally:
            planned.storage.close()
