"""``Session.run_many``: concurrency must not change anything.

The acceptance property: the same jobs with the same seeds produce
identical results -- answers, per-server loads, truncation, history
records -- whatever ``max_workers`` is, because each job's seed derives
from ``(session seed, job index)`` via ``hashing.derive_seed`` and the
shared storage manager is thread-safe.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.families import simple_join_query, star_query, triangle_query
from repro.data.generators import matching_database, zipf_database
from repro.hashing.family import derive_seed
from repro.session import Job, Session

TINY_BUDGET = 1


def workload():
    tq = triangle_query()
    sq = star_query(2)
    jq = simple_join_query()
    return [
        Job(tq, matching_database(tq, m=150, n=600, seed=0), label="tri"),
        Job(sq, zipf_database(sq, m=200, n=80, skew=1.0, seed=1),
            strategy="skew-star", label="star"),
        Job(jq, matching_database(jq, m=200, n=800, seed=2), label="join"),
        Job(tq, zipf_database(tq, m=180, n=50, skew=1.1, seed=3),
            strategy="skew-triangle", label="tri-skew"),
    ]


def run_with_workers(max_workers, **session_knobs):
    with Session(p=8, seed=42, **session_knobs) as session:
        results = session.run_many(workload(), max_workers=max_workers)
        # Materialize inside the session: spooled outputs die with it.
        snapshot = [
            (r.answers, [dict(rl.bits) for rl in r.load_report.rounds],
             r.strategy)
            for r in results
        ]
        # Timing fields (wall clock, per-phase split) legitimately vary
        # between runs; everything else must be identical.
        history = [
            replace(rec, wall_seconds=0.0, phase_seconds={})
            for rec in session.history
        ]
    return snapshot, history


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_concurrent_equals_sequential(self, workers):
        sequential, seq_history = run_with_workers(1)
        concurrent, conc_history = run_with_workers(workers)
        assert concurrent == sequential
        assert conc_history == seq_history

    def test_concurrent_equals_sequential_with_shared_storage(self):
        sequential, seq_history = run_with_workers(
            1, memory_budget_bytes=TINY_BUDGET
        )
        concurrent, conc_history = run_with_workers(
            4, memory_budget_bytes=TINY_BUDGET
        )
        assert concurrent == sequential
        assert conc_history == seq_history

    def test_storage_mode_matches_in_memory(self):
        in_memory, _ = run_with_workers(2)
        chunked, _ = run_with_workers(2, memory_budget_bytes=TINY_BUDGET)
        assert chunked == in_memory


class TestSeeding:
    def test_jobs_derive_distinct_seeds(self):
        with Session(p=8, seed=7) as session:
            session.run_many(workload(), max_workers=2)
            seeds = [record.seed for record in session.history]
        assert seeds == [derive_seed(7, i) for i in range(len(seeds))]
        assert len(set(seeds)) == len(seeds)

    def test_explicit_job_seed_matches_single_run(self):
        tq = triangle_query()
        db = matching_database(tq, m=120, n=480, seed=0)
        with Session(p=8, seed=0) as session:
            [batch] = session.run_many(
                [Job(tq, db, strategy="hypercube", seed=13)]
            )
            single = session.run(tq, db, strategy="hypercube", seed=13)
            assert batch.answers == single.answers
            assert (
                batch.load_report.rounds[0].bits
                == single.load_report.rounds[0].bits
            )


class TestBatchSemantics:
    def test_results_in_job_order_with_labels(self):
        with Session(p=8, seed=0) as session:
            results = session.run_many(workload(), max_workers=4)
            labels = [record.label for record in session.history]
            assert labels == ["tri", "star", "join", "tri-skew"]
            assert [r.strategy for r in results][1] == "skew-star"
            assert [r.strategy for r in results][3] == "skew-triangle"

    def test_empty_batch(self):
        with Session(p=8) as session:
            assert session.run_many([]) == []
            assert session.history == []

    def test_bare_pairs_accepted(self):
        tq = triangle_query()
        db = matching_database(tq, m=100, n=400, seed=0)
        with Session(p=8) as session:
            results = session.run_many([(tq, db), (tq, db)])
            assert len(results) == 2
            assert len(session.history) == 2

    def test_invalid_max_workers(self):
        with Session(p=8) as session:
            with pytest.raises(ValueError, match="max_workers"):
                session.run_many(workload(), max_workers=0)

    @pytest.mark.parametrize(
        "knobs, match",
        [({"max_workers": 0}, "max_workers"), ({"metrics_every": 0}, "metrics_every")],
    )
    def test_invalid_knobs_rejected_on_an_empty_batch(self, knobs, match):
        with Session(p=8) as session:
            with pytest.raises(ValueError, match=match):
                session.run_many([], **knobs)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failed_job_keeps_successful_history(self, workers):
        # One bad job re-raises, but its siblings' records survive.
        tq = triangle_query()
        db = matching_database(tq, m=80, n=320, seed=0)
        jobs = [
            Job(tq, db, label="good-0"),
            Job(tq, db, strategy="skew-star", label="bad"),  # inapplicable
            Job(tq, db, label="good-2"),
        ]
        with Session(p=8, seed=0) as session:
            with pytest.raises(ValueError, match="not applicable"):
                session.run_many(jobs, max_workers=workers)
            labels = [record.label for record in session.history]
        assert labels == ["good-0", "good-2"]
