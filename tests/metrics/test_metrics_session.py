"""Session-level metrics: aggregation across runs, sessions and pools."""

from __future__ import annotations

import pytest

from repro.core.families import star_query, triangle_query
from repro.data.generators import matching_database, zipf_database
from repro.metrics import global_metrics
from repro.planner import default_strategies
from repro.session import Job, Session


def workload():
    tq = triangle_query()
    sq = star_query(2)
    return [
        Job(tq, matching_database(tq, m=120, n=480, seed=0), label="tri"),
        Job(sq, zipf_database(sq, m=150, n=60, skew=1.0, seed=1),
            strategy="skew-star", label="star"),
        Job(tq, matching_database(tq, m=100, n=400, seed=2), label="tri2"),
    ]


def registry_totals(reg):
    """The order-independent portion of a registry, for comparison."""
    snap = reg.snapshot()
    totals = {}
    for row in snap["metrics"]:
        key = (row["name"], tuple(sorted(row.get("labels", {}).items())))
        if row["type"] == "counter":
            totals[key] = row["value"]
        elif row["type"] == "histogram":
            totals[key] = row["count"]  # timings vary; counts must not
    return totals


class TestSingleRun:
    def test_disabled_by_default(self):
        with Session(p=4, seed=0) as session:
            assert session.metrics is None
            q = triangle_query()
            session.run(q, matching_database(q, m=60, n=240, seed=0))
            assert session.metrics is None

    def test_run_merges_into_session_and_global(self):
        before = global_metrics().value("repro_sim_bits_total")
        with Session(p=4, seed=0, metrics=True) as session:
            q = triangle_query()
            result = session.run(q, matching_database(q, m=60, n=240, seed=0))
            report = result.load_report
            assert session.metrics.value("repro_sim_bits_total") == (
                report.total_bits
            )
            assert session.metrics.value(
                "repro_runs_total", strategy=result.strategy
            ) == 1.0
        after = global_metrics().value("repro_sim_bits_total")
        assert after == before + report.total_bits

    def test_calibration_tracks_prediction_ratio(self):
        with Session(p=8, seed=0, metrics=True) as session:
            q = triangle_query()
            db = matching_database(q, m=120, n=480, seed=0)
            session.run(q, db)
            session.run(q, db)
            stats = session.metrics.calibration.stats()
            assert stats, "calibration should have at least one strategy"
            (strategy, row), = stats.items()
            assert row["count"] == 2
            assert row["mean"] > 0.0


class TestRunLabels:
    """Every registered strategy is counted once, under its own name."""

    @pytest.mark.parametrize(
        "strategy", [s.name for s in default_strategies()]
    )
    def test_pinned_run_is_labelled_with_its_registered_name(self, strategy):
        if strategy in ("skew-triangle", "multiround"):
            q = triangle_query()
        else:
            q = star_query(2)
        db = zipf_database(q, m=150, n=60, skew=1.0, seed=1)
        with Session(p=8, seed=0, metrics=True) as session:
            result = session.run(q, db, strategy=strategy)
            registry = session.metrics
            assert registry.value("repro_runs_total", strategy=strategy) == 1.0
            assert registry.total("repro_runs_total") == 1.0
            for name in (
                "repro_run_seconds", "repro_run_rounds", "repro_run_load_bits"
            ):
                assert registry.histogram(name, strategy=strategy).count == 1
            assert registry.histogram(
                "repro_run_load_bits", strategy=strategy
            ).sum == result.max_load_bits


class TestRunMany:
    @pytest.mark.parametrize("pool", ["serial", "thread", "process"])
    def test_pool_kinds_aggregate_identically(self, pool):
        """Job threads over any engine pool total what one-at-a-time does."""
        with Session(p=8, seed=42, metrics=True) as session:
            session.run_many(workload(), max_workers=1)
            baseline = registry_totals(session.metrics)
        with Session(p=8, seed=42, pool=pool, max_workers=2,
                     metrics=True) as session:
            session.run_many(workload(), max_workers=2)
            observed = registry_totals(session.metrics)
        # Drop pool-task series: kind labels legitimately differ by pool.
        def strip(totals):
            return {
                k: v for k, v in totals.items()
                if not k[0].startswith("repro_pool_")
            }

        assert strip(observed) == strip(baseline)

    def test_process_pool_ships_worker_deltas(self):
        """Process-pool engines compute; every job is accounted in-session."""
        with Session(p=8, seed=42, pool="process", max_workers=2,
                     metrics=True) as session:
            results = session.run_many(workload(), max_workers=2)
            expected = sum(r.load_report.total_bits for r in results)
            assert session.metrics.value("repro_sim_bits_total") == expected
            assert session.metrics.total("repro_runs_total") == float(
                len(results)
            )
            assert session.metrics.calibration.stats()

    def test_progress_lines(self, capsys):
        with Session(p=4, seed=0) as session:
            q = triangle_query()
            jobs = [
                Job(q, matching_database(q, m=40, n=160, seed=i), label=f"j{i}")
                for i in range(3)
            ]
            session.run_many(jobs, max_workers=1, metrics_every=2)
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[repro.metrics]")
        ]
        assert len(lines) == 2  # after job 2, and the end of batch
        assert "2/3 job(s) done" in lines[0]
        assert "3/3 job(s) done" in lines[1]

    def test_metrics_every_validation(self):
        with Session(p=4, seed=0) as session:
            q = triangle_query()
            job = Job(q, matching_database(q, m=40, n=160, seed=0))
            with pytest.raises(ValueError):
                session.run_many([job], metrics_every=0)
