"""A run's metrics are a fold over its trace, and only over its trace.

``Session(metrics=True)`` records the run's trace events in memory and
folds them with :meth:`MetricsRegistry.observe`; the same fold over the
written JSONL artifact must give the same registry.
"""

from __future__ import annotations

import pytest

from repro import (
    MetricsRegistry,
    Session,
    Trace,
    matching_database,
    triangle_query,
)
from repro.session import Job
from repro.storage.manager import StorageManager
from tests.reference.multiway_join import evaluate


def triangle_db(seed=7):
    q = triangle_query()
    return q, matching_database(q, m=120, n=480, seed=seed)


@pytest.mark.parametrize("case", ["hypercube-drop-storage", "process-pool"])
def test_session_registry_equals_fold_of_written_trace(case, tmp_path):
    q, db = triangle_db()
    if case == "process-pool":
        knobs = dict(pool="process", max_workers=2)
    else:
        knobs = dict(
            capacity_bits=1_200.0,
            on_overflow="drop",
            storage=StorageManager(root=tmp_path / "spill", chunk_rows=16),
        )
    with Session(p=8, seed=3, trace=tmp_path / "traces", metrics=True,
                 **knobs) as session:
        result = session.run(q, db, "hypercube")
        record = session.history[-1]
        registry = session.metrics
    if case == "process-pool":
        tasks = registry.value("repro_pool_tasks_total", kind="process")
        assert tasks > 0
        assert registry.total("repro_pool_tasks_total") == tasks
    else:
        assert result.load_report.dropped_bits > 0
        assert registry.value("repro_spill_writes_total") > 0
        knobs["storage"].close()
    folded = MetricsRegistry().observe(Trace.read_jsonl(record.trace_path))
    assert folded.snapshot()["metrics"] == registry.snapshot()["metrics"]


def test_metrics_without_trace_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    q, db = triangle_db()
    with Session(p=8, seed=0, metrics=True) as session:
        result = session.run(q, db)
        record = session.history[-1]
        assert session.metrics.value("repro_sim_bits_total") == (
            result.load_report.total_bits
        )
    assert record.trace_path is None
    assert list(tmp_path.iterdir()) == []


def test_process_run_many_trace_names_the_pool_that_ran_the_tasks(tmp_path):
    q = triangle_query()
    jobs = [
        Job(q, matching_database(q, m=120, n=480, seed=seed), label=f"j{seed}")
        for seed in range(2)
    ]
    with Session(p=8, seed=0, pool="process", max_workers=2,
                 trace=tmp_path) as session:
        results = session.run_many(jobs)
        records = list(session.history)
    for job, result in zip(jobs, results):
        assert result.answers == evaluate(job.query, job.database)
    for record in records:
        trace = Trace.read_jsonl(record.trace_path)
        # The jobs run on threads; their routing and joins go to the
        # session's process pool.
        assert trace.meta["pool"] == "process"
        pools = {e["pool"] for e in trace if e["t"] == "task"}
        assert pools == {"process"}
