"""Everything that crosses the process-pool boundary must pickle.

The spawn-context pool ships tasks and results by pickle; these tests
round-trip every payload type the seam carries, and prove the two
worker bodies (`route_task`, `join_task`) compute identically on a
pickled copy of their task -- the exact situation inside a worker.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import ClusterConfig, Job, RunRecord, matching_database, triangle_query
from repro.storage.chunked import ChunkedRelation, SegmentSlice
from repro.mpc.simulator import LoadExceededError, MPCSimulation
from repro.multiround.plans import chain_plan
from repro.parallel.tasks import (
    ArraySource,
    JoinTask,
    RouteTask,
    RunJobTask,
    iter_array_sources,
    join_task,
    route_task,
    run_job_task,
)
from repro.planner import DataStatistics
from repro.run import RunResult
from repro.storage.manager import StorageManager


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


def test_cluster_config_roundtrip():
    config = ClusterConfig(
        p=16, seed=7, capacity_bits=1e6, on_overflow="drop",
        pool="process", max_workers=4,
    )
    assert roundtrip(config) == config


def test_job_and_query_roundtrip():
    q = triangle_query()
    db = matching_database(q, m=50, n=200, seed=0)
    job = roundtrip(Job(q, db, strategy="hypercube", label="t"))
    assert job.query == q
    assert job.strategy == "hypercube"
    assert job.label == "t"


def test_plan_and_statistics_roundtrip():
    plan = chain_plan(4)
    assert roundtrip(plan).query == plan.query
    q = triangle_query()
    db = matching_database(q, m=50, n=200, seed=0)
    stats = DataStatistics.from_database(q, db, 8)
    copy = roundtrip(stats)
    assert copy.stats.cardinalities == stats.stats.cardinalities
    assert copy.exact == stats.exact


def test_array_source_roundtrips_rows_and_path(tmp_path):
    rows = np.arange(12, dtype=np.int64).reshape(6, 2)
    by_value = roundtrip(ArraySource(rows=rows))
    np.testing.assert_array_equal(by_value.load(), rows)

    # A raw int64 segment whose first two rows belong to someone else.
    path = tmp_path / "segment.i64"
    head = np.arange(100, 104, dtype=np.int64)
    path.write_bytes(head.tobytes() + rows.tobytes())
    handle = SegmentSlice(str(path), offset=2, rows=6, arity=2)
    by_path = roundtrip(ArraySource(segment=handle))
    np.testing.assert_array_equal(np.asarray(by_path.load()), rows)


def test_route_task_computes_identically_after_pickle():
    rows = np.array([[1, 2], [3, 4], [5, 6], [7, 8]], dtype=np.int64)
    task = RouteTask(
        tag="R", source=ArraySource(rows=rows),
        dimension_variables=("x", "y"), atom_variables=("x", "y"),
        shares=(2, 2), family_seed=3, exclude=((0, (5,)),),
    )
    tag, base, groups, _ = route_task(task)
    tag2, base2, groups2, _ = route_task(roundtrip(task))
    assert (tag, base) == (tag2, base2) == ("R", 0)
    assert [s for s, _ in groups] == [s for s, _ in groups2]
    for (_, a), (_, b) in zip(groups, groups2):
        np.testing.assert_array_equal(a, b)
    # The exclusion filter dropped the heavy row before routing.
    assert sum(len(batch) for _, batch in groups) == 3


def test_join_task_computes_identically_after_pickle():
    q = triangle_query()
    r = np.array([[1, 2]], dtype=np.int64)
    s = np.array([[2, 3]], dtype=np.int64)
    t = np.array([[3, 1], [3, 1]], dtype=np.int64)  # dup: dedup merges
    names = [atom.relation for atom in q.atoms]
    task = JoinTask(
        server=5, query=q,
        fragments=tuple(
            (name, (ArraySource(rows=batch),))
            for name, batch in zip(names, (r, s, t))
        ),
    )
    server, local, _ = join_task(task)
    server2, local2, _ = join_task(roundtrip(task))
    assert server == server2 == 5
    np.testing.assert_array_equal(local, local2)
    assert len(local) == 1


def test_run_record_with_phase_seconds_roundtrip():
    record = RunRecord(
        label="j", query="triangle", strategy="hypercube", p=8, seed=1,
        rounds=1, max_load_bits=100.0, total_bits=800.0, dropped_bits=0.0,
        predicted_bits=90.0, percentiles={"p50": 90.0},
        wall_seconds=0.01,
        phase_seconds={"generate": 0.001, "route": 0.002},
    )
    copy = roundtrip(record)
    assert copy.phase_seconds == record.phase_seconds
    assert "route" in copy.line()


def test_load_report_roundtrip():
    sim = MPCSimulation(p=4, value_bits=32)
    sim.begin_round()
    sim.send_array(0, "R", np.array([(1, 2)]))
    sim.end_round()
    report = roundtrip(sim.report)
    assert report.max_load_bits == 64
    assert report.num_rounds == 1


def test_load_exceeded_error_roundtrip():
    sim = MPCSimulation(p=2, value_bits=32, capacity_bits=10,
                        on_overflow="fail")
    sim.begin_round()
    with pytest.raises(LoadExceededError) as info:
        sim.send_array(0, "R", np.array([(1, 2)]))
    error = roundtrip(info.value)
    assert isinstance(error, LoadExceededError)
    assert str(error) == str(info.value)


def test_storage_manager_handle_survives_pickle(tmp_path):
    """A pickled manager is a read-only handle on the same spill dir."""
    rows = np.array([(i, i + 1) for i in range(10)], dtype=np.int64)
    with StorageManager(root=tmp_path / "spill", chunk_rows=4) as storage:
        chunked = ChunkedRelation.from_array("R", rows, storage=storage)
        handle = roundtrip(storage)
        assert str(handle.root) == str(storage.root)
        # The handle does not own the directory: dropping it must not
        # delete the parent's spill files.
        del handle
        import gc

        gc.collect()
        np.testing.assert_array_equal(chunked.to_array(), rows)


def test_iter_array_sources_yields_paths_for_chunked(tmp_path):
    rows = np.array([(i, i + 1) for i in range(10)], dtype=np.int64)
    with StorageManager(root=tmp_path / "spill", chunk_rows=4) as storage:
        chunked = ChunkedRelation.from_array("R", rows, storage=storage)
        sources = list(iter_array_sources(chunked))
        # Spilled chunks cross as segment slices (an in-memory tail may
        # remain).
        assert sum(s.segment is not None for s in sources) >= 2
        stacked = np.concatenate([np.asarray(s.load()) for s in sources])
        np.testing.assert_array_equal(stacked, rows)


def test_run_job_task_roundtrips_and_executes():
    q = triangle_query()
    db = matching_database(q, m=40, n=160, seed=0)
    task = roundtrip(RunJobTask(
        config=ClusterConfig(p=4, seed=0),
        job=Job(q, db, label="probe"),
        index=0,
    ))
    result, record, error, metrics = run_job_task(task)
    assert error is None
    assert metrics is None  # config did not enable metrics
    assert type(result) is RunResult
    assert result.simulation is None
    assert record.label == "probe"
    # The detached result survives the pickle hop back from the worker
    # with answers intact.
    copy = roundtrip(result)
    assert copy.answers == result.answers
    assert copy.load_report.max_load_bits == result.load_report.max_load_bits


def test_run_job_task_returns_portable_error():
    q = triangle_query()
    db = matching_database(q, m=10, n=40, seed=0)
    task = RunJobTask(
        config=ClusterConfig(p=4, seed=0),
        job=Job(q, db, strategy="no-such-strategy"),
        index=0,
    )
    result, record, error, metrics = run_job_task(task)
    assert result is None and record is None and metrics is None
    assert error is not None
    assert isinstance(roundtrip(error), Exception)
