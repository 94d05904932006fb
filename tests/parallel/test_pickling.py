"""Everything that crosses the process-pool boundary must pickle.

The spawn-context engine pool ships route/join tasks and their results
by pickle; these tests round-trip those payloads, and prove the two
worker bodies (`route_task`, `join_task`) compute identically on a
pickled copy of their task -- the exact situation inside a worker.
The session's plain value types (config, job, plan, statistics,
records, reports) pickle as well.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro import ClusterConfig, Job, RunRecord, matching_database, triangle_query
from repro.storage.chunked import ChunkedRelation, SegmentSlice
from repro.mpc.simulator import MPCSimulation
from repro.multiround.plans import chain_plan
from repro.parallel.tasks import (
    ArraySource,
    JoinTask,
    RouteTask,
    iter_array_sources,
    join_task,
    route_task,
)
from repro.planner import DataStatistics
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
    tag, partition, _ = route_task(task)
    tag2, partition2, _ = route_task(roundtrip(task))
    assert tag == tag2 == "R"
    for field in partition._fields:
        a, b = getattr(partition, field), getattr(partition2, field)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    # The exclusion filter dropped the heavy row before routing, and
    # each remaining row is routed once.
    assert len(partition.rows) == 3
    assert partition.stops.max() == 3


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
