"""Bit-identity across worker pools: the seam's central invariant.

Workers compute, the parent accounts, merges replay the serial order --
so every pool kind at every worker count must produce identical
answers, identical per-server per-round received bits, and identical
capacity-drop truncation.  These tests pin that down for all four
engines and for ``Session.run_many``'s job threads sharing one pool.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import (
    ClusterConfig,
    Job,
    Session,
    matching_database,
    star_query,
    triangle_query,
    uniform_database,
    zipf_database,
)
from repro.multiround.plans import chain_plan
from repro.planner import DataStatistics
from repro.core.families import chain_query
from repro.storage.manager import StorageManager

from tests.reference.fingerprint import fingerprint

POOLS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def triangle_instance():
    q = triangle_query()
    db = matching_database(q, m=400, n=1600, seed=3)
    # One shared DataStatistics: every run plans from it, priced once.
    return q, db, DataStatistics.from_database(q, db, 8)


@pytest.fixture(scope="module")
def hypercube_baseline(triangle_instance):
    q, db, stats = triangle_instance
    session = Session(p=8, seed=1, pool="serial")
    return fingerprint(session.run(q, db, "hypercube", stats=stats))


@pytest.mark.parametrize("pool", POOLS)
@pytest.mark.parametrize("workers", (1, 2, 4))
def test_hypercube_identity_across_pools(
    triangle_instance, hypercube_baseline, pool, workers
):
    q, db, stats = triangle_instance
    result = Session(p=8, seed=1, pool=pool, max_workers=workers).run(
        q, db, "hypercube", stats=stats
    )
    assert fingerprint(result) == hypercube_baseline


@pytest.mark.parametrize("pool", ("thread", "process"))
def test_hypercube_identity_with_storage(
    triangle_instance, hypercube_baseline, pool, tmp_path
):
    q, db, stats = triangle_instance
    with StorageManager(root=tmp_path / "spill", chunk_rows=64) as storage:
        result = Session(
            p=8, seed=1, pool=pool, max_workers=2, storage=storage
        ).run(q, db, "hypercube", stats=stats)
        assert fingerprint(result) == hypercube_baseline


@pytest.mark.parametrize("pool", ("thread", "process"))
def test_hypercube_capacity_drop_identity(triangle_instance, pool):
    """Truncation order is part of the contract: same rows dropped."""
    q, db, stats = triangle_instance
    knobs = dict(p=8, seed=1, capacity_bits=3000.0, on_overflow="drop")
    serial = Session(pool="serial", **knobs).run(
        q, db, "hypercube", stats=stats
    )
    assert serial.report.dropped_bits > 0  # the cap actually binds
    fanned = Session(pool=pool, max_workers=3, **knobs).run(
        q, db, "hypercube", stats=stats
    )
    assert fingerprint(fanned) == fingerprint(serial)


def test_star_skew_identity_serial_vs_process():
    q = star_query(2)
    db = zipf_database(q, m=600, n=600, skew=1.0, seed=2)
    serial = Session(p=8, seed=1, pool="serial").run(q, db, "skew-star")
    fanned = Session(p=8, seed=1, pool="process", max_workers=2).run(
        q, db, "skew-star"
    )
    assert fingerprint(fanned) == fingerprint(serial)


def test_triangle_skew_identity_serial_vs_process():
    q = triangle_query()
    db = zipf_database(q, m=500, n=500, skew=1.0, seed=4)
    serial = Session(p=4, seed=1, pool="serial").run(q, db, "skew-triangle")
    fanned = Session(p=4, seed=1, pool="process", max_workers=2).run(
        q, db, "skew-triangle"
    )
    assert fingerprint(fanned) == fingerprint(serial)


@pytest.mark.parametrize("use_storage", (False, True))
def test_multiround_identity_serial_vs_process(tmp_path, use_storage):
    q = chain_query(4)
    db = matching_database(q, m=800, n=3200, seed=5)
    plan = chain_plan(4)
    serial = Session(p=8, seed=1, pool="serial").run(
        q, db, "multiround", plan=plan
    )
    storage = (
        StorageManager(root=tmp_path / "spill", chunk_rows=128)
        if use_storage else None
    )
    try:
        fanned = Session(
            p=8, seed=1, pool="process", max_workers=2, storage=storage
        ).run(q, db, "multiround", plan=plan)
        assert fingerprint(fanned) == fingerprint(serial)
    finally:
        if storage is not None:
            storage.close()


def record_fingerprint(record):
    """A RunRecord's pool-invariant core (wall/phase times vary)."""
    return (
        record.label, record.query, record.strategy, record.p,
        record.seed, record.rounds, record.max_load_bits,
        record.total_bits, record.dropped_bits,
    )


@pytest.mark.parametrize("batch_pool", POOLS)
def test_run_many_identity_across_batch_pools(batch_pool):
    """Job threads sharing one cached engine pool change nothing.

    ``Session(pool=K, max_workers=2).run_many`` runs every job on the
    session's own threads while their routing and joins fan out over
    the one shared ``K`` pool.  Records and answers must equal the
    same batch run one job at a time (``max_workers=1``).
    """
    q = triangle_query()
    db = matching_database(q, m=300, n=1200, seed=0)
    jobs = [Job(q, db, label=f"j{i}") for i in range(3)]
    with Session(p=8, seed=0) as session:
        baseline_answers = [
            sorted(r.answers) for r in session.run_many(jobs, max_workers=1)
        ]
        baseline = [record_fingerprint(r) for r in session.history]
    with Session(p=8, seed=0, pool=batch_pool, max_workers=2) as session:
        results = session.run_many(jobs, max_workers=2)
        assert [record_fingerprint(r) for r in session.history] == baseline
        assert [sorted(r.answers) for r in results] == baseline_answers


def test_job_threads_contending_for_one_engine_pool():
    """More job threads than cores on one cached engine pool, switching often.

    The jobs' route and join tasks interleave on the shared executor,
    but each job replays its own deliveries in its own task order, so
    every record and answer equals the sequential batch's.
    """
    q = triangle_query()
    jobs = [
        Job(q, uniform_database(q, m=120, n=30, seed=seed), label=f"j{seed}")
        for seed in range(8)
    ]
    with Session(p=8, seed=0) as session:
        answers = [sorted(r.answers) for r in session.run_many(jobs, max_workers=1)]
        records = [record_fingerprint(r) for r in session.history]
    assert any(answers)
    observed = {}

    def batch():
        with Session(p=8, seed=0, pool="thread", max_workers=4) as session:
            results = session.run_many(jobs, max_workers=6)
            observed["answers"] = [sorted(r.answers) for r in results]
            observed["records"] = [record_fingerprint(r) for r in session.history]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=batch)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert observed == {"answers": answers, "records": records}


def test_engine_pool_from_config_identity():
    """ClusterConfig(pool=...) reaches the engines with identical bits."""
    q = triangle_query()
    db = matching_database(q, m=300, n=1200, seed=0)
    runs = {}
    for pool in POOLS:
        with Session(ClusterConfig(p=8, seed=0, pool=pool,
                                   max_workers=2)) as session:
            result = session.run(q, db)
            runs[pool] = (
                sorted(result.answers),
                record_fingerprint(session.history[-1]),
            )
    assert runs["thread"] == runs["serial"]
    assert runs["process"] == runs["serial"]
