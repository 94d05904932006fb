"""Metrics collection must never perturb results.

Mirrors ``tests/trace/test_identity.py``: every engine must produce
bit-identical results (answers, per-round bits, drops) with metrics
collection on and off, across pool kinds and spill-backed storage --
and the registry's totals must reconcile *exactly* (float ``==``)
with the run's :class:`LoadReport`.
"""

from __future__ import annotations

import functools
import time

import pytest

from repro import (
    Session,
    matching_database,
    star_query,
    triangle_query,
    zipf_database,
)
from repro.multiround.plans import chain_plan
from repro.planner import DataStatistics
from repro.storage.manager import StorageManager

ENGINES = ["hypercube", "skew-star", "skew-triangle", "multiround"]


@functools.cache
def engine_case(name):
    """The fixed (query, database, statistics, seed, overrides) per engine.

    Cached, so every run of one engine plans from one shared
    ``DataStatistics`` and the planner prices it once.
    """
    overrides = {}
    if name == "hypercube":
        q, seed = triangle_query(), 3
        db = matching_database(q, m=120, n=480, seed=7)
    elif name == "skew-star":
        q, seed = star_query(2), 5
        db = zipf_database(q, m=150, n=60, seed=11, skew=1.0)
    elif name == "skew-triangle":
        q, seed = triangle_query(), 9
        db = zipf_database(q, m=120, n=50, seed=13, skew=1.1)
    elif name == "multiround":
        plan = chain_plan(4)
        q, seed, overrides = plan.query, 21, {"plan": plan}
        db = matching_database(q, m=120, n=480, seed=17)
    else:
        raise AssertionError(name)
    return q, db, DataStatistics.from_database(q, db, 8), seed, overrides


def run_session(name, **knobs):
    """One deterministic run of the named engine: ``(result, session)``."""
    query, db, stats, seed, overrides = engine_case(name)
    session = Session(p=8, seed=seed, **knobs)
    return session.run(query, db, name, stats=stats, **overrides), session


def run_engine(name, **knobs):
    return run_session(name, **knobs)[0]


def result_snapshot(result):
    """Everything bit-identity covers, in comparable form."""
    report = result.load_report
    return (
        set(result.answers),
        [dict(r.bits) for r in report.rounds],
        [dict(r.dropped_bits) for r in report.rounds],
        report.total_bits,
        report.max_load_bits,
    )


def run_with_metrics(name, **knobs):
    result, session = run_session(name, metrics=True, **knobs)
    return result, session.metrics


def assert_reconciles(reg, result):
    """Registry totals must equal the LoadReport exactly."""
    report = result.load_report
    assert reg.value("repro_sim_bits_total") == report.total_bits
    assert reg.value("repro_sim_dropped_bits_total") == report.dropped_bits
    assert reg.value("repro_sim_rounds_total") == float(report.num_rounds)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("pool", [None, "thread"])
def test_metrics_do_not_perturb_results(engine, pool):
    # None: the session's default pool, serial.
    knobs = {} if pool is None else {"pool": pool}
    baseline = result_snapshot(run_engine(engine, **knobs))
    observed, reg = run_with_metrics(engine, **knobs)
    assert result_snapshot(observed) == baseline
    assert_reconciles(reg, observed)


@pytest.mark.parametrize("engine", ENGINES)
def test_metrics_identity_with_storage(engine, tmp_path):
    with StorageManager(root=tmp_path / "off", chunk_rows=64) as storage:
        baseline = result_snapshot(run_engine(engine, storage=storage))
    with StorageManager(root=tmp_path / "on", chunk_rows=64) as storage:
        observed, reg = run_with_metrics(engine, storage=storage)
        # Spill counters reconcile with the manager's own accounting:
        # a write is one append to a segment file, so the writes total
        # counts appends; segment files number at most that.
        counters = storage.io_counters()
        assert reg.value("repro_spill_bytes_written_total") == float(
            counters["bytes_written"]
        )
        assert reg.value("repro_spill_writes_total") == float(
            counters["writes"]
        )
        assert counters["files_created"] <= counters["writes"]
        # Answers are lazy on every engine: read them before the
        # manager (and the spooled outputs) close.
        assert result_snapshot(observed) == baseline
    assert_reconciles(reg, observed)


def test_metrics_identity_with_process_pool():
    baseline = result_snapshot(run_engine("hypercube", pool="process"))
    observed, reg = run_with_metrics("hypercube", pool="process")
    assert result_snapshot(observed) == baseline
    assert_reconciles(reg, observed)
    # Worker task timings replay in the parent across the process hop.
    assert reg.total("repro_pool_tasks_total") > 0


def test_metrics_identity_under_capacity_drops():
    knobs = dict(capacity_bits=1_200.0, on_overflow="drop")
    baseline = result_snapshot(run_engine("hypercube", **knobs))
    observed, reg = run_with_metrics("hypercube", **knobs)
    assert result_snapshot(observed) == baseline
    assert observed.load_report.dropped_bits > 0
    assert_reconciles(reg, observed)


def test_metrics_overhead_stays_small():
    """Collected wall time <= 1.1x uncollected at n = 10**5 (min of 3).

    The disabled path is one ``is None`` check per hook; the enabled
    path appends one in-memory trace event per delivery and folds the
    events once after the run -- so the full enabled run must stay
    within 10% of the plain run (plus timer noise).
    """
    q = triangle_query()
    db = matching_database(q, m=25_000, n=100_000, seed=0)
    stats = DataStatistics.from_database(q, db, 8)

    def best_of(collected, repeats=3):
        samples = []
        for _ in range(repeats):
            session = Session(p=8, seed=0, metrics=collected)
            start = time.perf_counter()
            session.run(q, db, "hypercube", stats=stats)
            samples.append(time.perf_counter() - start)
        return min(samples)

    best_of(collected=False, repeats=1)  # warm caches before timing
    plain = best_of(collected=False)
    collected = best_of(collected=True)
    assert collected <= plain * 1.1 + 0.02
