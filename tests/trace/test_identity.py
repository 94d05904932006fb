"""Tracing must observe, never perturb.

The acceptance property of the whole subsystem: running any executor
under ``tracing()`` yields bit-identical answers, per-round per-server
loads and drop accounting at every pool kind and storage mode -- and
the trace reconciles *exactly* (float ``==``, no tolerance) with the
run's :class:`~repro.mpc.report.LoadReport`, because bit counts are
integer-valued doubles far below 2**53.
"""

from __future__ import annotations

import contextlib
import functools
import time

import pytest

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import star_query, triangle_query
from repro.data.generators import matching_database, zipf_database
from repro.multiround.plans import chain_plan
from repro.planner import DataStatistics
from repro.hypercube.algorithm import hypercube_core
from repro.run import dispatch_run
from repro.storage.manager import StorageManager
from repro.trace import tracing

ENGINES = ["hypercube", "skew-star", "skew-triangle", "multiround"]


@functools.cache
def engine_case(name):
    """The fixed (query, database, statistics, overrides) of each engine.

    Cached, so every run of one engine plans from one shared
    ``DataStatistics`` and the planner prices it once.
    """
    overrides = {}
    if name == "hypercube":
        q = triangle_query()
        db = matching_database(q, m=120, n=480, seed=0)
    elif name == "skew-star":
        q = star_query(2)
        db = zipf_database(q, m=150, n=60, skew=1.0, seed=1)
    elif name == "skew-triangle":
        q = triangle_query()
        db = zipf_database(q, m=120, n=50, skew=1.1, seed=2)
    else:
        plan = chain_plan(4)
        q, overrides = plan.query, {"plan": plan}
        db = matching_database(q, m=120, n=480, seed=3)
    return q, db, DataStatistics.from_database(q, db, 8), overrides


def run_engine(name, **knobs):
    query, db, stats, overrides = engine_case(name)
    return Session(p=8, **knobs).run(
        query, db, name, stats=stats, **overrides
    )


def snapshot(result):
    """Everything a run computes, down to the bit."""
    report = result.load_report
    return (
        set(result.answers),
        [dict(r.bits) for r in report.rounds],
        [dict(r.dropped_bits) for r in report.rounds],
        report.total_bits,
        report.max_load_bits,
    )


def assert_reconciles(recorder, report):
    """The trace's per-server totals equal the report's, exactly."""
    trace = recorder.finish(report=report)
    mismatches = trace.query().reconcile(report)
    assert mismatches == {}
    sends = [e for e in trace if e.get("t") == "send"]
    assert sum(e["bits"] for e in sends) == report.total_bits
    assert sum(e.get("drop", 0.0) for e in sends) == report.dropped_bits


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("pool", [None, "thread"])
    def test_traced_equals_untraced(self, engine, pool):
        baseline = snapshot(run_engine(engine, pool=pool))
        with tracing() as rec:
            traced = run_engine(engine, pool=pool)
        assert snapshot(traced) == baseline
        assert any(e.get("t") == "send" for e in rec.events)
        assert_reconciles(rec, traced.load_report)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_traced_equals_untraced_with_storage(self, engine, tmp_path):
        def spilled(trace_it):
            with StorageManager(
                root=tmp_path / ("t" if trace_it else "u"), chunk_rows=64
            ) as storage:
                if trace_it:
                    with tracing() as rec:
                        result = run_engine(engine, storage=storage)
                    return snapshot(result), rec, result.load_report
                return snapshot(run_engine(engine, storage=storage)), None, None

        baseline, _, _ = spilled(False)
        traced, rec, report = spilled(True)
        assert traced == baseline
        assert_reconciles(rec, report)

    def test_traced_equals_untraced_process_pool(self):
        baseline = snapshot(run_engine("hypercube", pool="process"))
        with tracing() as rec:
            traced = run_engine("hypercube", pool="process")
        assert snapshot(traced) == baseline
        # Worker timings are replayed in the parent's deterministic
        # merge order, so the trace sees them despite the process hop.
        assert any(e.get("t") == "task" for e in rec.events)
        assert_reconciles(rec, traced.load_report)

    def test_traced_equals_untraced_under_drop(self):
        knobs = dict(capacity_bits=1_200.0, on_overflow="drop")
        baseline = snapshot(run_engine("hypercube", **knobs))
        with tracing() as rec:
            traced = run_engine("hypercube", **knobs)
        assert snapshot(traced) == baseline
        assert traced.load_report.dropped_bits > 0
        assert_reconciles(rec, traced.load_report)


class TestAccounting:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_phase_seconds_cover_route_ship_join(self, engine):
        report = run_engine(engine).load_report
        assert set(report.phase_seconds) >= {"route", "ship", "join"}
        assert all(s >= 0.0 for s in report.phase_seconds.values())

    def test_spill_events_match_manager_counters(self, tmp_path):
        q = triangle_query()
        with StorageManager(root=tmp_path / "s", chunk_rows=64) as storage:
            db = matching_database(q, m=400, n=1600, seed=0, storage=storage)
            with tracing() as rec:
                Session(p=8, storage=storage).run(q, db, "hypercube")
            counters = storage.io_counters()
        writes = [
            e for e in rec.events
            if e.get("t") == "spill" and e["op"] == "write"
        ]
        reads = [
            e for e in rec.events
            if e.get("t") == "spill" and e["op"] == "read"
        ]
        assert reads, "streaming a spilled database must log reads"
        # The traced window saw a suffix of the manager's lifetime: the
        # database was spilled before tracing began, so write events
        # recorded here can only undercount the cumulative counters.
        assert sum(e["bytes"] for e in writes) <= counters["bytes_written"]
        assert sum(e["bytes"] for e in reads) <= counters["bytes_read"]
        assert counters["peak_live_bytes"] >= counters["live_bytes"]

    def test_worker_task_events_cover_route_and_join(self):
        with tracing() as rec:
            run_engine("hypercube", pool="thread")
        kinds = {e["kind"] for e in rec.events if e.get("t") == "task"}
        assert kinds == {"route", "join"}


class TestOverhead:
    def test_tracing_overhead_stays_small(self):
        """Traced wall time <= 1.25x untraced at n = 10**5 (min of 7 each).

        Traced and untraced runs alternate, so a burst of load from
        elsewhere slows both sides instead of one block of samples.
        """
        q = triangle_query()
        db = matching_database(q, m=25_000, n=100_000, seed=0)
        settings = ExecutionSettings()

        def seconds(traced):
            start = time.perf_counter()
            with tracing() if traced else contextlib.nullcontext():
                dispatch_run(hypercube_core, q, db, 8, seed=0, settings=settings)
            return time.perf_counter() - start

        seconds(traced=False)  # warm caches before timing
        samples = {False: [], True: []}
        for _ in range(7):
            for traced in (False, True):
                samples[traced].append(seconds(traced))
        untraced, traced = min(samples[False]), min(samples[True])
        assert traced <= untraced * 1.25
