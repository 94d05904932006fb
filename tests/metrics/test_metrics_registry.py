"""Unit behavior of the registry: instruments, snapshots, merging."""

from __future__ import annotations

import pytest

from repro.metrics import CalibrationTracker, MetricsRegistry
from repro.metrics.registry import (
    BITS_EDGES,
    DEFAULT_EDGES,
    ROUNDS_EDGES,
    SECONDS_EDGES,
    default_edges,
)


class TestInstruments:
    def test_counter_adds_and_rejects_negative(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_sim_bits_total")
        counter.inc(3.0)
        counter.inc()
        assert reg.value("repro_sim_bits_total") == 4.0
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_counter_identity_per_label_set(self):
        reg = MetricsRegistry()
        reg.counter("repro_pool_tasks_total", kind="thread").inc(2)
        reg.counter("repro_pool_tasks_total", kind="serial").inc(5)
        assert reg.counter("repro_pool_tasks_total", kind="thread") is (
            reg.counter("repro_pool_tasks_total", kind="thread")
        )
        assert reg.value("repro_pool_tasks_total", kind="thread") == 2.0
        assert reg.total("repro_pool_tasks_total") == 7.0

    def test_gauge_tracks_running_max(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("repro_sim_round_max_bits")
        gauge.set(4)
        gauge.set(9)
        gauge.set(2)
        assert gauge.value == 2.0
        assert gauge.max == 9.0

    def test_histogram_buckets_sum_and_overflow(self):
        reg = MetricsRegistry()
        hist = reg.histogram("custom", edges=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 1]  # one per bucket + overflow
        assert hist.count == 4
        assert hist.sum == 555.5
        assert sum(hist.counts) == hist.count

    def test_histogram_rejects_bad_edges(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", edges=(3.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("bad2", edges=())

    def test_histogram_percentile_is_bucketed(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", edges=(0.001, 0.01, 0.1))
        for _ in range(99):
            hist.observe(0.005)
        hist.observe(0.05)
        assert hist.percentile(50) == 0.01
        assert hist.percentile(100) == 0.1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing_total")
        with pytest.raises(ValueError):
            reg.gauge("thing_total")

    def test_default_edges_by_suffix(self):
        assert default_edges("repro_run_seconds") == SECONDS_EDGES
        assert default_edges("repro_run_load_bits") == BITS_EDGES
        assert default_edges("repro_spill_write_bytes") == BITS_EDGES
        assert default_edges("repro_run_rounds") == ROUNDS_EDGES
        assert default_edges("whatever") == DEFAULT_EDGES


class TestSnapshotMerge:
    def test_snapshot_roundtrips_through_merge(self):
        a = MetricsRegistry()
        a.counter("c_total").inc(7)
        a.gauge("g").set(3)
        a.histogram("h_rounds").observe(2)
        a.calibration.observe("hypercube", 1.5)

        b = MetricsRegistry()
        b.counter("c_total").inc(5)
        b.gauge("g").set(1)
        b.gauge("g").set(9)  # max 9, value 9
        b.merge(a.snapshot())

        assert b.value("c_total") == 12.0
        # Gauge: merged snapshot's value wins, max is the running max.
        assert b.value("g") == 3.0
        assert b.gauge("g").max == 9.0
        assert b.histogram("h_rounds").count == 1
        assert b.calibration.snapshot()["hypercube"]["count"] == 1

    def test_merge_is_associative_for_counters(self):
        parts = []
        for amount in (1.0, 10.0, 100.0):
            reg = MetricsRegistry()
            reg.counter("c_total").inc(amount)
            parts.append(reg.snapshot())
        left = MetricsRegistry()
        for part in parts:
            left.merge(part)
        right = MetricsRegistry()
        for part in reversed(parts):
            right.merge(part)
        assert left.value("c_total") == right.value("c_total") == 111.0

    def test_merge_rejects_mismatched_histogram_edges(self):
        a = MetricsRegistry()
        a.histogram("h", edges=(1.0, 2.0)).observe(1.5)
        b = MetricsRegistry()
        b.histogram("h", edges=(5.0, 6.0))
        with pytest.raises(ValueError):
            b.merge(a.snapshot())

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        reg.calibration.observe("s", 1.0)
        reg.reset()
        assert len(reg) == 0
        assert reg.calibration.snapshot() == {}

    def test_snapshot_is_sorted_and_schema_tagged(self):
        reg = MetricsRegistry()
        reg.counter("z_total").inc()
        reg.counter("a_total").inc()
        snap = reg.snapshot()
        assert snap["schema"] == "repro.metrics/1"
        names = [row["name"] for row in snap["metrics"]]
        assert names == sorted(names)


class TestCalibration:
    def test_welford_matches_direct_statistics(self):
        tracker = CalibrationTracker()
        ratios = [0.5, 1.0, 1.5, 2.0, 0.25]
        for ratio in ratios:
            tracker.observe("skew-star", ratio)
        stats = tracker.stats()["skew-star"]
        mean = sum(ratios) / len(ratios)
        variance = sum((r - mean) ** 2 for r in ratios) / (len(ratios) - 1)
        assert stats["count"] == len(ratios)
        assert stats["mean"] == pytest.approx(mean)
        assert stats["stddev"] == pytest.approx(variance ** 0.5)
        assert stats["min"] == 0.25
        assert stats["max"] == 2.0
        assert stats["last"] == 0.25

    def test_parallel_merge_equals_sequential(self):
        ratios = [0.8, 1.1, 0.9, 1.4, 1.0, 0.7, 1.2]
        sequential = CalibrationTracker()
        for ratio in ratios:
            sequential.observe("s", ratio)
        half_a, half_b = CalibrationTracker(), CalibrationTracker()
        for ratio in ratios[:3]:
            half_a.observe("s", ratio)
        for ratio in ratios[3:]:
            half_b.observe("s", ratio)
        half_a.merge(half_b.snapshot())
        merged = half_a.stats()["s"]
        expected = sequential.stats()["s"]
        assert merged["count"] == expected["count"]
        assert merged["mean"] == pytest.approx(expected["mean"])
        assert merged["stddev"] == pytest.approx(expected["stddev"])
        assert merged["min"] == expected["min"]
        assert merged["max"] == expected["max"]


class TestObserve:
    """``observe`` folds each trace event type into its series."""

    EVENTS = [
        {"t": "meta", "strategy": "hypercube", "pool": "thread"},
        {"t": "sim", "p": 2, "value_bits": 32, "capacity_bits": 64.0,
         "on_overflow": "drop", "storage": True},
        {"t": "send", "r": 1, "dst": 0, "tag": "R", "bits": 64.0, "n": 1},
        {"t": "send", "r": 1, "dst": 0, "tag": "R", "bits": 0.0, "n": 0,
         "drop": 32.0},
        {"t": "round", "r": 1, "total_bits": 64.0, "max_bits": 64.0,
         "tuples": 1, "dropped_bits": 32.0},
        {"t": "spill", "op": "write", "path": "a.i64", "bytes": 96},
        {"t": "spill", "op": "read", "path": "a.i64", "bytes": 40},
        {"t": "task", "kind": "route", "label": "R", "seconds": 0.002,
         "pool": "thread"},
        {"t": "phase", "name": "route", "seconds": 0.01, "bits": 64.0},
        {"t": "run", "p": 2, "strategy": "hypercube", "rounds": 1,
         "total_bits": 64.0, "max_load_bits": 64.0, "dropped_bits": 32.0,
         "wall_seconds": 0.02, "makespan_bits": 16.0},
    ]

    def test_every_event_type_lands_in_its_series(self):
        reg = MetricsRegistry().observe(self.EVENTS)
        assert reg.value("repro_sim_simulations_total") == 1.0
        assert reg.value("repro_sim_sends_total") == 2.0
        assert reg.value("repro_sim_bits_total") == 64.0
        assert reg.value("repro_sim_tuples_total") == 1.0
        assert reg.value("repro_sim_dropped_bits_total") == 32.0
        assert reg.value("repro_sim_rounds_total") == 1.0
        assert reg.gauge("repro_sim_round_max_bits").max == 64.0
        assert reg.value("repro_spill_bytes_written_total") == 96.0
        assert reg.value("repro_spill_writes_total") == 1.0
        assert reg.value("repro_spill_bytes_read_total") == 40.0
        assert reg.value("repro_spill_reads_total") == 1.0
        assert reg.value("repro_pool_tasks_total", kind="thread") == 1.0
        assert reg.histogram(
            "repro_pool_task_seconds", kind="thread"
        ).sum == 0.002
        assert reg.value("repro_runs_total", strategy="hypercube") == 1.0
        for name, total in (
            ("repro_run_seconds", 0.02),
            ("repro_run_rounds", 1.0),
            ("repro_run_load_bits", 64.0),
        ):
            hist = reg.histogram(name, strategy="hypercube")
            assert (hist.count, hist.sum) == (1, total)
        assert reg.value(
            "repro_run_makespan_bits", strategy="hypercube"
        ) == 16.0

    def test_a_simulation_creates_all_four_delivery_counters(self):
        reg = MetricsRegistry().observe([{"t": "sim"}])
        names = {row["name"] for row in reg.snapshot()["metrics"]}
        assert names == {
            "repro_sim_simulations_total",
            "repro_sim_sends_total",
            "repro_sim_bits_total",
            "repro_sim_tuples_total",
            "repro_sim_dropped_bits_total",
        }
        assert reg.value("repro_sim_dropped_bits_total") == 0.0

    def test_events_without_series_are_ignored(self):
        reg = MetricsRegistry().observe(self.EVENTS[:1] + self.EVENTS[-2:-1])
        assert len(reg) == 0
