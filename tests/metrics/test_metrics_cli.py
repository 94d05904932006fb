"""Exposition and the ``python -m repro metrics`` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.metrics import (
    MetricsRegistry,
    diff_snapshots,
    load_snapshot,
    render_diff,
    render_text,
    write_snapshot,
)
from repro.metrics.cli import render_snapshot_path


def sample_registry():
    reg = MetricsRegistry()
    reg.counter("repro_sim_bits_total").inc(1024.0)
    reg.counter("repro_pool_tasks_total", kind="thread").inc(6)
    reg.gauge("repro_sim_round_max_bits").set(2)
    reg.histogram("repro_run_seconds", strategy="hypercube").observe(0.02)
    reg.calibration.observe("hypercube", 1.25)
    return reg


class TestRenderText:
    def test_prometheus_shape(self):
        text = render_text(sample_registry().snapshot())
        assert "# TYPE repro_sim_bits_total counter" in text
        assert "repro_sim_bits_total 1024" in text
        assert 'repro_pool_tasks_total{kind="thread"} 6' in text
        # Histograms expose cumulative buckets plus sum/count.
        assert 'le="+Inf"' in text
        assert "repro_run_seconds_count" in text
        assert "repro_run_seconds_sum" in text
        # Calibration renders as synthetic gauges.
        assert 'repro_calibration_ratio{' in text
        assert 'stat="mean"' in text

    def test_bucket_counts_are_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h_rounds")
        for value in (1, 1, 2, 16):
            hist.observe(value)
        text = render_text(reg.snapshot())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("h_rounds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # +Inf bucket sees everything


class TestSnapshotIO:
    def test_roundtrip(self, tmp_path):
        snap = sample_registry().snapshot()
        path = write_snapshot(snap, tmp_path / "m.json")
        assert load_snapshot(path) == json.loads(json.dumps(snap))

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"benchmarks": []}')
        with pytest.raises(ValueError, match="not a repro.metrics snapshot"):
            load_snapshot(path)


class TestDiff:
    def test_quiet_interval_is_empty(self):
        snap = sample_registry().snapshot()
        assert diff_snapshots(snap, snap) == []
        assert "no change" in render_diff(snap, snap)

    def test_counter_and_histogram_deltas(self):
        reg = sample_registry()
        before = reg.snapshot()
        reg.counter("repro_sim_bits_total").inc(512.0)
        reg.histogram("repro_run_seconds", strategy="hypercube").observe(0.04)
        after = reg.snapshot()
        rows = {row["name"]: row for row in diff_snapshots(before, after)}
        assert rows["repro_sim_bits_total"]["delta"] == 512.0
        assert rows["repro_run_seconds"]["delta_count"] == 1
        text = render_diff(before, after)
        assert "repro_sim_bits_total: +512" in text

    def test_removed_series_is_flagged(self):
        before = sample_registry().snapshot()
        after = MetricsRegistry().snapshot()
        rows = diff_snapshots(before, after)
        assert rows and all(row.get("removed") for row in rows)


class TestCommand:
    def test_render_snapshot_path_modes(self, tmp_path):
        reg = sample_registry()
        path = str(write_snapshot(reg.snapshot(), tmp_path / "m.json"))
        assert "repro_sim_bits_total 1024" in render_snapshot_path(path)
        as_json = json.loads(render_snapshot_path(path, as_json=True))
        assert as_json["schema"] == "repro.metrics/1"
        reg.counter("repro_sim_bits_total").inc(1.0)
        other = str(write_snapshot(reg.snapshot(), tmp_path / "n.json"))
        assert "+1" in render_snapshot_path(path, diff=other)

    def test_metrics_subcommand(self, tmp_path, capsys):
        path = str(write_snapshot(sample_registry().snapshot(),
                                  tmp_path / "m.json"))
        main(["metrics", path])
        assert "repro_sim_bits_total 1024" in capsys.readouterr().out

    def test_metrics_subcommand_rejects_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(SystemExit):
            main(["metrics", str(path)])

    def test_run_metrics_smoke(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        main([
            "run", "triangle", "--m", "60", "--n", "240", "--p", "4",
            "--repeat", "2", "--metrics-out", str(out),
        ])
        stdout = capsys.readouterr().out
        # The run self-checked its registry against the LoadReports and
        # printed the exposition inline.
        assert "repro_sim_bits_total" in stdout
        assert "repro_runs_total" in stdout
        snap = load_snapshot(out)
        assert snap["calibration"]
