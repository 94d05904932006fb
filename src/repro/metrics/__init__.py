"""``repro.metrics`` -- workload telemetry, a fold over each run's trace.

Where :mod:`repro.trace` records *events* for post-hoc analysis, this
package keeps *aggregates*: counters, gauges and fixed-bucket
histograms in a :class:`MetricsRegistry`, plus a
:class:`CalibrationTracker` folding every planner-predicted run's
measured/predicted load ratio into per-strategy error statistics.
The engine layers emit nothing for metrics: a metered run records the
same event stream a traced run does (simulator deliveries and rounds,
storage spill I/O, worker-pool tasks, the run footer), and
:meth:`MetricsRegistry.observe` folds the sealed trace into the series
once, after the run.

Metrics are **off by default** and turned on through the session front
door, which keeps one aggregated view per session and rolls it up into
the process-wide registry::

    with Session(p=64, seed=0, metrics=True) as session:
        result = session.run(q, db)
        assert session.metrics.value("repro_sim_bits_total") == \\
            result.load_report.total_bits      # exact, float ==
        session.run_many(jobs, metrics_every=10)   # progress lines
        print(session.metrics.calibration.stats())
    from repro.metrics import global_metrics, render_text
    print(render_text(global_metrics().snapshot()))

A saved trace folds the same way offline:
``MetricsRegistry().observe(Trace.read_jsonl(path))`` equals that run's
contribution to ``session.metrics`` (calibration aside).

Enabling metrics never perturbs results: every engine stays
bit-identical (answers, per-server per-round bits, capacity drops) at
any pool kind x worker count x storage on/off, and the per-run counter
totals reconcile exactly (float ``==``) with the run's ``LoadReport``.
Every run -- a ``run_many`` job too -- runs in the session's own
process, and its trace records the engine pool's task events wherever
the tasks ran, so the session view folds the same way at any pool kind.

Metric schema (all ``bits`` in the model's load unit; labels in
braces)
----------------------------------------------------------------------

``repro_sim_simulations_total`` (counter)
    ``MPCSimulation`` constructions (trace ``sim`` events).
``repro_sim_sends_total`` / ``repro_sim_bits_total`` /
``repro_sim_tuples_total`` / ``repro_sim_dropped_bits_total`` (counters)
    Per-delivery accounting: deliveries, accepted bits (sums to
    ``LoadReport.total_bits`` per run), accepted tuples, and
    capacity-dropped bits (sums to ``LoadReport.dropped_bits``).
``repro_sim_rounds_total`` (counter), ``repro_sim_round_max_bits`` (gauge)
    Rounds closed; the last round's max per-server bits (the gauge's
    ``max`` is the worst round seen).
``repro_spill_bytes_written_total`` / ``repro_spill_writes_total`` /
``repro_spill_bytes_read_total`` / ``repro_spill_reads_total`` (counters)
    Storage-manager spill I/O, from the trace ``spill`` events (real
    file bytes, not model bits).  A write is one append to a
    spool's segment file (one per flush, carrying one or more whole
    chunks), so the writes total equals ``StorageManager.writes`` --
    not ``files_created``, which counts segment files.  A read is one
    chunk read or one worker handle, as ``StorageManager.reads``.
``repro_pool_tasks_total{kind}`` (counter),
``repro_pool_task_seconds{kind}`` (histogram)
    Worker-pool route/join tasks merged by the drivers, labelled with
    the kind of pool that ran them; seconds are the task body's own
    wall time measured inside the worker.
``repro_runs_total{strategy}`` (counter),
``repro_run_seconds{strategy}`` / ``repro_run_rounds{strategy}`` /
``repro_run_load_bits{strategy}`` (histograms),
``repro_run_makespan_bits{strategy}`` (gauge)
    Per-run telemetry from the trace's ``run`` footer: run count,
    session wall time per run (``RunRecord.wall_seconds``, planning
    included; throughput = ``count / sum``), rounds, max per-server
    load, and -- on heterogeneous clusters -- the speed-normalized
    makespan.
``repro_calibration_ratio{strategy,stat}`` /
``repro_calibration_runs_total{strategy}`` (rendered from the tracker)
    Measured/predicted ratio statistics (mean/min/max/last and the
    run count) per strategy.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON with
``schema: "repro.metrics/1"``; :func:`render_text` produces
Prometheus-style exposition, :func:`write_snapshot` /
:func:`load_snapshot` persist them, :func:`diff_snapshots` subtracts
two, and the ``python -m repro metrics`` CLI does all three offline.
"""

from repro.metrics.calibration import CalibrationTracker
from repro.metrics.exposition import (
    diff_snapshots,
    load_snapshot,
    render_diff,
    render_text,
    write_snapshot,
)
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_metrics,
)

__all__ = [
    "CalibrationTracker",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "global_metrics",
    "load_snapshot",
    "render_diff",
    "render_text",
    "write_snapshot",
]
