"""``repro.metrics`` -- live workload telemetry over the trace seams.

Where :mod:`repro.trace` records *events* for post-hoc analysis, this
package keeps *aggregates* live: counters, gauges and fixed-bucket
histograms in a :class:`MetricsRegistry`, updated by the same
instrumented seams (simulator deliveries, storage spill I/O, the
worker-pool drivers, the shared run dispatch) plus a
:class:`CalibrationTracker` folding every planner-predicted run's
measured/predicted load ratio into per-strategy error statistics.

Metrics are **off by default** and activated per scope, either
directly::

    from repro.metrics import collecting

    with collecting() as reg:
        result = Session(p=64).run(q, db, "hypercube")
    assert reg.value("repro_sim_bits_total") == \\
        result.load_report.total_bits      # exact, float ==

or through the session front door, which keeps one aggregated view per
session and rolls it up into the process-wide registry::

    with Session(p=64, seed=0, metrics=True) as session:
        session.run_many(jobs, metrics_every=10)   # progress lines
        print(session.metrics.calibration.stats())
    from repro.metrics import global_metrics, render_text
    print(render_text(global_metrics().snapshot()))

Enabling metrics never perturbs results: every engine stays
bit-identical (answers, per-server per-round bits, capacity drops) at
any pool kind x worker count x storage on/off, the hooks read no wall
clock on identity-sensitive paths, and the per-run counter totals
reconcile exactly (float ``==``) with the run's ``LoadReport``.
Process-pool ``run_many`` workers count into their own registry and
ship the snapshot back through the pickled-result path; the parent
merges it, so the session view is pool-kind-independent.

Metric schema (all ``bits`` in the model's load unit; labels in
braces)
----------------------------------------------------------------------

``repro_sim_simulations_total`` (counter)
    ``MPCSimulation`` constructions inside a collecting scope.
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
    Storage-manager spill I/O, mirroring the trace ``spill`` events
    (real file bytes, not model bits).  A write is one append to a
    spool's segment file (one per flush, carrying one or more whole
    chunks), so the writes total equals ``StorageManager.writes`` --
    not ``files_created``, which counts segment files.  A read is one
    chunk read or one worker handle, as ``StorageManager.reads``.
``repro_pool_tasks_total{kind}`` (counter),
``repro_pool_task_seconds{kind}`` (histogram)
    Worker-pool route/join tasks merged by the drivers; seconds are
    the task body's own wall time measured inside the worker.
``repro_pool_queue_depth{kind}`` (gauge)
    In-flight tasks in a thread/process pool's bounded prefetch
    window; ``max`` is the high watermark.
``repro_runs_total{strategy}`` (counter),
``repro_run_seconds{strategy}`` / ``repro_run_rounds{strategy}`` /
``repro_run_load_bits{strategy}`` (histograms),
``repro_run_makespan_bits{strategy}`` (gauge)
    Per-dispatch run telemetry from the shared run path: run count,
    wall latency (throughput = ``count / sum``), rounds, max per-server
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
    active_metrics,
    collecting,
    global_metrics,
)

__all__ = [
    "CalibrationTracker",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_metrics",
    "collecting",
    "diff_snapshots",
    "global_metrics",
    "load_snapshot",
    "render_diff",
    "render_text",
    "write_snapshot",
]
