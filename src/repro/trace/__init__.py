"""``repro.trace`` -- the queryable communication-trace subsystem.

The paper's subject is communication cost; this package records it at
event granularity instead of end-of-run aggregates.  Tracing is **off
by default** and activated per run, either scoped::

    from repro.trace import tracing

    with tracing() as rec:
        result = Session(p=64).run(q, db, "hypercube")
    trace = rec.finish(report=result.load_report)
    trace.write_jsonl("run.jsonl")

or through the session front door, which writes one JSONL artifact per
run and points ``RunRecord.trace_path`` at it::

    with Session(p=64, seed=0, trace="traces/") as session:
        record = session.run(q, db)
    print(TraceQuery(record.trace_path).top_servers(k=5))

Enabling tracing never perturbs results: every engine stays
bit-identical (answers, per-server per-round bits, capacity drops) at
any pool kind x worker count x storage on/off, and a trace's
per-server bit totals reconcile exactly with the run's ``LoadReport``
(see ``TraceQuery.reconcile``).

Trace schema (JSONL: one JSON object per line, typed by ``"t"``)
----------------------------------------------------------------

``meta``
    Run identity, first line when present.  Keys: ``query`` (name),
    ``strategy``, ``label``, ``seed``, ``index`` (position in a
    ``run_many`` batch), ``version`` (repro release), ``pool`` (the
    worker-pool kind the run's fan-out used: the session's resolved
    kind), ``machines`` (the
    heterogeneous spec's ``describe()`` form, None for the
    homogeneous model).
``sim``
    Emitted when an ``MPCSimulation`` is constructed inside the traced
    scope.  Keys: ``p`` (number of servers, including any extra heavy
    servers an executor allocates), ``value_bits``, ``capacity_bits``
    (None: unbounded), ``on_overflow`` (``"fail"``/``"drop"``),
    ``storage`` (bool: spill-backed server state).
``send``
    One per simulator delivery -- the unit the MPC model accounts.
    Keys: ``r`` (1-based round), ``dst`` (destination server), ``tag``
    (relation/fragment tag), ``bits`` (accepted bits -- the model's
    load unit), ``n`` (accepted tuple count), ``drop`` (capacity-
    dropped bits; omitted when zero).
``round``
    End-of-round summary.  Keys: ``r``, ``total_bits``, ``max_bits``
    (the round's max per-server load), ``tuples``, ``dropped_bits``.
``spill``
    One per spill-file operation of the storage layer.  Keys: ``op``
    (``"write"``/``"read"``), ``path`` (chunk file), ``bytes``.
``task``
    One per worker-pool task, emitted by the parent in deterministic
    merge order.  Keys: ``kind`` (``"route"``/``"join"``), ``label``
    (relation tag or server id), ``seconds`` (the task body's own wall
    time, measured inside the worker), ``pool`` (the kind of the pool
    that ran it).
``phase``
    One per instrumented phase at sealing time.  Keys: ``name``
    (generate/route/ship/join/merge), ``seconds`` (exclusive wall
    time).
``run``
    Footer with the sealed run's aggregates.  Keys: ``p``,
    ``strategy``, ``rounds``, ``total_bits``, ``max_load_bits``,
    ``dropped_bits``, ``predicted_bits``/``predicted_rounds`` (the
    planner's prediction, None when not attached), ``server_bits``
    (per-server totals keyed by server id as a string), ``spill``
    (cumulative I/O counters for spill-backed runs), ``makespan_bits``
    (heterogeneous clusters only), ``wall_seconds``.

All ``bits`` fields are in the model's load unit (bits, not bytes);
``spill`` events use real file bytes.  The trace is the one
instrumentation stream: :meth:`repro.metrics.MetricsRegistry.observe`
computes a run's metrics from it.  Analysis lives in
:class:`TraceQuery` (filter/group/aggregate, top-k, predicted-vs-
measured deltas) and the ``python -m repro trace <file-or-dir>`` CLI.
"""

from repro.trace.query import TraceQuery
from repro.trace.recorder import Trace, TraceRecorder, active_recorder, tracing

__all__ = [
    "Trace",
    "TraceQuery",
    "TraceRecorder",
    "active_recorder",
    "tracing",
]
