"""repro -- Communication Cost in Parallel Query Processing, reproduced.

A faithful, executable reproduction of Beame, Koutris, Suciu,
*Communication Cost in Parallel Query Processing* (EDBT 2015 / arXiv
1602.06236): the Massively Parallel Communication (MPC) model, the
HyperCube algorithm with LP-optimal shares, skew-aware star/triangle
algorithms, multi-round query plans, and every load / round / replication
bound the paper proves.

Quickstart -- configure the cluster once, run anything on it::

    import numpy as np
    from repro import Session, triangle_query, matching_database
    from repro.join import evaluate_arrays

    q = triangle_query()
    db = matching_database(q, m=1000, n=10_000, seed=0)
    with Session(p=64, seed=0) as session:
        result = session.run(q, db)          # planner picks the strategy
        expected = evaluate_arrays(q, db.arrays(q))   # one-server join
        assert np.array_equal(result.answers_array(), expected)
        print(result.strategy, result.rounds, result.load_report.max_load_bits)
        print(session.plan(q, db).table())   # EXPLAIN: ranked predictions

A :class:`~repro.session.Session` wraps the paper's fixed machine
configuration (:class:`~repro.session.ClusterConfig`: ``p`` servers,
seed, per-server capacity ``L``, memory budget) and exposes
one verb: ``session.run(query, db)`` routes through the cost-based
planner, ``session.run(query, db, strategy="skew-star")`` pins a named
algorithm, ``session.run_many([...])`` executes a batch of independent
jobs concurrently over shared storage, and ``session.history``
accumulates per-run load records for workload-level reporting.  Every
result -- whichever executor produced it, whichever pool carried it --
is one :class:`~repro.run.RunResult` (``answers``, ``answers_array()``,
``report`` / ``load_report``, ``rounds``, ``strategy``,
``predicted_bits``, ``servers_used``, engine-specific ``details``, and
the planner's ``explained`` / ``estimate`` / ``summary()``), and it
pickles.

Package map (see DESIGN.md for the paper-section correspondence):

* :mod:`repro.core` -- queries, packings/covers, share LPs, Friedgut/AGM
* :mod:`repro.data` -- relations and synthetic data generators
* :mod:`repro.hashing` -- PRF hash families, balls-in-bins (Appendix A)
* :mod:`repro.mpc` -- the round-based simulator with bit-level loads
* :mod:`repro.join` -- the one local join, ``evaluate_arrays`` (every
  server's computation phase, and the single-node ground truth)
* :mod:`repro.hypercube` -- the one-round HyperCube algorithm + baselines
* :mod:`repro.skew` -- heavy hitters, star/triangle algorithms, Thm 4.4
* :mod:`repro.multiround` -- plans, (eps, r)-plans, connected components
* :mod:`repro.bounds` -- one-round lower bounds, replication, entropy
* :mod:`repro.planner` -- cost-based strategy selection (`plan`, the
  strategy registry)
* :mod:`repro.storage` -- out-of-core chunked relations + spill files
* :mod:`repro.run` -- `RunResult` and `dispatch_run`: the one result
  type and the one internal run path every strategy hands its core to
* :mod:`repro.session` -- `Session`/`ClusterConfig`, the unified front
  door
* :mod:`repro.trace` -- per-event communication traces (JSONL
  artifacts, `TraceQuery` analysis, `python -m repro trace`)
* :mod:`repro.metrics` -- workload telemetry folded from each run's
  trace (counters / gauges / histograms, prediction-calibration
  tracking, `python -m repro metrics`)

``Session.run`` / ``Session.run_many`` are the only public run verbs.
Below them, :meth:`Strategy.run <repro.planner.strategies.Strategy.run>`
executes one strategy without planning, and
:func:`repro.run.dispatch_run` runs a strategy's executor core
(``Strategy.core``, e.g. ``repro.skew.star.star_core``) with
engine-only knobs (``keep_view_fragments``, ``partition_relation``)
-- bit-identical results on every path.  Only the planner prices a
run: ``predicted_bits`` is the estimate a session attached, and None
on a core run directly.

There is one execution engine: relations travel as ``(n, arity)``
int64 arrays and every received row is charged as one tuple of the
tuple-based MPC model (``arity * value_bits`` bits).  The test suite
checks it against a scalar router and backtracking join
(``tests/reference/``).

When the data outgrows RAM, attach a storage manager and everything
streams through disk-backed chunks with bit-identical results::

    from repro.storage import StorageManager
    with StorageManager.from_budget(2 * 1024**3) as storage:
        db = matching_database(q, m=10**8, n=4 * 10**8, storage=storage)
        result = Session(p=64, storage=storage).run(q, db, "hypercube")

(``Session(p=64, memory_budget_bytes=...)`` opens and closes such a
manager itself whenever a database outgrows the budget.)

To spread the simulated servers' routing and local joins across real
cores, pick a worker pool -- per session, or for every session through
the environment (read when a run resolves its settings).  Every pool
kind produces bit-identical answers and loads::

    with Session(p=64, pool="process") as session: ...   # one cluster
    # or: REPRO_DEFAULT_POOL=process python -m repro run triangle

To see *where* the communication went -- not just the end-of-run
aggregates -- trace a run.  Tracing is off by default, never perturbs
results, and writes compact JSONL artifacts::

    from repro import Session, TraceQuery
    with Session(p=64, seed=0, trace="traces/") as session:
        record = session.run(q, db)
    print(TraceQuery(session.history[0].trace_path).top_servers(k=5))
    # or offline: python -m repro trace traces/

For aggregates instead of event streams -- how many bits a workload
shipped, run latency histograms, how well the cost model predicted each
strategy -- turn on metrics, a fold over each run's trace (also never
perturbs results)::

    from repro import Session, global_metrics, render_text
    with Session(p=64, seed=0, metrics=True) as session:
        session.run_many(jobs, metrics_every=10)   # progress lines
        print(session.metrics.calibration.stats()) # measured/predicted
    print(render_text(global_metrics().snapshot()))
"""

import logging as _logging

from repro.config import MachineSpec, default_machines, default_pool
from repro.core import (
    Atom,
    ConjunctiveQuery,
    Statistics,
    binom_query,
    chain_query,
    cycle_query,
    k4_query,
    simple_join_query,
    spk_query,
    star_query,
    triangle_query,
)
from repro.data import (
    Database,
    Relation,
    matching_database,
    uniform_database,
    zipf_database,
)
from repro.metrics import (
    CalibrationTracker,
    MetricsRegistry,
    global_metrics,
    render_text,
)
from repro.mpc import MPCSimulation
from repro.bounds import lower_bound, upper_bound
from repro.planner import DataStatistics, ExplainedPlan
from repro.planner import plan as plan_query
from repro.run import RunResult
from repro.session import ClusterConfig, Job, RunRecord, Session
from repro.storage import ChunkedRelation, StorageManager
from repro.trace import Trace, TraceQuery, TraceRecorder, tracing

# Library logging convention: everything logs under the "repro"
# namespace and the root handler is a NullHandler, so the library is
# silent unless the application configures logging.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__version__ = "14.0.0"

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "Statistics",
    "binom_query",
    "chain_query",
    "cycle_query",
    "k4_query",
    "simple_join_query",
    "spk_query",
    "star_query",
    "triangle_query",
    "Database",
    "Relation",
    "matching_database",
    "uniform_database",
    "zipf_database",
    "ClusterConfig",
    "Job",
    "RunRecord",
    "RunResult",
    "Session",
    "default_pool",
    "MachineSpec",
    "default_machines",
    "ChunkedRelation",
    "StorageManager",
    "MPCSimulation",
    "Trace",
    "TraceQuery",
    "TraceRecorder",
    "tracing",
    "CalibrationTracker",
    "MetricsRegistry",
    "global_metrics",
    "render_text",
    "lower_bound",
    "upper_bound",
    "DataStatistics",
    "ExplainedPlan",
    "plan_query",
    "__version__",
]
