"""One front door: a configured cluster, many queries.

The MPC model fixes a cluster once -- ``p`` servers, a per-server
capacity ``L`` -- and then asks how *any* query runs on it.  This
module gives the Python API the same shape:

* :class:`ClusterConfig` is the frozen description of that cluster
  (servers, seed, capacity cap, routing PRF, memory budget, chunk
  granularity, worker pool, machine spec);
* :class:`Session` owns the derived storage lifecycle and exposes one
  verb, :meth:`Session.run` -- planner-routed by default, pinnable to
  any named strategy -- plus :meth:`Session.plan` (EXPLAIN),
  :meth:`Session.run_many` (a batch of jobs on threads, over shared
  storage) and :attr:`Session.history` (per-run load records for
  workload-level reporting);
* :class:`~repro.run.RunResult` (re-exported here) is what every run
  returns, whichever engine produced it and whichever pool carried it.

:meth:`Session.run` and :meth:`Session.run_many` are the only public
run verbs, and both hand each run to one method as a :class:`Job`.
Each run collects statistics, ranks the strategies, and reaches the
chosen one's executor core (``Strategy.core``) through
:meth:`~repro.planner.strategies.Strategy.run` and
:func:`repro.run.dispatch_run`, so *every* execution funnels through
one resolution of the run's settings against its storage and ``p``
(:meth:`repro.config.ExecutionSettings.resolve`).  The winning
estimate is the run's one prediction: the session attaches it to the
report.

Quickstart::

    from repro import Job, Session, star_query, triangle_query
    from repro import matching_database, zipf_database

    q = triangle_query()
    db = matching_database(q, m=100_000, n=400_000, seed=0)
    with Session(p=64, seed=0) as session:
        result = session.run(q, db)                 # planner-routed
        pinned = session.run(q, db, strategy="skew-triangle")
        print(session.plan(q, db).table())          # EXPLAIN

        zq = star_query(2)
        zdb = zipf_database(zq, m=50_000, n=50_000, skew=1.0, seed=1)
        results = session.run_many(
            [Job(q, db), Job(zq, zdb)], max_workers=2
        )
        print(session.workload_summary())           # history percentiles

Batch jobs draw per-job seeds via :func:`repro.hashing.derive_seed`
(job ``i`` runs with ``derive_seed(config.seed, i)``), so a workload is
reproducible and independent of ``max_workers``.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from repro.config import ExecutionSettings, MachineSpec, PoolKind
from repro.core.query import ConjunctiveQuery
from repro.data.database import Database
from repro.hashing.family import derive_seed
from repro.metrics.registry import MetricsRegistry, global_metrics
from repro.mpc.report import percentiles
from repro.mpc.timing import format_phase_seconds
from repro.parallel.pool import default_max_workers
from repro.multiround.plans import Plan
from repro.planner.engine import IN_MEMORY_FOOTPRINT_FACTOR
from repro.planner.optimizer import ExplainedPlan, plan as _planner_plan
from repro.planner.statistics import DataStatistics
from repro.run import RunResult
from repro.skew.heavy_hitters import HitterStatistics
from repro.storage.manager import StorageManager
from repro.trace.recorder import TraceRecorder, tracing

_TRACE_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]+")


def _progress_line(
    done: int,
    total: int,
    started: float,
    outcome: tuple[tuple[RunResult, RunRecord] | None, Exception | None],
) -> str:
    """``run_many``'s ``metrics_every`` line after ``done`` jobs."""
    elapsed = time.perf_counter() - started  # repro: allow(wall-clock) -- progress-line timing only
    pair, error = outcome
    last = (
        f"last {pair[1].strategy} {pair[1].wall_seconds * 1e3:.1f} ms"
        if error is None
        else "last job failed"
    )
    return (
        f"[repro.metrics] {done}/{total} job(s) done, "
        f"{elapsed:.1f}s elapsed, {last}"
    )


def _repro_version() -> str:
    # Lazy: repro/__init__ imports this module.
    from repro import __version__

    return __version__


@dataclass(frozen=True)
class ClusterConfig:
    """The fixed machine configuration of the MPC model, as one value.

    Everything that describes the *cluster* -- as opposed to a single
    query -- lives here: the number of servers ``p``, the base seed
    every run derives from, the per-server per-round capacity ``L`` and
    its overflow policy, the routing PRF, and the memory story (budget
    and chunk granularity).  A :class:`Session` applies one config
    uniformly to every run.
    """

    p: int
    seed: int = 0
    capacity_bits: float | None = None
    on_overflow: Literal["fail", "drop"] = "fail"
    hash_method: str = "splitmix64"
    memory_budget_bytes: int | None = None
    chunk_rows: int | None = None
    #: Worker pool for each run's per-server routing and joins (the
    #: engines' fan-out only: :meth:`Session.run_many` runs its jobs on
    #: threads whatever this is).
    pool: PoolKind = "serial"
    #: Workers per engine pool (``None``: one per CPU core, capped at
    #: 8; :func:`repro.parallel.pool.default_max_workers`).
    max_workers: int | None = None
    #: Directory for per-run communication-trace artifacts (created if
    #: missing).  ``None`` (the default) disables tracing.  When set,
    #: every run records a :mod:`repro.trace` event stream, writes it
    #: as one JSONL file under this directory, and points
    #: ``RunRecord.trace_path`` at it.  Tracing never perturbs results.
    trace: "str | pathlib.Path | None" = None
    #: Per-machine speeds and capacities (a :class:`MachineSpec`, or a
    #: pattern string like ``"4x1,4x2"``) with exactly ``p`` machines;
    #: ``None`` is the homogeneous model.
    machines: "MachineSpec | str | None" = None
    #: Collect telemetry (:mod:`repro.metrics`) for every run: each run
    #: records its trace events (in memory; written out only when
    #: ``trace`` is set) and folds them into a :class:`MetricsRegistry`
    #: once it finishes.  The session keeps one aggregated registry
    #: (:attr:`Session.metrics`) and rolls every run into the
    #: process-wide registry; per-run counter totals reconcile exactly
    #: with the run's :class:`~repro.mpc.report.LoadReport`, and
    #: results stay bit-identical to a metrics-off run.
    metrics: bool = False

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("need at least one server")
        if isinstance(self.machines, str):
            object.__setattr__(
                self, "machines", MachineSpec.parse(self.machines)
            )
        if self.machines is not None:
            self.machines.require_p(self.p)
        if (
            self.memory_budget_bytes is not None
            and self.memory_budget_bytes < 1
        ):
            raise ValueError("memory_budget_bytes must be >= 1")
        # Delegate the remaining validation (overflow policy, hash
        # method, chunk_rows, pool, max_workers) to the settings value
        # object.
        self.settings()

    def settings(self) -> ExecutionSettings:
        """The per-run execution knobs this cluster prescribes."""
        return ExecutionSettings(
            capacity_bits=self.capacity_bits,
            on_overflow=self.on_overflow,
            hash_method=self.hash_method,
            chunk_rows=self.chunk_rows,
            pool=self.pool,
            max_workers=self.max_workers,
            machines=self.machines,
        )


@dataclass(frozen=True)
class Job:
    """One unit of a :meth:`Session.run_many` workload.

    ``seed=None`` (the default) derives the job's seed from the
    session seed and the job's position via
    :func:`repro.hashing.derive_seed`, so batches are reproducible and
    independent of scheduling.  ``stats`` forwards pre-collected
    :class:`DataStatistics` (plan once, run many); ``label`` names the
    job in :attr:`Session.history`.
    """

    query: ConjunctiveQuery
    database: Database
    strategy: str | None = None
    shares: Mapping[str, int] | None = None
    exponents: Mapping[str, float] | None = None
    hitters: object | None = None
    plan: Plan | None = None
    stats: DataStatistics | None = None
    seed: int | None = None
    label: str | None = None


@dataclass(frozen=True)
class RunRecord:
    """One row of :attr:`Session.history`: the load story of one run.

    ``label`` defaults to ``run-<index>`` (the record's position in
    the history) when the caller named neither the run nor the job.
    """

    label: str | None
    query: str
    strategy: str
    p: int
    seed: int
    rounds: int
    max_load_bits: float
    total_bits: float
    dropped_bits: float
    predicted_bits: float | None
    percentiles: Mapping[str, float]
    wall_seconds: float
    #: Exclusive per-phase wall-clock seconds
    #: (``generate``/``route``/``ship``/``join``/``merge``), from the
    #: executor's :class:`~repro.mpc.timing.PhaseTimer`.
    phase_seconds: Mapping[str, float] = field(default_factory=dict)
    #: The run's JSONL trace artifact, when the session traced
    #: (``ClusterConfig(trace=...)``); None otherwise.
    trace_path: str | None = None
    #: The run's machine spec (``MachineSpec.describe()`` form, e.g.
    #: ``"4x1+4x4"``) when the cluster was heterogeneous; None for the
    #: homogeneous model.
    machines: str | None = None
    #: ``max over rounds, servers of L_s / v_s`` -- the speed-normalized
    #: load (``LoadReport.makespan_bits``); recorded only for
    #: heterogeneous runs (it equals ``max_load_bits`` otherwise).
    makespan_bits: float | None = None

    def line(self) -> str:
        """A one-line rendering for workload summaries."""
        predicted = (
            f", predicted {self.predicted_bits:.0f}"
            if self.predicted_bits is not None
            else ""
        )
        dropped = (
            f", dropped {self.dropped_bits:.0f}" if self.dropped_bits else ""
        )
        phases = (
            f" [{format_phase_seconds(self.phase_seconds)}]"
            if self.phase_seconds
            else ""
        )
        makespan = (
            f", makespan {self.makespan_bits:.0f}"
            if self.makespan_bits is not None
            else ""
        )
        return (
            f"{self.label}: {self.strategy}, {self.rounds} round(s), "
            f"L = {self.max_load_bits:.0f} bits{predicted}{dropped}"
            f"{makespan}, "
            f"p99 {self.percentiles.get('p99', 0.0):.0f}, "
            f"{self.wall_seconds * 1e3:.1f} ms{phases}"
        )


class Session:
    """A configured cluster serving many queries: the one front door.

    Construct from a :class:`ClusterConfig` or directly from its
    knobs::

        with Session(p=64, seed=0, capacity_bits=1e6) as session:
            result = session.run(query, db)

    The session owns the storage lifecycle its configuration implies:
    with ``memory_budget_bytes`` set, a shared
    :class:`~repro.storage.manager.StorageManager` (sized by
    :meth:`StorageManager.from_budget`) opens lazily for the first
    database whose assumed in-memory footprint exceeds the budget, is
    shared by every subsequent over-budget run -- including all jobs
    of a :meth:`run_many` batch -- and closes (removing its spill
    files) with the session.  An explicit ``storage=`` manager is used
    for every run instead and stays owned by the caller.

    :meth:`run` routes through the cost-based planner by default and
    pins any registered strategy by name; either way the execution
    flows through :func:`repro.run.dispatch_run`, so a pinned
    ``session.run(q, db, "skew-star")`` is bit-identical (answers,
    per-server loads, capacity truncation) to
    ``dispatch_run(star_core, q, db, p, ...)`` with the same knobs.

    Every finished run appends a :class:`RunRecord` to
    :attr:`history`; :meth:`workload_summary` renders the accumulated
    records with workload-level load percentiles.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        *,
        storage: StorageManager | None = None,
        **knobs: object,
    ) -> None:
        if config is None:
            config = ClusterConfig(**knobs)
        elif knobs:
            raise TypeError(
                "pass either a ClusterConfig or keyword knobs, not both"
            )
        self.config = config
        self.history: list[RunRecord] = []
        #: The session's aggregated telemetry view
        #: (``ClusterConfig(metrics=True)``); None when disabled.
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if config.metrics else None
        )
        self._external_storage = storage
        self._owned_storage: StorageManager | None = None
        self._closed = False
        self._lock = threading.Lock()
        self._trace_counter = 0

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the session and any storage it opened (idempotent).

        Materialize lazily-answered results *before* closing: spooled
        outputs live in the session-owned spill directory.
        """
        if self._closed:
            return
        self._closed = True
        if self._owned_storage is not None:
            self._owned_storage.close()
            self._owned_storage = None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def storage(self) -> StorageManager | None:
        """The manager runs share (None while fully in-memory)."""
        if self._external_storage is not None:
            return self._external_storage
        return self._owned_storage

    def _storage_for(self, database: Database) -> StorageManager | None:
        """The manager one run over ``database`` should use.

        The one budget rule: an explicit manager always applies; a
        configured budget applies only when the database's assumed
        in-memory footprint (:data:`IN_MEMORY_FOOTPRINT_FACTOR` times
        its bytes) exceeds it, opening the shared session manager on
        first use.  Every strategy streams through the manager it is
        given, and its report then carries ``spill_stats``.
        """
        if self._external_storage is not None:
            return self._external_storage
        budget = self.config.memory_budget_bytes
        if budget is None:
            return None
        footprint = database.total_bytes() * IN_MEMORY_FOOTPRINT_FACTOR
        if footprint <= budget:
            return None
        with self._lock:
            if self._owned_storage is None:
                self._owned_storage = StorageManager.from_budget(budget)
            return self._owned_storage

    # ----------------------------------------------------------------- runs

    def run(
        self,
        query: ConjunctiveQuery,
        database: Database,
        strategy: str | None = None,
        *,
        shares: Mapping[str, int] | None = None,
        exponents: Mapping[str, float] | None = None,
        hitters: HitterStatistics | Mapping[str, HitterStatistics] | None = None,
        plan: Plan | None = None,
        stats: DataStatistics | None = None,
        seed: int | None = None,
        label: str | None = None,
    ) -> RunResult:
        """Run one query on the configured cluster.

        With ``strategy=None`` the cost-based planner ranks every
        registered strategy and runs the predicted winner; a name pins
        any applicable strategy (``"hypercube"``, ``"skew-star"``,
        ``"multiround"``, ...).  ``shares``/``exponents`` (share
        based strategies), ``hitters`` (skew-aware ones) and ``plan``
        (multi-round) override per run; strategies that cannot honor
        an override reject it.

        ``stats`` forwards pre-collected :class:`DataStatistics`.
        Without them the run collects exact statistics -- identical
        decisions at any scale, with or without a memory budget; pass
        ``stats=DataStatistics.from_sample(...)`` to trade exactness
        for scan cost on genuinely out-of-core inputs.

        The result carries the planner's context: ``explained`` (the
        EXPLAIN ranking), ``estimate`` (the chosen candidate's) and
        ``predicted_bits`` (its load); an inapplicable pinned strategy
        raises ``ValueError`` before anything runs.

        ``seed`` overrides the session seed for this run only.  The
        run is recorded in :attr:`history` (as ``label``, default
        ``run-<index>``).
        """
        result, record = self._execute(Job(
            query, database, strategy, shares=shares, exponents=exponents,
            hitters=hitters, plan=plan, stats=stats, seed=seed, label=label,
        ))
        self._append_records([record])
        return result

    def plan(
        self,
        query: ConjunctiveQuery,
        source: "Database | DataStatistics",
        strategies: Sequence | None = None,
    ) -> ExplainedPlan:
        """EXPLAIN: rank every strategy for this cluster, run nothing.

        ``source`` is a :class:`Database` (statistics are collected),
        pre-collected :class:`DataStatistics`, or bare
        :class:`~repro.core.stats.Statistics`.  A heterogeneous cluster
        (``ClusterConfig(machines=...)``) prices every strategy under
        the makespan objective; the table says so.
        """
        return _planner_plan(
            query,
            source,
            self.config.p,
            strategies=strategies,
            machines=self.config.machines,
        )

    def run_many(
        self,
        jobs: Iterable[Job | tuple[ConjunctiveQuery, Database]],
        max_workers: int | None = None,
        metrics_every: int | None = None,
    ) -> list[RunResult]:
        """Run independent jobs concurrently over shared storage.

        ``jobs`` are :class:`Job` values (bare ``(query, database)``
        pairs are accepted); results return in job order.  Each job
        without an explicit seed runs with
        ``derive_seed(config.seed, index)``, so the results --
        answers, loads, truncation -- are identical whatever
        ``max_workers`` is, including sequential execution at
        ``max_workers=1``.

        Every job runs in this session, on up to ``max_workers``
        threads (inline when that is 1 or there is one job);
        ``max_workers=None`` picks ``min(default_max_workers(),
        len(jobs))``.  ``config.pool`` does not pick the batch's
        concurrency: it picks where each job's routing and joins fan
        out, so the job threads of ``Session(pool="process")`` share
        one cached process pool.

        All jobs' records append to :attr:`history` in job order after
        the batch completes.  When a job raises (an inapplicable
        pinned strategy, say), the remaining jobs still run, the
        *successful* jobs' records are still appended, and the first
        failure then re-raises -- so one bad job cannot erase a
        batch's worth of completed work from the history.

        The memory budget is advisory *per run*: a concurrent batch
        holds up to ``max_workers`` runs' working sets at once, so
        size ``memory_budget_bytes`` for the batch (divide a hard
        machine budget by the worker count) when it is tight.

        ``metrics_every=N`` prints one progress line per ``N``
        completed jobs (and at the end of the batch) -- jobs done,
        elapsed wall time, and the last run's strategy and latency.
        It works with or without ``ClusterConfig(metrics=True)``:
        the lines read :class:`RunRecord` fields, not the registry.
        """
        if metrics_every is not None and metrics_every < 1:
            raise ValueError("metrics_every must be >= 1")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        normalized = [self._coerce_job(job) for job in jobs]
        if not normalized:
            return []
        total = len(normalized)
        if max_workers is None:
            max_workers = min(default_max_workers(), total)
        batch_started = time.perf_counter()  # repro: allow(wall-clock) -- progress-line timing only
        outcomes = []
        with (
            ThreadPoolExecutor(max_workers=max_workers)
            if max_workers > 1 and total > 1
            else contextlib.nullcontext()
        ) as executor:
            run_all = map if executor is None else executor.map
            for outcome in run_all(self._try_run_job, normalized, range(total)):
                outcomes.append(outcome)
                done = len(outcomes)
                if metrics_every is not None and (
                    done % metrics_every == 0 or done == total
                ):
                    print(_progress_line(done, total, batch_started, outcome))
        self._append_records(
            [pair[1] for pair, error in outcomes if error is None]
        )
        for _, error in outcomes:
            if error is not None:
                raise error
        return [pair[0] for pair, _ in outcomes]

    # -------------------------------------------------------------- history

    def workload_percentiles(self) -> dict[str, float]:
        """Percentiles of per-run maximum loads across the history."""
        loads = [record.max_load_bits for record in self.history]
        return percentiles(np.array(loads, dtype=np.float64))

    def workload_summary(self) -> str:
        """The accumulated history, one line per run plus percentiles."""
        machines = self.config.machines
        cluster = (
            f", machines {machines.describe()}"
            if machines is not None and not machines.is_uniform
            else ""
        )
        lines = [
            f"session workload: p={self.config.p}{cluster}, "
            f"{len(self.history)} run(s)"
        ]
        lines += [f"  {record.line()}" for record in self.history]
        if self.history:
            pct = self.workload_percentiles()
            lines.append(
                f"  per-run L percentiles: p50 {pct['p50']:.0f}, "
                f"p90 {pct['p90']:.0f}, p99 {pct['p99']:.0f}, "
                f"max {pct['max']:.0f} bits"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------ internals

    @staticmethod
    def _coerce_job(job: Job | tuple[ConjunctiveQuery, Database]) -> Job:
        if isinstance(job, Job):
            return job
        query, database = job
        return Job(query, database)

    def _try_run_job(
        self, job: Job, index: int
    ) -> tuple[tuple[RunResult, RunRecord] | None, Exception | None]:
        """Run one batch job, capturing (not raising) its failure.

        ``run_many`` inspects the whole batch afterwards: successful
        records reach the history even when a sibling job failed.
        """
        if job.seed is None:
            job = replace(job, seed=derive_seed(self.config.seed, index))
        try:
            return self._execute(job), None
        except Exception as exc:
            return None, exc

    def _execute(self, job: Job) -> tuple[RunResult, RunRecord]:
        """Plan, run and record one job (``seed=None``: the session's)."""
        if self._closed:
            raise RuntimeError("session is closed")
        settings = self.config.settings()
        p = self.config.p
        query, database, label = job.query, job.database, job.label
        storage = self._storage_for(database)
        run_seed = self.config.seed if job.seed is None else job.seed
        # A traced or metered run records one event stream.  The
        # context-variable scope makes every simulator and storage
        # manager constructed during this run record into this recorder
        # -- including on a run_many worker thread, where the context is
        # private to the thread.
        recorder = (
            TraceRecorder()
            if self.config.trace is not None or self.metrics is not None
            else None
        )
        started = time.perf_counter()  # repro: allow(wall-clock) -- RunRecord.wall_seconds telemetry
        with (
            tracing(recorder) if recorder is not None
            else contextlib.nullcontext()
        ):
            stats = job.stats
            if stats is None:
                stats = DataStatistics.from_database(query, database, p)
            # Rank under the cluster's machine spec, so a heterogeneous
            # session's winner minimizes predicted makespan.
            explained = _planner_plan(
                query, stats, p, machines=settings.machines
            )
            if job.strategy is None:
                candidate = explained.winner
            else:
                candidate = explained.candidate(job.strategy)
                if not candidate.applicable:
                    raise ValueError(
                        f"strategy {job.strategy!r} is not applicable here: "
                        f"{candidate.reason}"
                    )
            result = candidate.strategy.run(
                query, database, p, seed=run_seed, dstats=stats,
                storage=storage, settings=settings, shares=job.shares,
                exponents=job.exponents, hitters=job.hitters, plan=job.plan,
            )
        estimate = candidate.estimate
        result.report.attach_prediction(
            candidate.name, estimate.load_bits, estimate.rounds
        )
        result = replace(result, explained=explained, estimate=estimate)
        wall = time.perf_counter() - started  # repro: allow(wall-clock) -- RunRecord.wall_seconds telemetry
        report = result.load_report
        # The spec the run actually used (the simulator records the
        # resolved settings' spec).
        machines = report.machines
        heterogeneous = machines is not None and not machines.is_uniform
        trace_path: str | None = None
        if recorder is not None:
            trace = recorder.finish(
                report=report,
                meta={
                    "query": query.name or "q",
                    "strategy": result.strategy,
                    "label": label,
                    "seed": run_seed,
                    "version": _repro_version(),
                    "pool": settings.pool,
                    "machines": (
                        machines.describe() if machines is not None else None
                    ),
                },
                wall_seconds=wall,
            )
            if self.config.trace is not None:
                trace_path = str(trace.write_jsonl(self._trace_file(
                    label or query.name or "run"
                )))
            if self.metrics is not None:
                # A fresh per-run registry, merged into the session and
                # process-wide views: per-run totals reconcile exactly
                # with the run's LoadReport.
                run_metrics = MetricsRegistry().observe(trace)
                ratio = report.prediction_ratio()
                if ratio is not None:
                    run_metrics.calibration.observe(result.strategy, ratio)
                delta = run_metrics.snapshot()
                self.metrics.merge(delta)
                global_metrics().merge(delta)
        record = RunRecord(
            label=label,
            query=query.name or "q",
            strategy=result.strategy,
            p=p,
            seed=run_seed,
            rounds=report.num_rounds,
            max_load_bits=report.max_load_bits,
            total_bits=report.total_bits,
            dropped_bits=report.dropped_bits,
            predicted_bits=result.predicted_bits,
            percentiles=report.load_percentiles(),
            wall_seconds=wall,
            phase_seconds=dict(report.phase_seconds),
            trace_path=trace_path,
            machines=(
                machines.describe() if heterogeneous else None
            ),
            makespan_bits=(
                report.makespan_bits if heterogeneous else None
            ),
        )
        return result, record

    def _trace_file(self, stem: str) -> pathlib.Path:
        """A fresh artifact path under the configured trace directory.

        Unique across the session's threads (counter under the lock)
        and across processes tracing into one directory (the pid
        disambiguates).
        """
        directory = pathlib.Path(self.config.trace)
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            self._trace_counter += 1
            counter = self._trace_counter
        safe = _TRACE_SAFE_NAME.sub("_", stem)[:40] or "run"
        return directory / f"{safe}-{os.getpid()}-{counter:04d}.jsonl"

    def _append_records(self, records: list[RunRecord]) -> None:
        with self._lock:
            for record in records:
                if record.label is None:
                    record = replace(
                        record, label=f"run-{len(self.history)}"
                    )
                self.history.append(record)

    def __repr__(self) -> str:
        storage = self.storage
        return (
            f"Session(p={self.config.p}, runs={len(self.history)}"
            + (f", storage={storage.root}" if storage is not None else "")
            + ")"
        )
