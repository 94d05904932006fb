"""``execute(query, db, p)``: plan, run the winner, check the model.

The execution engine closes the loop the paper leaves open: collect the
statistics every server is assumed to know, rank the strategies with
the closed-form cost model, run the predicted-cheapest one on the MPC
simulator, and attach the prediction to the measured
:class:`~repro.mpc.report.LoadReport` so every run reports how close
the model came (``report.prediction_ratio()``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

from repro.config import DEFAULT_SETTINGS, ExecutionSettings, resolve_machines
from repro.core.query import ConjunctiveQuery
from repro.data.database import Database
from repro.planner.optimizer import plan as rank_strategies
from repro.planner.statistics import DataStatistics
from repro.planner.strategies import Strategy
from repro.run import RunResult
from repro.storage.manager import StorageManager

#: How many times the input's bytes an in-memory columnar execution is
#: assumed to touch at peak (input + routed replicas + fragments +
#: join intermediates).  A memory budget below this footprint selects
#: chunked execution.
IN_MEMORY_FOOTPRINT_FACTOR = 4


def execute(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    seed: int = 0,
    strategy: str | None = None,
    strategies: Sequence[Strategy] | None = None,
    stats: DataStatistics | None = None,
    storage: StorageManager | None = None,
    memory_budget_bytes: int | None = None,
    settings: ExecutionSettings | None = None,
    shares: Mapping[str, int] | None = None,
    exponents: Mapping[str, float] | None = None,
    hitters: object | None = None,
    plan: object | None = None,
    storage_optional: bool = False,
) -> RunResult:
    """Plan ``query`` against ``database`` and run the chosen strategy.

    The result carries the planner's context (see
    :class:`~repro.run.RunResult`): ``explained`` (the EXPLAIN ranking),
    ``estimate`` (the chosen candidate's; ``predicted_bits`` is its
    load), ``storage`` (an engine-opened manager, see below) and
    ``budget_outcome``.

    ``strategy`` forces a specific (applicable) strategy by name instead
    of the ranked winner -- useful for ablations and for comparing the
    planner's pick against an alternative on the same input.

    ``stats`` accepts already-collected :class:`DataStatistics` (e.g.
    ``plan(...).statistics`` from a prior call), so the common
    plan-then-execute pattern scans the database for heavy-hitter
    frequencies once, not twice.

    ``memory_budget_bytes`` makes the engine memory-aware: when the
    assumed in-memory footprint (input bytes times
    :data:`IN_MEMORY_FOOTPRINT_FACTOR`) exceeds the budget, it opens a
    :class:`StorageManager` sized by
    :meth:`StorageManager.from_budget` and runs the winner chunked.
    Under an active manager the statistics default to the *sampled*
    estimator (:meth:`DataStatistics.from_sample`) rather than the
    exact frequency scan, whose per-value counters would themselves
    blow the budget at out-of-core scales (pass ``stats`` explicitly
    to override).  A winner that cannot stream (its
    :meth:`~repro.planner.strategies.Strategy.streams` is false, e.g.
    ``settings.backend="tuples"`` or an in-memory baseline) runs without
    the manager, which is closed and *not* attached -- callers can
    tell from ``.storage is None`` that the budget was not enforced.
    The attached manager cleans up on garbage collection or an
    explicit ``close()``.

    Passing an explicit ``storage`` *demands* chunked execution: if the
    chosen strategy cannot stream (``streams()`` is false), the engine
    raises ``ValueError`` rather than silently ignoring the caller's
    memory constraint -- unless ``storage_optional=True``, which runs
    the winner in memory instead and reports ``budget_outcome =
    "not-enforced"`` (the contract a :class:`repro.session.Session`'s
    shared manager wants).  (``.storage`` on the result stays reserved
    for the engine-owned manager; an explicit manager remains owned by
    the caller.)

    ``settings`` threads a :class:`~repro.config.ExecutionSettings`
    (backend, capacity cap, hash method, chunk granularity) into
    whichever strategy runs; ``shares``/``exponents``/``hitters``/
    ``plan`` are per-run overrides forwarded to strategies that accept
    them (pinning e.g. ``strategy="hypercube", shares={...}``) and
    rejected loudly by the rest.
    """
    settings = settings or DEFAULT_SETTINGS
    owned: StorageManager | None = None
    budget_outcome: str | None = None
    if storage is None and memory_budget_bytes is not None:
        footprint = database.total_bytes() * IN_MEMORY_FOOTPRINT_FACTOR
        if footprint > memory_budget_bytes:
            owned = storage = StorageManager.from_budget(memory_budget_bytes)
            budget_outcome = "chunked"
        else:
            budget_outcome = "fits"
    try:
        if stats is not None:
            dstats = stats
        elif storage is not None:
            dstats = DataStatistics.from_sample(query, database, p)
        else:
            dstats = DataStatistics.from_database(query, database, p)
        # Rank under the cluster's machine spec (config/default), so a
        # heterogeneous session's winner minimizes predicted makespan.
        machines = resolve_machines(settings.machines, p)
        explained = rank_strategies(
            query, dstats, p, strategies=strategies, machines=machines
        )
        if strategy is None:
            candidate = explained.winner
        else:
            candidate = explained.candidate(strategy)
            if not candidate.applicable:
                raise ValueError(
                    f"strategy {strategy!r} is not applicable here: "
                    f"{candidate.reason}"
                )
        if storage is not None and not candidate.strategy.streams(settings):
            if owned is None and not storage_optional:
                # The caller demanded chunked execution; refusing is
                # better than silently dropping a memory constraint.
                raise ValueError(
                    f"strategy {candidate.name!r} cannot stream through "
                    "a storage manager (tuple backend or in-memory "
                    "baseline); pick a streaming strategy or use "
                    "memory_budget_bytes"
                )
            # The budget-opened manager would be ignored: run
            # in-memory and report that honestly via .storage = None.
            if owned is not None:
                owned.close()
                owned = None
            storage = None
            budget_outcome = "not-enforced"
        result = candidate.strategy.run(
            query, database, p, seed=seed, dstats=dstats, storage=storage,
            settings=settings, shares=shares, exponents=exponents,
            hitters=hitters, plan=plan,
        )
    except Exception:
        if owned is not None:
            owned.close()
        raise
    result.report.attach_prediction(
        candidate.name,
        candidate.estimate.load_bits,
        candidate.estimate.rounds,
    )
    return replace(
        result,
        predicted_bits=candidate.estimate.load_bits,
        explained=explained,
        estimate=candidate.estimate,
        storage=owned,
        budget_outcome=budget_outcome,
    )
