"""One finished run, and the one path that produces it.

The MPC model scores every algorithm by the same three quantities --
``p`` servers, rounds, per-server load ``L`` -- so every executor
returns the same value: a :class:`RunResult`.  What differs between
engines (the shares HyperCube chose, the heavy hitters the skew
algorithms split on, the plan a multi-round run followed) sits in
:attr:`RunResult.details`; what the planner adds when it picked the
strategy (the EXPLAIN table and the estimate) sits in the optional
context fields.

:func:`dispatch_run` is the one internal run path:
:meth:`repro.session.Session.run` plans, then reaches it through the
chosen :class:`~repro.planner.strategies.Strategy`.  The engines
register their executor cores with :func:`implements`; the settings are
resolved, the spill traffic attributed and the per-run metrics observed
here, once, for all of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.config import ExecutionSettings
from repro.data.arrays import unique_rows
from repro.join.binary import reorder
from repro.metrics.registry import active_metrics

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.query import ConjunctiveQuery
    from repro.core.stats import Statistics
    from repro.data.database import Database
    from repro.mpc.report import LoadReport
    from repro.mpc.simulator import MPCSimulation
    from repro.planner.cost import CostEstimate
    from repro.planner.optimizer import ExplainedPlan
    from repro.storage.manager import StorageManager


@dataclass(eq=False, repr=False)
class RunResult:
    """What one execution produced, whichever engine ran it.

    Answers materialize lazily from the live ``simulation`` (converting
    millions of array-backed answers into Python tuples dominates a
    columnar run, so it only happens when somebody asks).  Pickling --
    and :meth:`detached` -- swaps the simulation for the canonical
    answer array, so a result crosses a process boundary as itself and
    outlives the session, simulator and spill directory that made it.
    """

    query: ConjunctiveQuery
    strategy: str
    report: LoadReport
    #: Where the answers come from: the live simulation, or the
    #: materialized ``(n, k)`` array once :meth:`detached`.
    source: MPCSimulation | np.ndarray
    servers_used: int
    #: The load the strategy was expected to reach: the engine's own
    #: closed form (Eq. 20, Section 4.2.2) or the planner's estimate.
    predicted_bits: float | None = None
    #: Engine-specific facts: ``shares`` (HyperCube family),
    #: ``heavy_hitters`` (star), ``heavy1``/``heavy2`` (triangle),
    #: ``plan``/``view_fragments`` (multi-round).
    details: dict[str, Any] = field(default_factory=dict)
    #: Column order of the simulation's output rows when it is not the
    #: query's head order (a multi-round root view).
    schema: tuple[str, ...] | None = None
    #: Planner context (None for a strategy run directly): the EXPLAIN
    #: ranking and the winning estimate.
    explained: ExplainedPlan | None = None
    estimate: CostEstimate | None = None
    _answers: set[tuple[int, ...]] | None = None

    @property
    def simulation(self) -> MPCSimulation | None:
        """The live simulation (None once :meth:`detached`)."""
        return None if isinstance(self.source, np.ndarray) else self.source

    @property
    def answers(self) -> set[tuple[int, ...]]:
        """The distinct answers as Python tuples, in head order."""
        if self._answers is None:
            if isinstance(self.source, np.ndarray):
                self._answers = set(map(tuple, self.source.tolist()))
            elif self.schema is None:
                self._answers = self.source.outputs()
            else:
                self._answers = reorder(
                    self.source.outputs(), self.schema, self.query.variables
                )
        return self._answers

    def answers_array(self) -> np.ndarray:
        """The distinct answers as a canonical ``(n, k)`` int64 array."""
        if isinstance(self.source, np.ndarray):
            return self.source
        head = self.query.variables
        if self.schema is None:
            return self.source.outputs_array(len(head))
        rows = self.source.outputs_array(len(self.schema))
        return unique_rows(rows[:, [self.schema.index(v) for v in head]])

    @property
    def load_report(self) -> LoadReport:
        return self.report

    @property
    def rounds(self) -> int:
        return self.report.num_rounds

    @property
    def max_load_bits(self) -> float:
        return self.report.max_load_bits

    @property
    def max_load_tuples(self) -> int:
        return self.report.max_load_tuples

    def replication_rate(self, stats: Statistics) -> float:
        return self.report.replication_rate(stats.total_bits)

    def summary(self) -> str:
        """The EXPLAIN table (planner runs) plus the measured outcome."""
        ratio = self.report.prediction_ratio()
        lines = [self.explained.table()] if self.explained is not None else []
        lines += [
            f"  executed {self.strategy}: measured L = "
            f"{self.max_load_bits:.4g} bits"
            + (f" (measured/predicted = {ratio:.2f})" if ratio else ""),
            f"  {self.report.percentile_line()}",
        ]
        spill = self.report.spill_stats
        if spill is not None:
            lines.append(
                "  out-of-core: spilled "
                f"{spill['bytes_written'] / 2**20:.1f} MiB in "
                f"{spill['files_created']} spill files"
            )
        return "\n".join(lines)

    def detached(self) -> RunResult:
        """A copy that needs nothing the run left behind.

        Holds the materialized answer array instead of the simulation
        and no per-server ``view_fragments`` (which may be spools in a
        spill directory).  Take it *before* the session or manager that
        ran the query closes.
        """
        if isinstance(self.source, np.ndarray):
            return self
        details = {
            key: value
            for key, value in self.details.items()
            if key != "view_fragments"
        }
        return replace(
            self, source=self.answers_array(), details=details, _answers=None,
        )

    def __getstate__(self) -> dict[str, Any]:
        return self.detached().__dict__

    def __repr__(self) -> str:
        return (
            f"RunResult(strategy={self.strategy!r}, "
            f"query={self.query.name or 'q'!r}, rounds={self.rounds}, "
            f"L={self.max_load_bits:.0f} bits)"
        )


Implementation = Callable[..., RunResult]

#: The executor cores behind :func:`dispatch_run`, by strategy name.
#: Each takes ``(query, database, p, *, seed, settings, storage, ...)``
#: with an already-resolved :class:`ExecutionSettings`.
_IMPLEMENTATIONS: dict[str, Implementation] = {}


def implements(strategy: str) -> Callable[[Implementation], Implementation]:
    """Register the decorated executor core under ``strategy``."""

    def register(core: Implementation) -> Implementation:
        _IMPLEMENTATIONS[strategy] = core
        return core

    return register


def dispatch_run(
    strategy: str,
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None = None,
    **overrides: object,
) -> RunResult:
    """The one internal run path, reached through ``Strategy.run``.

    Rejects a query no join plan can evaluate
    (:class:`~repro.core.query.UnsupportedQueryError`) before anything
    is routed, resolves ``settings`` against ``storage`` and ``p``
    exactly once (:meth:`ExecutionSettings.resolve` -- the chunk-size,
    pool and machine-spec defaults and the spec's ``p``-match
    validation), invokes the executor core registered under
    ``strategy``, attaches the run's own spill traffic to its report and
    observes the per-run metrics under the ``strategy`` label.
    """
    impl = _IMPLEMENTATIONS.get(strategy)
    if impl is None:
        raise ValueError(
            f"unknown executor strategy {strategy!r} "
            f"(expected one of {sorted(_IMPLEMENTATIONS)})"
        )
    query.require_executable()
    resolved = settings.resolve(storage, p)
    if storage is not None:
        before = storage.io_counters()
    metrics = active_metrics()
    # The wall clock is read only when metrics are on, and only around
    # the whole run -- never on an identity-sensitive path.
    run_started = time.perf_counter() if metrics is not None else 0.0  # repro: allow(wall-clock) -- metrics-gated, whole-run only
    result = impl(
        query, database, p,
        seed=seed, settings=resolved, storage=storage, **overrides,
    )
    report = result.report
    if storage is not None:
        # Managers outlive runs (a session shares one across a whole
        # batch), so the run's own spill traffic is the counter delta.
        # peak_live_bytes is manager-lifetime: concurrent runs share
        # the disk, so a per-run peak would be fiction.
        after = storage.io_counters()
        report.attach_spill({
            "bytes_written": after["bytes_written"] - before["bytes_written"],
            "files_created": after["files_created"] - before["files_created"],
            "bytes_read": after["bytes_read"] - before["bytes_read"],
            "reads": after["reads"] - before["reads"],
            "peak_live_bytes": after["peak_live_bytes"],
        })
    if metrics is not None:
        elapsed = time.perf_counter() - run_started  # repro: allow(wall-clock) -- metrics-gated, whole-run only
        metrics.counter("repro_runs_total", strategy=strategy).inc()
        metrics.histogram("repro_run_seconds", strategy=strategy).observe(
            elapsed
        )
        metrics.histogram("repro_run_rounds", strategy=strategy).observe(
            report.num_rounds
        )
        metrics.histogram("repro_run_load_bits", strategy=strategy).observe(
            report.max_load_bits
        )
        if report.machines is not None and not report.machines.is_uniform:
            metrics.gauge("repro_run_makespan_bits", strategy=strategy).set(
                report.makespan_bits
            )
    return result
