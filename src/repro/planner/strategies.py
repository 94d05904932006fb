"""The strategy registry: every executor behind one interface.

A :class:`Strategy` knows three things about one algorithm family:

* whether it *applies* to a query at all (the star algorithm only runs
  star queries, the triangle algorithm only the paper's ``C3``, ...),
* what the paper predicts it would *cost* (closed forms from
  :mod:`repro.planner.cost`; nothing is executed), and
* how to *run* it on a concrete database: :attr:`Strategy.core` is its
  executor core, which :meth:`Strategy.run` hands to the shared run
  path (:func:`repro.run.dispatch_run`).

A strategy is therefore the one place a name maps to an engine, and
:meth:`Strategy.estimate` the one place a run is priced: the cores
return measured loads only.  This module is the only caller of
:func:`~repro.run.dispatch_run` in the package (the ``run-path`` check
enforces it).

:func:`default_strategies` lists the built-in registry in priority
order (ties in predicted cost resolve to the earlier entry);
:func:`register` appends project-specific strategies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.config import DEFAULT_SETTINGS, ExecutionSettings
from repro.core.families import triangle_query
from repro.core.query import ConjunctiveQuery
from repro.data.database import Database
from repro.hypercube.algorithm import hypercube_core
from repro.hypercube.baselines import broadcast_core, single_server_core
from repro.multiround.executor import multiround_core
from repro.multiround.plans import Plan, candidate_plans
from repro.planner.cost import (
    CostEstimate,
    broadcast_cost,
    hypercube_cost,
    multiround_plan_cost,
    single_server_cost,
    star_cost,
    triangle_cost,
)
from repro.planner.statistics import DataStatistics, memoized
from repro.run import RunResult, dispatch_run
from repro.skew.star import star_center, star_core
from repro.skew.triangle import is_triangle_query, triangle_core

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.storage.manager import StorageManager

#: Per-run override keys :meth:`Strategy.run` understands; each
#: strategy declares the subset it threads into its executor and
#: rejects the rest loudly (a silently dropped ``shares=`` or ``plan=``
#: would masquerade as a planner decision).
OVERRIDE_KEYS = ("shares", "exponents", "hitters", "plan")


class Strategy:
    """One algorithm family the planner can choose.

    Subclasses set ``name`` / ``summary`` / ``supported_overrides`` /
    ``core`` and implement :meth:`applicable` and :meth:`estimate`;
    those whose core needs overrides derived from the planner's
    statistics also override :meth:`_run`.
    """

    name: str = ""
    summary: str = ""
    #: The executor core :meth:`run` hands to
    #: :func:`~repro.run.dispatch_run`: ``(query, database, p, *, seed,
    #: settings, storage, **overrides) -> RunResult``.  Wrap it in
    #: ``staticmethod`` so the instance attribute is the plain function.
    core: Callable[..., RunResult]
    #: The :data:`OVERRIDE_KEYS` this strategy threads into its
    #: executor; anything else passed to :meth:`run` raises.
    supported_overrides: frozenset[str] = frozenset()

    def applicable(
        self, query: ConjunctiveQuery, dstats: DataStatistics, p: int
    ) -> str | None:
        """None when the strategy applies; otherwise the pruning reason."""
        if p < 2:
            return "needs p >= 2"
        return None

    def estimate(
        self,
        query: ConjunctiveQuery,
        dstats: DataStatistics,
        p: int,
        machines=None,
    ) -> CostEstimate:
        """Predicted cost; ``machines`` (a heterogeneous
        :class:`~repro.config.MachineSpec`) switches every estimator to
        the speed-normalized makespan objective."""
        raise NotImplementedError

    def run(
        self,
        query: ConjunctiveQuery,
        database: Database,
        p: int,
        seed: int = 0,
        dstats: DataStatistics | None = None,
        storage: "StorageManager | None" = None,
        settings: ExecutionSettings | None = None,
        **overrides,
    ) -> RunResult:
        """Execute on ``database``.

        ``dstats`` lets a caller that has already collected
        :class:`DataStatistics` (a session plans before it runs) pass
        them in, so strategies that can reuse them (multiround plan
        choice, star/triangle hitter statistics) skip a second scan.
        ``storage`` requests out-of-core execution; every strategy's
        executor streams through it.

        ``settings`` carries the shared execution knobs
        (:class:`~repro.config.ExecutionSettings`: capacity cap, hash
        method, chunk granularity, pool, machines); every strategy threads
        them into its executor, so a :class:`repro.session.Session`'s
        cluster configuration applies uniformly no matter which
        strategy wins.  ``overrides`` accepts the per-run knobs of
        :data:`OVERRIDE_KEYS` (``shares``/``exponents`` for share-based
        strategies, ``hitters`` for the skew-aware ones, ``plan`` for
        multi-round); a strategy rejects overrides it cannot honor
        rather than silently ignoring them.
        """
        unknown = sorted(set(overrides) - set(OVERRIDE_KEYS))
        if unknown:
            raise TypeError(
                f"unknown run override(s): {', '.join(unknown)}"
            )
        unsupported = sorted(
            key
            for key, value in overrides.items()
            if value is not None and key not in self.supported_overrides
        )
        if unsupported:
            raise ValueError(
                f"strategy {self.name!r} does not accept "
                f"{', '.join(unsupported)}"
            )
        supported = {
            key: overrides.get(key) for key in self.supported_overrides
        }
        return self._run(
            query,
            database,
            p,
            seed,
            dstats,
            storage,
            settings or DEFAULT_SETTINGS,
            **supported,
        )

    def _run(
        self,
        query: ConjunctiveQuery,
        database: Database,
        p: int,
        seed: int,
        dstats: DataStatistics | None,
        storage: "StorageManager | None",
        settings: ExecutionSettings,
        **overrides,
    ) -> RunResult:
        """Run :attr:`core` on the shared run path.

        Subclasses override this to derive ``overrides`` from ``dstats``
        (hitter statistics, the cheapest plan) and then delegate here.
        """
        return dispatch_run(
            self.core, query, database, p, seed=seed, settings=settings,
            storage=storage, **overrides,
        )

    def __repr__(self) -> str:
        return f"<Strategy {self.name}>"


class OneRoundHyperCube(Strategy):
    """One-round HyperCube (Section 3.1) on the cheapest share vector.

    The candidates are LP (10), LP (18) (the worst-case-skew shares of
    Section 4.1) and the parallel hash join of Example 4.1
    (:func:`~repro.planner.cost.share_candidates`).
    """

    name = "hypercube"
    summary = "one-round HyperCube, cheapest of LP(10)/LP(18)/hash shares"
    supported_overrides = frozenset({"shares", "exponents"})
    core = staticmethod(hypercube_core)

    def best_shares(
        self,
        query: ConjunctiveQuery,
        dstats: DataStatistics,
        p: int,
        machines=None,
    ) -> tuple[str, dict[str, int], CostEstimate]:
        """The minimum-predicted-cost share vector, with its estimate."""
        return memoized(
            dstats,
            ("hypercube", query, p, machines),
            lambda: hypercube_cost(query, dstats, p, machines=machines),
        )

    def estimate(self, query, dstats, p, machines=None):
        return self.best_shares(query, dstats, p, machines)[2]

    def _run(self, query, database, p, seed, dstats, storage, settings,
             shares=None, exponents=None):
        if shares is None and exponents is None:
            if dstats is None:
                dstats = DataStatistics.from_database(query, database, p)
            _, shares, _ = self.best_shares(
                query, dstats, p, settings.machines
            )
        return super()._run(
            query, database, p, seed, dstats, storage, settings,
            shares=shares, exponents=exponents,
        )


class SkewAwareStar(Strategy):
    """The Section 4.2.1 star-query algorithm (per-hitter blocks)."""

    name = "skew-star"
    summary = "skew-aware star algorithm, Eq. (20) load"
    supported_overrides = frozenset({"hitters"})
    core = staticmethod(star_core)

    def applicable(self, query, dstats, p):
        base = super().applicable(query, dstats, p)
        if base:
            return base
        try:
            star_center(query)
        except ValueError as exc:
            return str(exc)
        return None

    def estimate(self, query, dstats, p, machines=None):
        return star_cost(query, dstats, p, machines=machines)

    def _run(self, query, database, p, seed, dstats, storage, settings,
             hitters=None):
        if hitters is None and dstats is not None:
            hitters = dstats.hitters.get(star_center(query))
        return super()._run(
            query, database, p, seed, dstats, storage, settings,
            hitters=hitters,
        )


class SkewAwareTriangle(Strategy):
    """The Section 4.2.2 triangle algorithm (light/case-1/case-2)."""

    name = "skew-triangle"
    summary = "skew-aware triangle algorithm (Section 4.2.2)"
    supported_overrides = frozenset({"hitters"})
    core = staticmethod(triangle_core)

    def applicable(self, query, dstats, p):
        base = super().applicable(query, dstats, p)
        if base:
            return base
        if not is_triangle_query(query):
            return "only the C3 triangle query"
        return None

    def estimate(self, query, dstats, p, machines=None):
        return triangle_cost(query, dstats, p, machines=machines)

    def _run(self, query, database, p, seed, dstats, storage, settings,
             hitters=None):
        if (
            hitters is None
            and dstats is not None
            and dstats.exact
            and all(v in dstats.hitters for v in query.variables)
        ):
            # Exact planner statistics carry every frequency the
            # executor's thresholds compare against; sampled ones are
            # estimates, so the executor re-scans exactly instead.
            hitters = dstats.hitters
        # The executor is hard-wired to the canonical atom order.
        return super()._run(
            triangle_query(), database, p, seed, dstats, storage, settings,
            hitters=hitters,
        )


class MultiRoundPlan(Strategy):
    """The cheapest enumerated query plan, run round by round (Section 5)."""

    name = "multiround"
    summary = "multi-round query plan (Proposition 5.1)"
    supported_overrides = frozenset({"plan"})
    core = staticmethod(multiround_core)

    def applicable(self, query, dstats, p):
        base = super().applicable(query, dstats, p)
        if base:
            return base
        if not candidate_plans(query):
            return "no candidate plan (disconnected query)"
        return None

    def best_plan(
        self,
        query: ConjunctiveQuery,
        dstats: DataStatistics,
        p: int,
        machines=None,
    ) -> tuple[str, Plan, CostEstimate]:
        """The minimum-predicted-cost plan from :func:`candidate_plans`."""
        return memoized(
            dstats,
            ("multiround", query, p, machines),
            lambda: self._compute_best_plan(query, dstats, p, machines),
        )

    def _compute_best_plan(
        self,
        query: ConjunctiveQuery,
        dstats: DataStatistics,
        p: int,
        machines=None,
    ) -> tuple[str, Plan, CostEstimate]:
        best: tuple[str, Plan, CostEstimate] | None = None
        for label, plan in candidate_plans(query):
            estimate = multiround_plan_cost(plan, dstats, p, machines=machines)
            if best is None or estimate.sort_key() < best[2].sort_key():
                best = (label, plan, estimate)
        if best is None:
            raise ValueError("no candidate plan for this query")
        label, plan, estimate = best
        detail = f"plan {label}, {estimate.detail}"
        return label, plan, CostEstimate(
            estimate.load_bits, estimate.rounds, estimate.servers, detail
        )

    def estimate(self, query, dstats, p, machines=None):
        return self.best_plan(query, dstats, p, machines)[2]

    def _run(self, query, database, p, seed, dstats, storage, settings,
             plan=None):
        if plan is None:
            if dstats is None:
                dstats = DataStatistics.from_database(query, database, p)
            _, plan, _ = self.best_plan(
                query, dstats, p, settings.machines
            )
        return super()._run(
            query, database, p, seed, dstats, storage, settings, plan=plan
        )


class BroadcastJoin(Strategy):
    """Partition the largest relation, broadcast the rest (Lemma 3.18)."""

    name = "broadcast"
    summary = "partition largest relation, broadcast the rest"
    core = staticmethod(broadcast_core)

    def estimate(self, query, dstats, p, machines=None):
        return broadcast_cost(query, dstats, p, machines=machines)


class SingleServer(Strategy):
    """The degenerate ``L = |I|`` baseline (Section 2.1)."""

    name = "single-server"
    summary = "ship everything to one server"
    core = staticmethod(single_server_core)

    def applicable(self, query, dstats, p):
        if p < 1:
            return "needs p >= 1"
        return None

    def estimate(self, query, dstats, p, machines=None):
        return single_server_cost(query, dstats, p, machines=machines)


# Registration order doubles as the cost tie-break (see optimizer.plan).
_REGISTRY: list[Strategy] = [
    OneRoundHyperCube(),
    SkewAwareStar(),
    SkewAwareTriangle(),
    MultiRoundPlan(),
    BroadcastJoin(),
    SingleServer(),
]


def default_strategies() -> tuple[Strategy, ...]:
    """The built-in registry, in tie-breaking priority order."""
    return tuple(_REGISTRY)


def register(strategy: Strategy) -> Strategy:
    """Append a strategy to the default registry (returns it)."""
    if any(s.name == strategy.name for s in _REGISTRY):
        raise ValueError(f"strategy name {strategy.name!r} already registered")
    _REGISTRY.append(strategy)
    return strategy
