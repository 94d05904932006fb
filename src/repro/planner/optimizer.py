"""``plan(query, stats, p)``: rank every strategy, explain the choice.

The optimizer prices each registered strategy with its paper formula
(pruning the inapplicable ones with a reason), ranks the applicable
candidates by predicted load / rounds / servers, and returns an
:class:`ExplainedPlan` whose :meth:`~ExplainedPlan.table` renders the
EXPLAIN cost table -- the per-candidate comparison the paper carries
out by hand in Sections 3-5, automated.

The Theorem 3.15 one-round floor ``L_lower`` is computed alongside as
the reference line: no one-round strategy can beat it, so a predicted
cost close to the floor means the winner is essentially optimal.  By
Theorem 3.15 the floor is the optimum ``p^{lambda*}`` of LP (10), the
program the ``LP(10)`` share candidate already solves, so planning
reads it from that one memoized solve
(:func:`~repro.planner.cost.one_round_floor`); the packing-polytope
vertex enumeration of :mod:`repro.bounds.one_round` stays off the
planning path and planning stays polynomial in the number of atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.config import resolve_machines
from repro.core.query import ConjunctiveQuery
from repro.core.stats import Statistics
from repro.data.database import Database
from repro.planner.cost import CostEstimate, one_round_floor
from repro.planner.statistics import DataStatistics
from repro.planner.strategies import Strategy, default_strategies

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.config import MachineSpec


@dataclass(frozen=True)
class Candidate:
    """One strategy's row in the cost table (or its pruning reason)."""

    strategy: Strategy
    estimate: CostEstimate | None
    reason: str | None = None

    @property
    def name(self) -> str:
        return self.strategy.name

    @property
    def applicable(self) -> bool:
        return self.estimate is not None


@dataclass(frozen=True)
class ExplainedPlan:
    """The ranked cost table plus everything needed to execute/justify it.

    ``candidates`` lists applicable strategies in rank order (cheapest
    predicted load first; ties break to earlier registration), followed
    by the pruned ones with their reasons.
    """

    query: ConjunctiveQuery
    p: int
    statistics: DataStatistics
    candidates: tuple[Candidate, ...]
    lower_bound_bits: float
    #: The machine spec the estimates were priced against; None for the
    #: homogeneous model.  Non-uniform specs switch every estimate to
    #: the speed-normalized makespan objective (bits per unit speed).
    machines: "MachineSpec | None" = None

    @property
    def ranked(self) -> tuple[Candidate, ...]:
        return tuple(c for c in self.candidates if c.applicable)

    @property
    def pruned(self) -> tuple[Candidate, ...]:
        return tuple(c for c in self.candidates if not c.applicable)

    @property
    def winner(self) -> Candidate:
        ranked = self.ranked
        if not ranked:
            raise ValueError(f"no applicable strategy for {self.query}")
        return ranked[0]

    def candidate(self, name: str) -> Candidate:
        for c in self.candidates:
            if c.name == name:
                return c
        raise KeyError(f"no strategy named {name!r} in this plan")

    def table(self) -> str:
        """The EXPLAIN cost table, ready to print."""
        stats = self.statistics.stats
        lines = [
            f"EXPLAIN {self.query} at p={self.p} "
            f"(|I| = {stats.total_bits:.3g} bits, one-round floor "
            f"L_lower = {self.lower_bound_bits:.3g} bits)"
        ]
        heterogeneous = (
            self.machines is not None and not self.machines.is_uniform
        )
        if heterogeneous:
            lines.append(
                f"  machines: {self.machines.describe()} "
                f"(total speed {self.machines.total_speed:g}; estimates "
                "are makespan, bits per unit speed)"
            )
        cost_label = "predicted span" if heterogeneous else "predicted L"
        header = (
            f"  {'rank':>4}  {'strategy':<16} {cost_label:>14} "
            f"{'rounds':>6} {'servers':>8}  detail"
        )
        lines.append(header)
        for rank, c in enumerate(self.ranked, 1):
            est = c.estimate
            lines.append(
                f"  {rank:>4}  {c.name:<16} {est.load_bits:>9.4g} bits "
                f"{est.rounds:>6} {est.servers:>8}  {est.detail}"
            )
        for c in self.pruned:
            lines.append(f"     -  {c.name:<16} pruned: {c.reason}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.table()


def plan(
    query: ConjunctiveQuery,
    stats: DataStatistics | Statistics | Database,
    p: int,
    strategies: Sequence[Strategy] | None = None,
    machines: "MachineSpec | None" = None,
) -> ExplainedPlan:
    """Rank every strategy for ``query`` at ``p`` servers.

    ``stats`` may be a full :class:`DataStatistics`, a bare
    :class:`Statistics` (no skew information -- every strategy is priced
    skew-free), or a :class:`Database` (statistics are collected from
    it).  Nothing is executed.

    ``machines`` (a heterogeneous :class:`~repro.config.MachineSpec`)
    reprices every strategy under the makespan objective
    ``max_s load_s / v_s``, so the ranking favors strategies whose
    routing can exploit fast servers; with ``None`` (or a uniform
    spec) the classic homogeneous ``L`` is used.  A spec must describe
    exactly ``p`` machines, the rule every run applies
    (:func:`~repro.config.resolve_machines`).
    """
    if machines is not None:
        machines = resolve_machines(machines, p)
    dstats = DataStatistics.coerce(query, stats, p)
    if dstats.query.relation_names != query.relation_names:
        raise ValueError(
            "statistics describe a different query "
            f"({dstats.query.relation_names} vs {query.relation_names})"
        )
    pool = tuple(strategies) if strategies is not None else default_strategies()

    applicable: list[tuple[int, Candidate]] = []
    pruned: list[Candidate] = []
    for order, strategy in enumerate(pool):
        reason = strategy.applicable(query, dstats, p)
        if reason is not None:
            pruned.append(Candidate(strategy, None, reason))
            continue
        estimate = strategy.estimate(query, dstats, p, machines)
        applicable.append((order, Candidate(strategy, estimate)))

    applicable.sort(key=lambda item: (item[1].estimate.sort_key(), item[0]))
    candidates = tuple(c for _, c in applicable) + tuple(pruned)
    return ExplainedPlan(
        query=query,
        p=p,
        statistics=dstats,
        candidates=candidates,
        lower_bound_bits=one_round_floor(query, dstats, p),
        machines=machines,
    )
