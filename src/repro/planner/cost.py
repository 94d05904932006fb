"""Closed-form cost estimates for every strategy (no execution).

Each estimator prices one algorithm family using the paper's own
formulas, evaluated on :class:`~repro.planner.statistics.DataStatistics`
alone:

* one-round HyperCube -- every candidate share vector of
  :func:`share_candidates` (LP (10), LP (18), the parallel hash join on
  the common variables), integerized, priced with Corollary 3.3 plus the
  data-dependent hotspot term of
  :func:`~repro.hypercube.analysis.predicted_load_bits_with_frequencies`
  (which recovers Corollary 4.3 under total skew); the cheapest wins;
* the skew-aware star algorithm -- Eq. (20) plus the light term,
  priced in the sum-form server convention described below (the
  max-form statistics-only bound lives in
  :func:`~repro.skew.star.star_skew_load_bound_from_stats`);
* the skew-aware triangle algorithm -- the Section 4.2.2 formula,
  same convention (max-form:
  :func:`~repro.skew.triangle.triangle_skew_load_bound_from_stats`);
* multi-round plans -- per-operator LP loads summed within a round
  (Proposition 5.1's constant-factor regime), with intermediate view
  sizes estimated by Lemma 3.6's expected output size, clamped by the
  AGM bound;
* the baselines (broadcast join, single server) -- their exact
  shipping formulas.

All estimates are in bits of maximum per-server, per-round load -- the
MPC model's ``L`` -- so they are directly comparable with each other,
with the Theorem 3.15 lower bound (:func:`one_round_floor`, read from
the same LP (10) solve as HyperCube's ``LP(10)`` candidate), and with
measured :class:`~repro.mpc.report.LoadReport` maxima.

On a heterogeneous cluster (``machines=`` a
:class:`~repro.config.MachineSpec` with per-server speeds) every
estimator prices the *makespan* instead: ``max_s load_s / v_s`` in
bits per unit speed, the objective the optimizer minimizes when fast
servers can absorb proportionally more load.  With unit speeds the two
objectives coincide exactly, so homogeneous rankings are unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.friedgut import agm_bound, expected_output_size
from repro.core.lp import balanced_makespan, solve_lp
from repro.core.query import Atom, ConjunctiveQuery
from repro.core.shares import (
    ShareSolution,
    integerize_shares,
    share_exponents,
    skew_oblivious_share_exponents,
)
from repro.core.stats import Statistics
from repro.hypercube.analysis import (
    predicted_load_bits_with_frequencies,
    predicted_makespan_bits,
)

from repro.multiround.plans import Plan
from repro.planner.statistics import DataStatistics, memoized
from repro.skew.heavy_hitters import HitterStatistics
from repro.skew.star import _heavy_allocation, star_center
from repro.skew.triangle import _STRUCTURE as _TRIANGLE_STRUCTURE

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.config import MachineSpec


@dataclass(frozen=True)
class CostEstimate:
    """A strategy's predicted cost: the two MPC metrics plus servers.

    ``load_bits`` is the predicted maximum per-server, per-round load
    ``L``; ``rounds`` the number of communication rounds; ``servers``
    how many servers the strategy occupies (the skew-aware algorithms
    use ``Theta(p)`` extra blocks).  ``detail`` carries a short
    human-readable note for the EXPLAIN table (chosen shares, chosen
    plan, ...).
    """

    load_bits: float
    rounds: int
    servers: int
    detail: str = ""

    def sort_key(self) -> tuple[float, int, int]:
        """Rank by load, then fewer rounds, then fewer servers."""
        return (self.load_bits, self.rounds, self.servers)


# ------------------------------------------------------------------ HyperCube


def common_variables(query: ConjunctiveQuery) -> tuple[str, ...]:
    """The variables occurring in every atom: the natural join key."""
    return tuple(
        v
        for v in query.variables
        if all(v in a.variable_set for a in query.atoms)
    )


def one_round_lp(
    query: ConjunctiveQuery, dstats: DataStatistics, p: int
) -> ShareSolution:
    """LP (10)'s solution, solved once per ``(dstats, query, p)``.

    The ``LP(10)`` share candidate and the EXPLAIN floor
    (:func:`one_round_floor`) both read it.
    """
    return memoized(
        dstats,
        ("LP(10)", query, p),
        lambda: share_exponents(query, dstats.stats, p),
    )


def one_round_floor(
    query: ConjunctiveQuery, dstats: DataStatistics, p: int
) -> float:
    """Theorem 3.15's one-round floor ``L_lower`` in bits, from LP (10).

    Theorem 3.15 proves ``max_{u in pk(q)} L(u, M, p) = p^{lambda*}``,
    the optimum of LP (10), so the floor reads :func:`one_round_lp` and
    no packing-polytope vertex is enumerated
    (:func:`~repro.bounds.one_round.lower_bound` is the vertex form).
    LP (10) needs ``p >= 2``: at ``p = 1`` every ``L(u, M, 1)`` is a
    weighted geometric mean of the ``M_j``, so the floor is
    ``max_j M_j``; below that it is 0.
    """
    if p < 2:
        return max(dstats.stats.bits_vector().values()) if p == 1 else 0.0
    solution = one_round_lp(query, dstats, p)
    if solution.lam > 0:
        return solution.load_bits
    return _sub_bit_floor(query, dstats.stats, p)


def _sub_bit_floor(query: ConjunctiveQuery, stats: Statistics, p: int) -> float:
    """``max_u L(u, M, p)`` when no packing's ``L`` exceeds one bit.

    LP (10) keeps ``lambda >= 0``, so it reports ``p^0 = 1`` bit there.
    The floor is then ``max_u (sum_j u_j ln M_j - ln p) / sum_j u_j``
    over the nonzero packings that avoid empty relations (any other
    packing has ``L = 0``): one LP after the Charnes-Cooper substitution
    ``u <- u / sum_j u_j``, ``t = 1 / sum_j u_j``.  Only tiny inputs
    (every relation a few bits against ``p`` servers) get here.
    """
    atoms = [a for a in query.atoms if stats.bits(a.relation) > 0]
    if not atoms:
        return 0.0
    variables = {v for a in atoms for v in a.variable_set}
    # Decision vector: (u_1 .. u_l, t).
    solution = solve_lp(
        [math.log(stats.bits(a.relation)) for a in atoms] + [-math.log(p)],
        a_ub=[
            [float(v in a.variable_set) for a in atoms] + [-1.0]
            for v in sorted(variables)
        ],
        b_ub=[0.0] * len(variables),
        a_eq=[[1.0] * len(atoms) + [0.0]],
        b_eq=[1.0],
        maximize=True,
    )
    return math.exp(solution.value)


def share_candidates(
    query: ConjunctiveQuery, dstats: DataStatistics, p: int
) -> list[tuple[str, dict[str, int]]]:
    """The ``(label, integer shares)`` vectors HyperCube chooses between.

    In tie-breaking order: LP (10) (Section 3.1; the memoized
    :func:`one_round_lp`); LP (18), the worst-case-skew shares of
    Section 4.1; and, when some variable occurs in every atom, the
    parallel hash join of Example 4.1 -- ``p`` spread evenly over those
    common variables.
    """
    candidates = [
        ("LP(10)", one_round_lp(query, dstats, p).integer_shares()),
        (
            "LP(18)",
            skew_oblivious_share_exponents(
                query, dstats.stats, p
            ).integer_shares(),
        ),
    ]
    common = common_variables(query)
    if common:
        exponents = {
            v: 1.0 / len(common) if v in common else 0.0
            for v in query.variables
        }
        candidates.append(
            ("hash on " + ",".join(common), integerize_shares(exponents, p))
        )
    return candidates


def _shares_load(
    query: ConjunctiveQuery,
    stats: Statistics,
    shares: dict[str, int],
    frequencies: dict,
    machines: "MachineSpec | None",
) -> float:
    """One share grid's predicted ``L``, or its makespan under ``machines``.

    Every grid routes through speed-weighted marginals on a
    heterogeneous cluster, so the makespan is priced over that
    weighted grid (:func:`~repro.hypercube.analysis.predicted_makespan_bits`).
    """
    if machines is None:
        return predicted_load_bits_with_frequencies(
            query, stats, shares, frequencies
        )
    return predicted_makespan_bits(query, stats, shares, machines, frequencies)


def hypercube_cost(
    query: ConjunctiveQuery,
    dstats: DataStatistics,
    p: int,
    machines: "MachineSpec | None" = None,
) -> tuple[str, dict[str, int], CostEstimate]:
    """Price every :func:`share_candidates` vector; return the cheapest.

    Returns ``(label, integer shares, estimate)``; ties go to the earlier
    candidate.  The estimate's ``detail`` names the chosen vector and
    lists the other candidates' prices.
    """
    stats = dstats.stats
    frequencies = dstats.frequency_maps()
    priced = [
        (label, shares, _shares_load(query, stats, shares, frequencies, machines))
        for label, shares in share_candidates(query, dstats, p)
    ]
    label, shares, load = min(priced, key=lambda candidate: candidate[2])

    def grid(vector: dict[str, int]) -> str:
        return "x".join(str(vector[v]) for v in query.variables)

    detail = f"{label} shares {grid(shares)}"
    if machines is not None and not machines.is_uniform:
        detail += ", speed-weighted makespan"
    others = ", ".join(
        f"{other} {grid(vector)}: {cost:.4g}"
        for other, vector, cost in priced
        if other != label
    )
    detail += f" ({others})"
    estimate = CostEstimate(load_bits=load, rounds=1, servers=p, detail=detail)
    return label, shares, estimate


# ------------------------------------------------------------ skew-aware star


def star_cost(
    query: ConjunctiveQuery,
    dstats: DataStatistics,
    p: int,
    machines: "MachineSpec | None" = None,
) -> CostEstimate:
    """Price the Section 4.2.1 star algorithm via Eq. (20).

    Heterogeneous pricing mirrors the executor: the light part is
    speed-weighted on the center axis (exactly rebalanceable, so it
    divides by the *total* speed), while the per-hitter heavy blocks
    route unweighted over modularly-extended servers (their worst
    server is the slowest one, so those terms divide by the minimum
    speed).
    """
    center = star_center(query)
    stats = dstats.stats
    hitters = dstats.hitters.get(center)
    if hitters is None:
        hitters = HitterStatistics(query, center, {})
    # Eq. (20) quotes the light part as max_j M_j/p and each heavy term
    # as (sum_h prod_{j in I} M_j(h) / p)^{1/|I|}.  A server receives
    # its share of every relation it participates in, so the planner
    # prices the sums: all l relations on a light server, the |I|
    # residual relations on a heavy-block server (the same convention
    # as the HyperCube estimator; within the paper's O(l) constants).
    #
    # A hitter's frequency in a relation where it sits *below* that
    # relation's m_j/p detection threshold is invisible to the
    # statistics; approximate it by the threshold itself (its exact
    # ceiling).  The executor uses exact degrees and drops hitters
    # absent from some relation -- absent and merely-light are
    # indistinguishable here, so the planner prices both conservatively.
    total_light_bits = sum(stats.bits(r) for r in query.relation_names)
    if machines is None:
        load = total_light_bits / p
        block_speed = 1.0
    else:
        load = balanced_makespan(
            total_light_bits, [machines.speed(s) for s in range(p)]
        )
        block_speed = machines.min_speed
    relations = query.relation_names
    heavy = hitters.hitters

    def residual_tuples(rel: str, h: int) -> float:
        known = hitters.frequency(rel, h)
        return known if known > 0 else stats.tuples(rel) / p

    for size in range(1, len(relations) + 1):
        for subset in itertools.combinations(relations, size):
            total = 0.0
            for h in heavy:
                product = 1.0
                for r in subset:
                    product *= residual_tuples(r, h) * 2 * stats.value_bits
                total += product
            if total > 0:
                load = max(
                    load,
                    size * (total / p) ** (1.0 / size) / block_speed,
                )

    # Server budget: mirrors the executor's per-hitter allocation, with
    # the same sub-threshold approximation as above.
    bits_per_hitter: dict[int, dict[str, float]] = {
        h: {
            rel: residual_tuples(rel, h) * stats.value_bits
            for rel in relations
        }
        for h in heavy
    }
    allocation = _heavy_allocation(query.relation_names, bits_per_hitter, p)
    servers = p + sum(allocation.values())
    detail = f"{len(hitters.hitters)} heavy hitter(s) on {center}"
    if machines is not None and not machines.is_uniform:
        detail += ", speed-weighted light part"
    return CostEstimate(load_bits=load, rounds=1, servers=servers, detail=detail)


# -------------------------------------------------------- skew-aware triangle


def triangle_cost(
    query: ConjunctiveQuery,
    dstats: DataStatistics,
    p: int,
    machines: "MachineSpec | None" = None,
) -> CostEstimate:
    """Price the Section 4.2.2 triangle algorithm.

    Heterogeneous pricing mirrors the executor: the light block's
    speed-weighted marginals rebalance its load toward speed-
    proportional (scale by ``p / total_speed``), while the
    case-1/case-2 blocks route unweighted (divide by the minimum
    speed).
    """
    stats = dstats.stats
    if machines is None:
        light_speed = 1.0
        block_speed = 1.0
    else:
        light_speed = machines.total_speed / p
        block_speed = machines.min_speed
    # Sum-form convention throughout (see the module docstring): a
    # light-block server receives fragments of all three relations, a
    # case-2 block server its share of both residual sides.
    load = (
        sum(stats.bits(r) for r in query.relation_names)
        / p ** (2.0 / 3.0)
        / light_speed
    )
    m = max(stats.tuples(r) for r in query.relation_names)
    threshold2 = max(1.0, m / p ** (1.0 / 3.0))
    tuple_bits = 2 * stats.value_bits
    case2 = 0
    for variable, (succ_rel, pred_rel, _mid) in _TRIANGLE_STRUCTURE.items():
        stats_v = dstats.hitters.get(variable)
        if stats_v is None:
            continue
        total = 0.0
        for h in stats_v.hitters:
            freq = max(
                stats_v.frequency(succ_rel, h), stats_v.frequency(pred_rel, h)
            )
            if freq < threshold2:
                continue
            case2 += 1
            total += (
                stats_v.frequency(succ_rel, h)
                * tuple_bits
                * stats_v.frequency(pred_rel, h)
                * tuple_bits
            )
        if total > 0:
            load = max(load, 2.0 * math.sqrt(total / p) / block_speed)
    # Light block + three case-1 blocks + >= p^{2/3} per case-2 hitter,
    # boosted by ~p in total -- the executor's Theta(p) budget.
    servers = 4 * p + case2 * math.ceil(p ** (2.0 / 3.0)) + (p if case2 else 0)
    detail = f"{case2} case-2 hitter(s)"
    if machines is not None and not machines.is_uniform:
        detail += ", speed-weighted light block"
    return CostEstimate(load_bits=load, rounds=1, servers=servers, detail=detail)


# -------------------------------------------------------------- multi-round


def multiround_plan_cost(
    plan: Plan,
    dstats: DataStatistics,
    p: int,
    machines: "MachineSpec | None" = None,
) -> CostEstimate:
    """Price a query plan: per-round sums of per-operator LP loads.

    Intermediate view sizes are estimated with Lemma 3.6's expected
    output size over the matching probability space (clamped by the AGM
    bound), so the estimate is exact in expectation for matching
    databases and optimistic when intermediate results correlate.
    Operators over base relations keep the hotspot correction, since
    their frequency vectors are known.
    """
    stats = dstats.stats
    frequency_maps = dstats.frequency_maps()
    domain = stats.domain_size
    view_sizes: dict[str, float] = {}
    round_loads: dict[int, float] = {}

    for depth, nodes in sorted(plan.root.nodes_by_depth().items()):
        for node in nodes:
            operator = node.operator
            sizes: dict[str, int] = {}
            for child in node.children:
                if isinstance(child, Atom):
                    sizes[child.relation] = stats.tuples(child.relation)
                else:
                    sizes[child.name] = int(math.ceil(view_sizes[child.name]))
            op_stats = Statistics(operator, sizes, domain)
            shares = share_exponents(operator, op_stats, p).integer_shares()
            load = _shares_load(
                operator, op_stats, shares, frequency_maps, machines
            )
            round_loads[depth] = round_loads.get(depth, 0.0) + load
            estimate = expected_output_size(op_stats)
            bound = agm_bound(operator, op_stats.tuples_vector())
            view_sizes[node.name] = max(0.0, min(estimate, bound))

    load = max(round_loads.values(), default=0.0)
    return CostEstimate(
        load_bits=load,
        rounds=plan.depth,
        servers=p,
        detail=f"{plan.depth} round(s)",
    )


# ------------------------------------------------------------------ baselines


def broadcast_cost(
    query: ConjunctiveQuery,
    dstats: DataStatistics,
    p: int,
    machines: "MachineSpec | None" = None,
) -> CostEstimate:
    """Partition the largest relation, broadcast the rest (Lemma 3.18).

    The baseline executor routes unweighted, so on a heterogeneous
    cluster its makespan is pinned by the slowest server.
    """
    stats = dstats.stats
    partition = max(query.relation_names, key=lambda r: stats.bits(r))
    load = stats.bits(partition) / p + sum(
        stats.bits(r) for r in query.relation_names if r != partition
    )
    if machines is not None:
        load /= machines.min_speed
    return CostEstimate(
        load_bits=load, rounds=1, servers=p, detail=f"partition {partition}"
    )


def single_server_cost(
    query: ConjunctiveQuery,
    dstats: DataStatistics,
    p: int,
    machines: "MachineSpec | None" = None,
) -> CostEstimate:
    """Ship the whole input to one server: ``L = |I|``.

    The baseline always ships to server 0, so heterogeneous pricing
    divides by *that* server's speed -- an honest makespan for what the
    executor actually does.
    """
    load = dstats.stats.total_bits
    if machines is not None:
        load /= machines.speed(0)
    return CostEstimate(
        load_bits=load,
        rounds=1,
        servers=p,
        detail="everything to server 0",
    )
