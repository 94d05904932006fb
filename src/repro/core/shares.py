"""Share-exponent optimization for the HyperCube algorithm.

Section 3.1 computes HyperCube shares ``p_i = p^{e_i}`` by solving the
linear program (10) over *share exponents*:

.. math::
    \\min \\lambda \\ \\text{s.t.}\\  \\sum_i e_i \\le 1, \\quad
    \\forall j: \\sum_{i \\in S_j} e_i + \\lambda \\ge \\mu_j, \\quad
    e_i, \\lambda \\ge 0

where ``mu_j = log_p M_j``.  The optimal ``lambda*`` gives the load
``L_upper = p^{lambda*}``; with equal sizes the closed form is
``e_i = v*_i / tau*`` for an optimal fractional vertex cover ``v*``.

Section 4.1 replaces the per-relation product ``prod_{i in S_j} p_i``
with ``min_{i in S_j} p_i`` (the worst case under skew), giving LP (18);
:func:`skew_oblivious_share_exponents` solves it.

Real clusters have integer share counts; :func:`integerize_shares`
rounds ``p^{e_i}`` to integers with product at most ``p``, the way
HyperCube implementations (e.g. Myria) do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.lp import snap, solve_lp
from repro.core.packing import minimum_vertex_cover
from repro.core.query import ConjunctiveQuery
from repro.core.stats import Statistics


@dataclass(frozen=True)
class ShareSolution:
    """Optimal share exponents for a query at ``p`` servers.

    ``exponents`` maps each variable to ``e_i`` with ``sum e_i <= 1``;
    ``lam`` is the optimal objective ``lambda*`` of LP (10)/(18), so the
    predicted load is ``p^lam`` bits.
    """

    query: ConjunctiveQuery
    p: int
    exponents: dict[str, float]
    lam: float

    @property
    def load_bits(self) -> float:
        """``L_upper = p^{lambda*}`` in bits (Theorem 3.4)."""
        return self.p ** self.lam

    def integer_shares(self) -> dict[str, int]:
        """Integer shares with product at most ``p``."""
        return integerize_shares(self.exponents, self.p)

    def integer_load_bits(self, stats: Statistics) -> float:
        """Corollary 3.3 load of the *integerized* shares, in bits.

        ``max_j M_j / prod_{i in S_j} p_i`` for the rounded shares of
        :meth:`integer_shares`.  Rounding can only lose parallelism, so
        this is at least the fractional ``p^{lambda*}`` and is the
        honest prediction for a real grid of ``p`` servers (what the
        planner's cost model ranks by).
        """
        shares = self.integer_shares()
        load = 0.0
        for atom in self.query.atoms:
            product = 1
            for v in atom.variable_set:
                product *= shares.get(v, 1)
            load = max(load, stats.bits(atom.relation) / product)
        return load


def _mu(stats: Statistics, p: int) -> dict[str, float]:
    """``mu_j = log_p M_j`` for every relation."""
    out: dict[str, float] = {}
    for rel in stats.query.relation_names:
        bits = stats.bits(rel)
        out[rel] = math.log(bits, p) if bits > 0 else 0.0
    return out


def share_exponents(
    query: ConjunctiveQuery, stats: Statistics, p: int
) -> ShareSolution:
    """Solve LP (10): optimal share exponents without skew.

    Works for arbitrary (unequal) statistics ``M``; Theorem 3.15 shows
    the resulting ``p^{lambda*}`` equals the lower bound
    ``max_u L(u, M, p)`` over fractional edge packings.
    """
    if p < 2:
        raise ValueError("share optimization needs p >= 2")
    if stats.query is not query:
        stats = Statistics(query, stats.cardinalities, stats.domain_size)
    variables = query.variables
    relations = query.relation_names
    mu = _mu(stats, p)
    k = len(variables)
    var_index = {v: i for i, v in enumerate(variables)}

    # Decision vector: (e_1 .. e_k, lambda).
    num = k + 1
    cost = [0.0] * k + [1.0]
    a_ub: list[list[float]] = []
    b_ub: list[float] = []
    # sum_i e_i <= 1
    a_ub.append([1.0] * k + [0.0])
    b_ub.append(1.0)
    # For each atom: -(sum_{i in S_j} e_i) - lambda <= -mu_j.
    for atom in query.atoms:
        row = [0.0] * num
        for v in atom.variable_set:
            row[var_index[v]] = -1.0
        row[k] = -1.0
        a_ub.append(row)
        b_ub.append(-mu[atom.relation])
    sol = solve_lp(cost, a_ub=a_ub, b_ub=b_ub)
    exponents = {v: snap(sol.x[var_index[v]]) for v in variables}
    return ShareSolution(query, p, exponents, snap(sol.value))


def skew_oblivious_share_exponents(
    query: ConjunctiveQuery, stats: Statistics, p: int
) -> ShareSolution:
    """Solve LP (18): shares minimizing the worst-case load under skew.

    For each relation the effective parallelism is the *minimum* share
    of its variables (Corollary 4.3), since an adversary may put all of
    a relation's tuples on a single value of every other variable.
    """
    if p < 2:
        raise ValueError("share optimization needs p >= 2")
    variables = query.variables
    relations = query.relation_names
    mu = _mu(stats, p)
    k, ell = len(variables), len(relations)
    var_index = {v: i for i, v in enumerate(variables)}
    rel_index = {r: i for i, r in enumerate(relations)}

    # Decision vector: (e_1..e_k, h_1..h_l, lambda).
    num = k + ell + 1
    cost = [0.0] * (k + ell) + [1.0]
    a_ub: list[list[float]] = []
    b_ub: list[float] = []
    # sum_i e_i <= 1
    a_ub.append([1.0] * k + [0.0] * ell + [0.0])
    b_ub.append(1.0)
    for atom in query.atoms:
        j = rel_index[atom.relation]
        # -h_j - lambda <= -mu_j
        row = [0.0] * num
        row[k + j] = -1.0
        row[k + ell] = -1.0
        a_ub.append(row)
        b_ub.append(-mu[atom.relation])
        # h_j - e_i <= 0 for every variable of the atom.
        for v in atom.variable_set:
            row = [0.0] * num
            row[k + j] = 1.0
            row[var_index[v]] = -1.0
            a_ub.append(row)
            b_ub.append(0.0)
    sol = solve_lp(cost, a_ub=a_ub, b_ub=b_ub)
    exponents = {v: snap(sol.x[var_index[v]]) for v in variables}
    return ShareSolution(query, p, exponents, snap(sol.value))


def afrati_ullman_share_exponents(
    query: ConjunctiveQuery, stats: Statistics, p: int
) -> ShareSolution:
    """Shares minimizing the *total* load, Afrati-Ullman style.

    Section 3.1 contrasts the paper's max-load objective with Afrati and
    Ullman's: minimize ``sum_j M_j / prod_{i in S_j} p_i`` subject to
    ``prod_i p_i = p`` (a convex program in exponent space, solved here
    with SLSQP instead of their Lagrange multipliers).  The returned
    ``lam`` is ``log_p`` of the *maximum* per-relation load of the
    solution, so ``load_bits`` compares directly with LP (10)'s --
    ``tests/paper/test_sec3_1_shares.py`` shows the total-load
    objective can be worse on the max-load metric the MPC model cares
    about.
    """
    if p < 2:
        raise ValueError("share optimization needs p >= 2")
    from scipy.optimize import minimize

    variables = query.variables
    k = len(variables)
    var_index = {v: i for i, v in enumerate(variables)}
    log_p = math.log(p)
    log_m = {
        rel: math.log(max(stats.bits(rel), 1e-300))
        for rel in query.relation_names
    }
    rows = []
    for atom in query.atoms:
        row = [0.0] * k
        for v in atom.variable_set:
            row[var_index[v]] = 1.0
        rows.append((atom.relation, row))

    def total_load(e):
        return sum(
            math.exp(log_m[rel] - log_p * sum(r * x for r, x in zip(row, e)))
            for rel, row in rows
        )

    start = [1.0 / k] * k
    result = minimize(
        total_load,
        start,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * k,
        constraints=[{"type": "eq", "fun": lambda e: sum(e) - 1.0}],
    )
    if not result.success:
        raise RuntimeError(f"Afrati-Ullman optimization failed: {result.message}")
    exponents = {v: snap(max(0.0, result.x[var_index[v]])) for v in variables}
    max_load = max(
        math.exp(log_m[rel] - log_p * sum(r * exponents[v] for r, v in zip(row, variables)))
        for rel, row in rows
    )
    return ShareSolution(query, p, exponents, math.log(max_load, p))


def equal_size_share_exponents(query: ConjunctiveQuery) -> dict[str, float]:
    """Closed-form exponents when all relations have equal size.

    Section 3.1: with ``M_1 = ... = M_l``, an optimal solution of LP
    (10) is ``e_i = v*_i / tau*`` for an optimal fractional vertex cover
    ``v*``, and the load is ``M / p^{1/tau*}``.
    """
    cover = minimum_vertex_cover(query)
    tau = cover.total
    if tau <= 0:
        raise ValueError("query has no atoms")
    return {v: snap(w / tau) for v, w in cover.weights.items()}


def speedup_exponent(query: ConjunctiveQuery) -> float:
    """``1/tau*``: the equal-cardinality speedup exponent (Section 3.4)."""
    tau = minimum_vertex_cover(query).total
    return 1.0 / tau


def space_exponent_bound(query: ConjunctiveQuery) -> float:
    """``1 - 1/tau*``: the one-round space-exponent lower bound (Table 2)."""
    return 1.0 - speedup_exponent(query)


def integerize_shares(
    exponents: Mapping[str, float], p: int, tolerance: float = 1e-9
) -> dict[str, int]:
    """Round fractional shares ``p^{e_i}`` to integers with product <= p.

    Greedy water-filling: start from ``round(p^{e_i})`` clipped to the
    budget, then repeatedly increment the share with the largest
    remaining deficit ``p^{e_i} / share_i`` while the product stays
    within ``p``.  Variables with ``e_i = 0`` keep share 1.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    variables = list(exponents)
    target = {v: p ** max(0.0, exponents[v]) for v in variables}
    shares = {v: max(1, round(target[v])) for v in variables}

    def product() -> int:
        return math.prod(shares.values())

    # Shrink if rounding overshot the budget.
    while product() > p:
        over = [v for v in variables if shares[v] > 1]
        if not over:
            break
        worst = max(over, key=lambda v: shares[v] / target[v])
        shares[worst] -= 1

    # Grow shares that still have deficit, largest deficit first.
    grew = True
    while grew:
        grew = False
        candidates = sorted(
            (v for v in variables if target[v] / shares[v] > 1.0 + tolerance),
            key=lambda v: target[v] / shares[v],
            reverse=True,
        )
        for v in candidates:
            current = product()
            if current // shares[v] * (shares[v] + 1) <= p:
                shares[v] += 1
                grew = True
                break
    return shares
