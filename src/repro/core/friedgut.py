"""Friedgut's inequality, the AGM bound, and expected output sizes.

Section 2.4 states Friedgut's inequality (Eq. 7): for any fractional
edge *cover* ``u`` of the query hypergraph and non-negative weights
``w_j`` on potential tuples,

.. math::
    \\sum_{a \\in [n]^k} \\prod_j w_j(a_j)
    \\le \\prod_j \\Big( \\sum_{a_j} w_j(a_j)^{1/u_j} \\Big)^{u_j}

with the convention ``lim_{u -> 0} (sum w^{1/u})^u = max w``.  Taking
0/1 weights yields the AGM output-size bound
``|q(I)| <= prod_j |S_j|^{u_j}``; the tightest choice of ``u`` is the
minimum-weight fractional edge cover (:func:`agm_bound`).

Lemma 3.6 gives the expected output size over the matching probability
space: ``E[|q(I)|] = n^{k-a} * prod_j m_j``.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.lp import solve_lp
from repro.core.packing import _incidence, is_edge_cover
from repro.core.query import ConjunctiveQuery
from repro.core.stats import Statistics

#: Weight maps are sparse: absent tuples have weight zero.
WeightMap = Mapping[tuple[int, ...], float]


def friedgut_lhs(
    query: ConjunctiveQuery, weights: Mapping[str, WeightMap], n: int
) -> float:
    """Left-hand side of Eq. (7): ``sum_{a in [n]^k} prod_j w_j(a_j)``.

    Enumerates variable assignments by backtracking, pruning any branch
    where a fully-bound atom already has weight zero.  Intended for
    small domains.
    """
    variables = list(query.variables)
    var_pos = {v: i for i, v in enumerate(variables)}
    # For each atom, the index of the variable at which it becomes fully bound.
    ready_at: dict[str, int] = {}
    for atom in query.atoms:
        ready_at[atom.relation] = max(var_pos[v] for v in atom.variable_set)

    assignment: dict[str, int] = {}

    def project(atom_vars: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(assignment[v] for v in atom_vars)

    def recurse(index: int, partial: float) -> float:
        if index == len(variables):
            return partial
        total = 0.0
        v = variables[index]
        for value in range(n):
            assignment[v] = value
            factor = partial
            dead = False
            for atom in query.atoms:
                if ready_at[atom.relation] != index:
                    continue
                w = weights.get(atom.relation, {}).get(project(atom.variables), 0.0)
                if w == 0.0:
                    dead = True
                    break
                factor *= w
            if not dead:
                total += recurse(index + 1, factor)
        del assignment[v]
        return total

    return recurse(0, 1.0)


def friedgut_rhs(
    query: ConjunctiveQuery,
    cover: Mapping[str, float],
    weights: Mapping[str, WeightMap],
    tolerance: float = 1e-9,
) -> float:
    """Right-hand side of Eq. (7) for a fractional edge cover ``u``.

    ``u_j = 0`` contributes ``max_a w_j(a)`` (the limit of the power
    mean); raises ``ValueError`` when ``u`` is not an edge cover.
    """
    if not is_edge_cover(query, dict(cover), tolerance=tolerance):
        raise ValueError("weights must form a fractional edge cover")
    product = 1.0
    for atom in query.atoms:
        u = cover.get(atom.relation, 0.0)
        w = weights.get(atom.relation, {})
        values = [x for x in w.values() if x > 0.0]
        if not values:
            return 0.0
        if u <= tolerance:
            product *= max(values)
        else:
            product *= sum(x ** (1.0 / u) for x in values) ** u
    return product


def agm_bound(
    query: ConjunctiveQuery, cardinalities: Mapping[str, int]
) -> float:
    """The AGM output bound ``min_u prod_j m_j^{u_j}`` over edge covers.

    Solved as an LP in log space: minimize ``sum_j u_j ln m_j`` subject
    to the cover constraints.  Relations with ``m_j = 0`` force an empty
    output, so the bound is 0.
    """
    relations = query.relation_names
    if any(cardinalities[r] == 0 for r in relations):
        return 0.0
    a, _variables, _ = _incidence(query)
    log_m = [math.log(max(1, cardinalities[r])) for r in relations]
    sol = solve_lp(cost=log_m, a_ub=-a, b_ub=[-1.0] * a.shape[0])
    return math.exp(sol.value)


def expected_output_size(stats: Statistics) -> float:
    """Lemma 3.6: ``E[|q(I)|] = n^{k-a} * prod_j m_j`` over matchings."""
    query = stats.query
    n = stats.domain_size
    exponent = query.num_variables - query.total_arity
    product = 1.0
    for rel in query.relation_names:
        product *= stats.tuples(rel)
    return (float(n) ** exponent) * product


def expected_output_equal_sizes(query: ConjunctiveQuery, n: int) -> float:
    """Lemma 3.6 corollary: with ``n = m_1 = ... = m_l``,
    ``E[|q(I)|] = n^{c - chi(q)}``."""
    c = query.num_components
    return float(n) ** (c - query.characteristic)
