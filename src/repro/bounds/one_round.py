"""The one-round load lower bound (Theorem 3.5) and its tightness.

For a fractional edge packing ``u`` of ``q`` and bit statistics ``M``,

.. math::
    L(u, M, p) = \\Big( \\frac{\\prod_j M_j^{u_j}}{p} \\Big)^{1/\\sum_j u_j}

is a load lower bound (up to the constant ``(sum_j u_j)/4``), and

.. math::  L_{lower} = \\max_u L(u, M, p)

over the packing polytope.  Section 3.3 proves the maximum is attained
at a vertex of ``pk(q)`` and Theorem 3.15 shows ``L_lower`` equals the
HyperCube upper bound ``L_upper = p^{e^*}`` of LP (10): the two halves
of the paper's "essentially tight" claim.  Theorem 3.5 also bounds the
*fraction of answers* any load-``L`` algorithm can report, which is
what :func:`answer_fraction_bound` computes.

This module is the vertex form: it enumerates ``pk(q)``, which is
exponential in the number of atoms.  It serves the paper tables and is
the tests' oracle; it is off the planning path.  The planner's EXPLAIN
floor is LP (10)'s optimum by Theorem 3.15
(:func:`repro.planner.cost.one_round_floor`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping

from repro.core.packing import packing_polytope_vertices
from repro.core.query import ConjunctiveQuery
from repro.core.shares import share_exponents
from repro.core.stats import Statistics


def load_formula(
    u: Mapping[str, float], bits: Mapping[str, float], p: int
) -> float:
    """``L(u, M, p)`` of Eq. (11); 0 for the all-zero packing."""
    total = sum(u.values())
    if total <= 0:
        return 0.0
    log_product = 0.0
    for relation, weight in u.items():
        if weight <= 0:
            continue
        m = bits[relation]
        if m <= 0:
            return 0.0
        log_product += weight * math.log(m)
    exponent = (log_product - math.log(p)) / total
    return math.exp(exponent)


@lru_cache(maxsize=256)
def _vertices(query: ConjunctiveQuery) -> tuple[dict[str, float], ...]:
    return packing_polytope_vertices(query)


def optimal_packing_vertex(
    query: ConjunctiveQuery, stats: Statistics, p: int
) -> tuple[dict[str, float], float]:
    """The vertex ``u*`` of ``pk(q)`` maximizing ``L(u, M, p)``.

    Returns ``(u*, L(u*, M, p))``.  Section 3.3: the optimum over all
    packings is attained at a polytope vertex.
    """
    bits = stats.bits_vector()
    best_u: dict[str, float] | None = None
    best_value = -1.0
    for u in _vertices(query):
        value = load_formula(u, bits, p)
        if value > best_value:
            best_u, best_value = u, value
    if best_u is None:
        raise ValueError("query has no packing vertices")
    return best_u, best_value


def lower_bound(query: ConjunctiveQuery, stats: Statistics, p: int) -> float:
    """``L_lower = max_u L(u, M, p)`` in bits."""
    return optimal_packing_vertex(query, stats, p)[1]


def upper_bound(query: ConjunctiveQuery, stats: Statistics, p: int) -> float:
    """``L_upper = p^{e*}`` from LP (10) (Theorem 3.4), in bits."""
    return share_exponents(query, stats, p).load_bits


def equivalence_gap(query: ConjunctiveQuery, stats: Statistics, p: int) -> float:
    """``L_upper / L_lower``; Theorem 3.15 proves this equals 1."""
    lo = lower_bound(query, stats, p)
    hi = upper_bound(query, stats, p)
    if lo <= 0:
        raise ValueError("degenerate statistics: lower bound is zero")
    return hi / lo


def speedup_exponent_at(
    query: ConjunctiveQuery, stats: Statistics, p: int
) -> float:
    """``1 / sum_j u*_j`` for the optimal vertex (Section 3.4).

    The load decreases like ``p^{-1/sum u*}`` as ``p`` grows; with
    equal cardinalities this is ``1/tau*``, with unequal ones it can be
    better (Lemma 3.18).
    """
    u, _ = optimal_packing_vertex(query, stats, p)
    total = sum(u.values())
    if total <= 0:
        raise ValueError("optimal packing is the zero vertex")
    return 1.0 / total


def answer_fraction_bound(
    query: ConjunctiveQuery,
    stats: Statistics,
    p: int,
    load_bits: float,
    strengthened: bool = False,
) -> float:
    """Theorem 3.5: max fraction of ``E[|q(I)|]`` reported at load ``L``.

    For each packing ``u`` the theorem bounds the reported answers by
    ``(4L / (sum_j u_j * L(u, M, p)))^{sum_j u_j} * E[|q(I)|]``; the
    strongest bound minimizes over the polytope vertices.  With
    ``strengthened=True`` the constant 4 is dropped (the equal-size,
    arity >= 2 refinement in the theorem's second part).  The result is
    clipped to 1 (a fraction).
    """
    if load_bits <= 0:
        return 0.0
    bits = stats.bits_vector()
    constant = 1.0 if strengthened else 4.0
    best = 1.0
    for u in _vertices(query):
        total = sum(u.values())
        if total <= 0:
            continue
        l_u = load_formula(u, bits, p)
        if l_u <= 0:
            continue
        fraction = (constant * load_bits / (total * l_u)) ** total
        best = min(best, fraction)
    return min(1.0, best)
