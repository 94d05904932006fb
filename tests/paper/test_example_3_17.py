"""Example 3.17 of arXiv 1602.06236: the triangle with one small relation.

With M1 = 1 000 tuples in S1 and M = 100 000 in S2 and S3:

* pk(C3) has five vertices, (1/2, 1/2, 1/2), the three unit vectors and
  0, with loads L(u, M, p) = (prod_j M_j^{u_j} / p)^{1 / sum u};
* the optimal packing switches from broadcasting S1 (a unit vector,
  speedup exponent 1) to HyperCube's (1/2, 1/2, 1/2) (speedup exponent
  2/3) at p = M / M1 = 100.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.bounds.one_round import load_formula, optimal_packing_vertex
from repro.core.families import triangle_query
from repro.core.packing import packing_polytope_vertices
from repro.core.stats import Statistics

from tests.paper.exact import rational

M1, M = 1_000, 100_000
HALF = Fraction(1, 2)


def _stats():
    q = triangle_query()
    return q, Statistics(q, {"S1": M1, "S2": M, "S3": M}, domain_size=2**20)


def test_vertex_table():
    q, stats = _stats()
    bits = stats.bits_vector()
    p = 1_000
    expected = {
        (HALF, HALF, HALF): (bits["S1"] * bits["S2"] * bits["S3"]) ** (1 / 3)
        / p ** (2 / 3),
        (1, 0, 0): bits["S1"] / p,
        (0, 1, 0): bits["S2"] / p,
        (0, 0, 1): bits["S3"] / p,
        (0, 0, 0): 0.0,
    }
    vertices = packing_polytope_vertices(q)
    assert len(vertices) == 5
    seen = set()
    for u in vertices:
        key = tuple(rational(u[r]) for r in q.relation_names)
        seen.add(key)
        assert load_formula(u, bits, p) == pytest.approx(expected[key], abs=1e-6)
    assert seen == set(expected)


@pytest.mark.parametrize(
    "p, broadcast", [(10, True), (50, True), (99, True), (101, False),
                     (500, False), (5000, False)],
)
def test_crossover_at_m_over_m1(p, broadcast):
    q, stats = _stats()
    u, _ = optimal_packing_vertex(q, stats, p)
    packing = tuple(rational(u[r]) for r in q.relation_names)
    if broadcast:
        # A unit vector that leaves S1 out: S1 is broadcast, speedup p^1.
        assert packing in {(0, 1, 0), (0, 0, 1)}
        assert 1 / sum(packing) == 1
    else:
        assert packing == (HALF, HALF, HALF)
        assert 1 / sum(packing) == Fraction(2, 3)
