"""Section 2 of arXiv 1602.06236: edge packings and the characteristic.

* Example 2.3: u = (1, 0, 1) is a tight edge packing of L3, and
  tau*(L3) = 2.
* Section 2.2: chi(L5) = 0, chi(L5/{S2, S4}) = 0, chi(K4) = 3,
  chi(M) = 1 and chi(K4/M) = 2 for M = {S1, S2, S3}.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.families import chain_query, k4_query
from repro.core.packing import (
    fractional_vertex_cover_number,
    is_edge_packing,
    is_tight,
)

from tests.paper.exact import rational


def test_example_2_3():
    q = chain_query(3)
    u = {"S1": 1.0, "S2": 0.0, "S3": 1.0}
    assert is_edge_packing(q, u) and is_tight(q, u)
    assert rational(fractional_vertex_cover_number(q)) == Fraction(2)


def test_characteristic_arithmetic():
    l5 = chain_query(5)
    k4 = k4_query()
    assert l5.characteristic == 0
    assert l5.contract(["S2", "S4"]).characteristic == 0
    assert k4.characteristic == 3
    assert k4.subquery(["S1", "S2", "S3"]).characteristic == 1
    assert k4.contract(["S1", "S2", "S3"]).characteristic == 2
