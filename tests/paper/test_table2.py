"""Table 2 of arXiv 1602.06236: share exponents, tau* and space exponents.

The paper's rows, for relations of equal size:

    C_k : shares 1/k each,          tau* = k/2,        eps >= 1 - 2/k
    T_k : share 1 on z, 0 on x_j,   tau* = 1,          eps >= 0
    L_k : tau* = ceil(k/2),                            eps >= 1 - 1/ceil(k/2)
    B_km: shares 1/k each,          tau* = k/m,        eps >= 1 - m/k

Every row is regenerated from the LPs and compared as an exact rational.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.families import binom_query, chain_query, cycle_query, star_query
from repro.core.packing import fractional_vertex_cover_number
from repro.core.shares import (
    equal_size_share_exponents,
    share_exponents,
    space_exponent_bound,
)
from repro.core.stats import Statistics

from tests.paper.exact import rational


def _ceil_half(k: int) -> int:
    return -(-k // 2)


ROWS = (
    [(cycle_query(k), Fraction(1, k), Fraction(k, 2), 1 - Fraction(2, k))
     for k in (3, 4, 5, 6)]
    + [(star_query(k), "z", Fraction(1), Fraction(0)) for k in (2, 3, 4)]
    + [(chain_query(k), None, Fraction(_ceil_half(k)),
        1 - Fraction(1, _ceil_half(k))) for k in (2, 3, 4, 5)]
    + [(binom_query(k, m), Fraction(1, k), Fraction(k, m), 1 - Fraction(m, k))
       for k, m in ((4, 2), (4, 3), (5, 2))]
)


@pytest.mark.parametrize(
    "query, shares, tau, eps", ROWS, ids=[row[0].name for row in ROWS]
)
def test_table2_row(query, shares, tau, eps):
    assert rational(fractional_vertex_cover_number(query)) == tau
    assert rational(space_exponent_bound(query)) == eps
    exps = equal_size_share_exponents(query)
    if isinstance(shares, Fraction):
        assert {v: rational(e) for v, e in exps.items()} == dict.fromkeys(exps, shares)
    elif shares == "z":
        # The star hashes on its centre only: share 1 on z, 0 on each leg.
        assert {v: rational(e) for v, e in exps.items()} == {
            v: Fraction(v == "z") for v in exps
        }


def test_lp_covers_unequal_sizes():
    # The regime Table 2 leaves out: the LP still gives a valid share
    # vector (exponents summing to at most 1) and a positive load.
    q = cycle_query(4)
    stats = Statistics(
        q, {"S1": 2**12, "S2": 2**14, "S3": 2**16, "S4": 2**18}, 2**20
    )
    sol = share_exponents(q, stats, 64)
    assert sol.load_bits > 0
    assert sum(sol.exponents.values()) <= 1 + 1e-9
