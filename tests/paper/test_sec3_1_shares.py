"""Section 3.1 of arXiv 1602.06236: shares that minimise the maximum load.

"Afrati and Ullman compute the shares by optimizing the total load [...]
Our approach is to optimize the maximum load per relation."  On equal
sizes the two objectives coincide; with unequal sizes the total-load
optimum can be far off the max-load optimum, which is what the MPC
model and the lower bound of Theorem 3.5 measure.  Real clusters also
need integer shares, and rounding p^{e_i} costs at most a small
constant over the fractional LP.
"""

from __future__ import annotations

import pytest

from repro.core.families import (
    chain_query,
    simple_join_query,
    spk_query,
    triangle_query,
)
from repro.core.shares import (
    afrati_ullman_share_exponents,
    integerize_shares,
    share_exponents,
)
from repro.core.stats import Statistics
from repro.hypercube.analysis import predicted_load_bits


def test_max_load_objective_beats_total_load():
    p = 64
    cases = [
        (triangle_query(), {"S1": 2**17, "S2": 2**17, "S3": 2**17}),
        (triangle_query(), {"S1": 2**10, "S2": 2**17, "S3": 2**17}),
        (chain_query(3), {"S1": 2**10, "S2": 2**18, "S3": 2**18}),
        (simple_join_query(), {"S1": 2**12, "S2": 2**18}),
        (chain_query(4), {"S1": 2**18, "S2": 2**12, "S3": 2**18, "S4": 2**12}),
        (spk_query(2), {"R1": 2**18, "S1": 2**12, "R2": 2**18, "S2": 2**12}),
    ]
    ratios = []
    for query, sizes in cases:
        stats = Statistics(query, sizes, 2**20)
        au = afrati_ullman_share_exponents(query, stats, p)
        bks = share_exponents(query, stats, p)
        ratio = au.load_bits / bks.load_bits
        # The paper's objective is optimal for max load (Theorem 3.15):
        # the total-load shares can only tie or lose.
        assert ratio >= 1.0 - 1e-6, query.name
        ratios.append(ratio)
    # Equal sizes: the objectives coincide.  Unequal: total-load loses
    # by more than 3x somewhere (the L3 case loses 8x).
    assert ratios[0] == pytest.approx(1.0, rel=1e-3)
    assert max(ratios) > 3.0


def test_integer_shares_cost_a_small_constant():
    query = triangle_query()
    stats = Statistics.uniform(query, 2**18, domain_size=2**20)
    for p in (8, 27, 64, 100, 500, 1000):
        sol = share_exponents(query, stats, p)
        realized = predicted_load_bits(
            query, stats, integerize_shares(sol.exponents, p)
        )
        ratio = realized / sol.load_bits
        assert 1.0 - 1e-9 <= ratio <= 4.0, p
