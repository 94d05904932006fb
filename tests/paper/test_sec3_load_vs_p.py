"""Theorems 3.4 and 3.5 of arXiv 1602.06236: HyperCube load against p.

On skew-free matching databases the measured load tracks the tight
bound M / p^{1/tau*}: speedup p^{2/3} for the triangle, p^{1/2} for L3
and C4, p for the star.  The measured load stays within a constant of
the bound, and the gain from the smallest to the largest p follows
the power law.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro import Session
from repro.bounds.one_round import lower_bound
from repro.core.families import chain_query, cycle_query, star_query, triangle_query
from repro.core.packing import fractional_vertex_cover_number
from repro.data.generators import matching_database
from repro.join import evaluate_arrays

from tests.paper.exact import rational

CASES = [
    (triangle_query(), (8, 27, 64), Fraction(2, 3)),
    (chain_query(3), (4, 16, 64), Fraction(1, 2)),
    (star_query(2), (4, 16, 64), Fraction(1)),
    (cycle_query(4), (4, 16, 64), Fraction(1, 2)),
]


@pytest.mark.parametrize(
    "query, ps, exponent", CASES, ids=[case[0].name for case in CASES]
)
def test_load_tracks_power_law(query, ps, exponent):
    assert 1 / rational(fractional_vertex_cover_number(query)) == exponent
    db = matching_database(query, m=1_200, n=2**16, seed=13)
    stats = db.statistics(query)
    truth = evaluate_arrays(query, db.arrays(query))
    measured = []
    for p in ps:
        result = Session(p=p, seed=13).run(query, db, "hypercube")
        assert np.array_equal(result.answers_array(), truth)
        ratio = result.max_load_bits / lower_bound(query, stats, p)
        # Within a small constant of the tight bound (the bound is per
        # relation; a server receives all l relations).
        assert 0.8 <= ratio <= 2.5 * query.num_atoms, p
        measured.append(result.max_load_bits)
    expected_gain = (ps[-1] / ps[0]) ** float(exponent)
    assert measured[0] / measured[-1] == pytest.approx(expected_gain, rel=0.45)
