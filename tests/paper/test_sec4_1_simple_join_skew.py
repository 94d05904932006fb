"""Example 4.1 and Corollary 4.3 of arXiv 1602.06236: skew and the hash join.

The join S1(x, z), S2(y, z) hashed on z has load O(M / p) without skew
but Theta(M) when every tuple shares one z.  The skew-oblivious shares
of LP (18) (p^{1/3} on each variable) cap the damage at M / p^{1/3}.
Both algorithms are HyperCube pinned to one share vector: the hash
join with ``exponents={"z": 1.0}``, the oblivious one with LP (18)'s.
"""

from __future__ import annotations

import numpy as np

from repro import Session
from repro.core.families import simple_join_query
from repro.core.shares import skew_oblivious_share_exponents
from repro.data.generators import planted_heavy_hitter_database
from repro.hypercube.analysis import predicted_load_bits_skewed
from repro.join import evaluate_arrays

M, P = 540, 27


def lp18_exponents(query, db, p):
    return skew_oblivious_share_exponents(query, db.statistics(query), p).exponents


def test_hash_join_loses_to_oblivious_shares_under_skew():
    query = simple_join_query()
    ratios = []
    for fraction in (0.0, 0.25, 0.5, 1.0):
        db = planted_heavy_hitter_database(query, M, 2**14, "z", fraction, 7, seed=37)
        truth = evaluate_arrays(query, db.arrays(query))
        session = Session(p=P, seed=37)
        vanilla = session.run(query, db, "hypercube", exponents={"z": 1.0})
        oblivious = session.run(
            query, db, "hypercube", exponents=lp18_exponents(query, db, P)
        )
        assert np.array_equal(vanilla.answers_array(), truth)
        assert np.array_equal(oblivious.answers_array(), truth)
        ratios.append(vanilla.max_load_bits / oblivious.max_load_bits)
    # Without skew the hash join wins; with every tuple on one z the
    # oblivious shares win by more than 2x.
    assert ratios[0] < 1.0
    assert ratios[-1] > 2.0


def test_corollary_4_3_prediction_under_full_skew():
    # Measured oblivious load within 3x of max_j M_j / min-share.
    query = simple_join_query()
    db = planted_heavy_hitter_database(query, M, 2**14, "z", 1.0, 7, seed=41)
    result = Session(p=P, seed=41).run(
        query, db, "hypercube", exponents=lp18_exponents(query, db, P)
    )
    predicted = predicted_load_bits_skewed(
        query, db.statistics(query), result.details["shares"]
    )
    assert 0.3 <= result.max_load_bits / predicted <= 3.0
