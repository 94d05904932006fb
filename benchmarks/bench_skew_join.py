"""E8 -- Example 4.1 and Section 4.1: skew kills the vanilla hash join.

The simple join S1(x,z), S2(y,z) hashed on z has load O(M/p) without
skew but Theta(M) when every tuple shares one z value.  The
skew-oblivious LP (18) shares (p^{1/3} on each variable) cap the damage
at M/p^{1/3}.  We sweep the planted-hitter fraction and tabulate all
three: vanilla hash join, skew-oblivious HC, and the Corollary 4.3
prediction.  Both algorithms are HyperCube pinned to one share vector
(``exponents={"z": 1.0}`` and LP (18)'s exponents).
"""

from __future__ import annotations

import numpy as np

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import simple_join_query
from repro.core.shares import skew_oblivious_share_exponents
from repro.data.generators import planted_heavy_hitter_database
from repro.hypercube.analysis import predicted_load_bits_skewed
from repro.join import evaluate_arrays
from repro.hypercube.algorithm import hypercube_core
from repro.run import dispatch_run


def lp18_exponents(query, db, p):
    """LP (18)'s exponents: pins HyperCube to the skew-oblivious shares."""
    return skew_oblivious_share_exponents(query, db.statistics(query), p).exponents


def test_skew_sweep(report_table):
    query = simple_join_query()
    m, p = 540, 27
    lines = [
        f"{'hitter %':>8} {'hash join L':>12} {'oblivious L':>12} "
        f"{'ratio':>6}   (m={m}, p={p})"
    ]
    ratios = []
    for fraction in (0.0, 0.25, 0.5, 1.0):
        db = planted_heavy_hitter_database(
            query, m, 2**14, "z", fraction, 7, seed=37
        )
        truth = evaluate_arrays(query, db.arrays(query))
        session = Session(p=p, seed=37)
        vanilla = session.run(query, db, "hypercube", exponents={"z": 1.0})
        oblivious = session.run(
            query, db, "hypercube", exponents=lp18_exponents(query, db, p)
        )
        assert np.array_equal(vanilla.answers_array(), truth)
        assert np.array_equal(oblivious.answers_array(), truth)
        ratio = vanilla.max_load_bits / oblivious.max_load_bits
        ratios.append(ratio)
        lines.append(
            f"{fraction:>8.0%} {vanilla.max_load_bits:>12.0f} "
            f"{oblivious.max_load_bits:>12.0f} {ratio:>6.2f}"
        )
    # Without skew the hash join wins; with full skew the oblivious
    # shares win by ~ p^{1/3}-ish.
    assert ratios[0] < 1.0
    assert ratios[-1] > 2.0
    report_table(
        "Example 4.1: hash join vs skew-oblivious HC under planted skew",
        lines,
    )


def test_corollary_4_3_prediction(report_table):
    # The oblivious algorithm's measured load under *full* skew matches
    # the Corollary 4.3 prediction max_j M_j / min-share.
    query = simple_join_query()
    m, p = 540, 27
    db = planted_heavy_hitter_database(query, m, 2**14, "z", 1.0, 7, seed=41)
    stats = db.statistics(query)
    result = Session(p=p, seed=41).run(
        query, db, "hypercube", exponents=lp18_exponents(query, db, p)
    )
    predicted = predicted_load_bits_skewed(query, stats, result.details["shares"])
    ratio = result.max_load_bits / predicted
    assert 0.3 <= ratio <= 3.0
    report_table(
        "Corollary 4.3: oblivious-HC load prediction (full skew)",
        [
            f"shares: {result.details['shares']}",
            f"measured L = {result.max_load_bits:.0f} bits",
            f"predicted max_j M_j/min-share = {predicted:.0f} bits",
            f"ratio = {ratio:.2f}",
        ],
    )


def test_benchmark_oblivious_join(benchmark):
    query = simple_join_query()
    db = planted_heavy_hitter_database(query, 400, 2**13, "z", 1.0, 3, seed=1)
    benchmark(
        dispatch_run, hypercube_core, query, db, 27, seed=1,
        settings=ExecutionSettings(), exponents=lp18_exponents(query, db, 27),
    )
