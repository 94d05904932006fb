"""E9 -- Section 4.2.1: the star-query algorithm vs Eq. (20) and Thm 4.4.

Sweeps Zipf skew on the star key and tabulates: vanilla z-hashing, the
Section 4.2.1 algorithm, the Eq. (20) upper-bound formula, and the
Theorem 4.4 lower bound.  Shape claims asserted: the algorithm tracks
Eq. (20) within a constant, Eq. (20) and Thm 4.4 agree within a
constant (matching bounds), and the skew-aware algorithm beats vanilla
hashing once a hitter dominates.
"""

from __future__ import annotations

import numpy as np

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import star_query
from repro.data.generators import degree_sequence_database
from repro.join import evaluate_arrays
from repro.run import dispatch_run
from repro.skew.bounds import star_skew_lower_bound, zipf_frequencies
from repro.skew.star import star_core, star_skew_load_bound


def test_star_zipf_sweep(report_table):
    k, p, m = 2, 16, 2_000
    query = star_query(k)
    lines = [
        f"{'zipf s':>6} {'vanilla L':>10} {'star alg L':>11} "
        f"{'Eq.(20)':>9} {'Thm 4.4 LB':>11}"
    ]
    wins = []
    for skew in (0.4, 0.8, 1.2):
        freqs = {
            f"S{j}": zipf_frequencies(m, 80, skew=skew)
            for j in range(1, k + 1)
        }
        db = degree_sequence_database(query, "z", freqs, 2**15, seed=43)
        stats = db.statistics(query)
        truth = evaluate_arrays(query, db.arrays(query))
        vanilla = Session(p=p, seed=43).run(
            query, db, "hypercube", exponents={"z": 1.0}
        )
        star = dispatch_run(
            star_core, query, db, p, seed=43, settings=ExecutionSettings()
        )
        # Eq. (20) itself, not the planner's estimate of it.
        eq20 = star_skew_load_bound(query, db, p)
        assert np.array_equal(vanilla.answers_array(), truth)
        assert np.array_equal(star.answers_array(), truth)
        hitter_stats = {
            rel: {h: c for h, c in f.items() if c >= stats.tuples(rel) / p}
            for rel, f in freqs.items()
        }
        lb = (
            star_skew_lower_bound(hitter_stats, stats.value_bits, p, with_constant=False)
            if any(hitter_stats.values())
            else stats.bits("S1") / p
        )
        # Upper bound formula tracks the algorithm and the lower bound.
        # The light-part analysis carries a polylog factor (the paper's
        # O~), visible at low skew where sub-threshold hot keys collide.
        assert star.max_load_bits <= 6.0 * eq20
        assert eq20 <= 4.0 * max(lb, 1.0)
        wins.append(vanilla.max_load_bits / star.max_load_bits)
        lines.append(
            f"{skew:>6.1f} {vanilla.max_load_bits:>10.0f} "
            f"{star.max_load_bits:>11.0f} {eq20:>9.0f} "
            f"{lb:>11.0f}"
        )
    assert wins[-1] > wins[0]  # more skew, bigger win
    assert wins[-1] > 1.5
    report_table(
        "Section 4.2.1: star join under Zipf skew (T2, p=16)", lines
    )


def test_star_single_mega_hitter(report_table):
    # The extreme of Section 4.2.1: one z value carries both relations;
    # load ~ (M1(h) M2(h)/p)^{1/2}, the Cartesian-product grid.
    query = star_query(2)
    p, mh = 16, 900
    freqs = {"S1": {0: mh}, "S2": {0: mh}}
    db = degree_sequence_database(query, "z", freqs, 2**13, seed=47)
    stats = db.statistics(query)
    star = Session(p=p, seed=47).run(query, db, "skew-star")
    truth = evaluate_arrays(query, db.arrays(query))
    assert np.array_equal(star.answers_array(), truth)
    assert len(truth) == mh * mh
    grid_load = (
        (2 * mh * stats.value_bits) ** 2 / p
    ) ** 0.5
    ratio = star.max_load_bits / grid_load
    assert 0.2 <= ratio <= 3.0
    report_table(
        "Section 4.2.1 extreme: single mega-hitter (residual grid)",
        [
            f"answers = {len(truth)} (= m(h)^2)",
            f"measured L = {star.max_load_bits:.0f} bits",
            f"(M1(h) M2(h)/p)^(1/2) = {grid_load:.0f} bits",
            f"ratio = {ratio:.2f}",
        ],
    )


def test_benchmark_star_skew(benchmark):
    query = star_query(2)
    freqs = {
        "S1": zipf_frequencies(800, 40, 1.1),
        "S2": zipf_frequencies(800, 40, 1.1),
    }
    db = degree_sequence_database(query, "z", freqs, 2**13, seed=1)
    benchmark(
        dispatch_run, star_core, query, db, 16, seed=1,
        settings=ExecutionSettings(),
    )
