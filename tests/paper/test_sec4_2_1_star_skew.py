"""Section 4.2.1 of arXiv 1602.06236: the star query under skew.

On Zipf skew of the star key, the skew-aware algorithm stays within a
constant of the Eq. (20) upper bound, Eq. (20) stays within a constant
of the Theorem 4.4 lower bound, and the algorithm beats hashing on z by
more as the skew grows.  At the extreme, one z value in both
relations, the load is the Cartesian-product grid's
(M1(h) M2(h) / p)^{1/2}.
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


def test_star_zipf_sweep():
    k, p, m = 2, 16, 2_000
    query = star_query(k)
    wins = []
    for skew in (0.4, 0.8, 1.2):
        freqs = {f"S{j}": zipf_frequencies(m, 80, skew=skew) for j in range(1, k + 1)}
        db = degree_sequence_database(query, "z", freqs, 2**15, seed=43)
        stats = db.statistics(query)
        truth = evaluate_arrays(query, db.arrays(query))
        vanilla = Session(p=p, seed=43).run(query, db, "hypercube", exponents={"z": 1.0})
        star = dispatch_run(star_core, query, db, p, seed=43, settings=ExecutionSettings())
        assert np.array_equal(vanilla.answers_array(), truth)
        assert np.array_equal(star.answers_array(), truth)
        eq20 = star_skew_load_bound(query, db, p)
        hitters = {
            rel: {h: c for h, c in f.items() if c >= stats.tuples(rel) / p}
            for rel, f in freqs.items()
        }
        lb = (
            star_skew_lower_bound(hitters, stats.value_bits, p, with_constant=False)
            if any(hitters.values())
            else stats.bits("S1") / p
        )
        # The light part carries the paper's polylog factor (its O~),
        # visible at low skew where sub-threshold hot keys collide.
        assert star.max_load_bits <= 6.0 * eq20
        assert eq20 <= 4.0 * max(lb, 1.0)
        wins.append(vanilla.max_load_bits / star.max_load_bits)
    assert wins[-1] > wins[0]
    assert wins[-1] > 1.5


def test_single_mega_hitter_is_a_grid():
    query = star_query(2)
    p, mh = 16, 900
    db = degree_sequence_database(
        query, "z", {"S1": {0: mh}, "S2": {0: mh}}, 2**13, seed=47
    )
    star = Session(p=p, seed=47).run(query, db, "skew-star")
    truth = evaluate_arrays(query, db.arrays(query))
    assert np.array_equal(star.answers_array(), truth)
    assert len(truth) == mh * mh
    grid_load = ((2 * mh * db.statistics(query).value_bits) ** 2 / p) ** 0.5
    assert 0.2 <= star.max_load_bits / grid_load <= 3.0
