#!/usr/bin/env python
"""A warehouse-style star join under heavy-hitter skew (Section 4.2.1).

Think of a fact-table key ``z`` (say, customer id) joined against k
attribute relations.  Real workloads are Zipf-distributed: a few
customers dominate.  The example:

1. realizes an exact Zipf degree sequence on ``z`` (the paper's
   z-statistics),
2. runs the standard parallel hash join (all shares on ``z``) -- the
   Example 4.1 failure mode,
3. runs the skew-oblivious HyperCube (LP (18) shares); both are the
   ``"hypercube"`` strategy pinned to one share vector with
   ``exponents=``,
4. runs the Section 4.2.1 skew-aware star algorithm with per-hitter
   server allocation,
5. compares all three loads against the Theorem 4.4 lower bound.

Run:  python examples/star_join_warehouse.py
"""

import numpy as np

from repro import Session, star_query
from repro.core.shares import skew_oblivious_share_exponents
from repro.data.generators import degree_sequence_database
from repro.join import evaluate_arrays
from repro.skew import star_skew_load_bound, star_skew_lower_bound
from repro.skew.bounds import zipf_frequencies


def main() -> None:
    k = 2  # attribute relations
    p = 16
    m = 3_000  # tuples per relation
    n = 50_000

    query = star_query(k)
    print(f"query: {query}")

    # Zipf z-statistics: ~60 distinct keys, rank-1 key dominates.
    freqs = {
        f"S{j}": zipf_frequencies(m, 60, skew=1.2) for j in range(1, k + 1)
    }
    db = degree_sequence_database(query, "z", freqs, n, seed=11)
    stats = db.statistics(query)
    top = max(freqs["S1"].values())
    print(
        f"data: {stats.total_tuples} tuples, hottest key holds "
        f"{top}/{stats.tuples('S1')} of S1 ({top / stats.tuples('S1'):.0%})"
    )

    truth = evaluate_arrays(query, db.arrays(query))
    print(f"join answers: {len(truth)}")

    with Session(p=p, seed=5) as session:
        hash_join = session.run(query, db, "hypercube", exponents={"z": 1.0})
        lp18 = skew_oblivious_share_exponents(query, stats, p)
        oblivious = session.run(
            query, db, "hypercube", exponents=lp18.exponents
        )
        star = session.run(query, db, "skew-star")
    for result, name in (
        (hash_join, "parallel hash join (shares on z)"),
        (oblivious, "skew-oblivious HC (LP 18)"),
    ):
        assert np.array_equal(result.answers_array(), truth)
        print(f"\n{name}:")
        print(f"  max load {result.max_load_bits:.0f} bits")
    assert np.array_equal(star.answers_array(), truth)
    print(f"\nskew-aware star algorithm (Section 4.2.1), "
          f"{star.servers_used} servers:")
    print(f"  max load {star.max_load_bits:.0f} bits")
    print(f"  Eq. (20) bound: {star_skew_load_bound(query, db, p):.0f} bits")
    print(f"  heavy hitters handled: {len(star.details['heavy_hitters'])}")

    hitter_stats = {
        rel: {h: c for h, c in f.items() if c >= m / p}
        for rel, f in freqs.items()
    }
    bound = star_skew_lower_bound(
        hitter_stats, stats.value_bits, p, with_constant=False
    )
    print(f"\nTheorem 4.4 lower bound (no constant): {bound:.0f} bits")
    print(
        f"hash join / star-algorithm load ratio: "
        f"{hash_join.max_load_bits / star.max_load_bits:.1f}x"
    )


if __name__ == "__main__":
    main()
