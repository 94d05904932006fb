#!/usr/bin/env python
"""Quickstart: compute a triangle query with the HyperCube algorithm.

Walks through the paper's headline result end to end:

1. build the triangle query C3 and a skew-free (matching) database,
2. solve LP (10) for the optimal shares (p^{1/3} each),
3. run the one-round HyperCube algorithm on a simulated MPC cluster,
4. compare the measured maximum load against the paper's tight bound
   L_lower = L_upper = M / p^{2/3} (Theorems 3.4, 3.5, 3.15).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Session, triangle_query, uniform_database
from repro.bounds import lower_bound, upper_bound
from repro.core.shares import share_exponents
from repro.join import evaluate_arrays


def main() -> None:
    query = triangle_query()
    p = 64  # servers
    m = 2_000  # tuples per relation
    n = 200  # attribute domain (dense enough to have ~1000 triangles)

    print(f"query: {query}")
    db = uniform_database(query, m=m, n=n, seed=42)
    stats = db.statistics(query)
    print(
        f"database: {m} tuples/relation over [{n}] "
        f"({stats.total_bits:.0f} bits total)"
    )

    shares = share_exponents(query, stats, p)
    print(f"\nLP (10) share exponents: {shares.exponents}")
    print(f"predicted load p^lambda = {shares.load_bits:.0f} bits")

    result = Session(p=p, seed=7).run(query, db, "hypercube")
    print(f"\nHyperCube on p={p} servers, shares {result.details['shares']}")
    print(f"  answers found:  {len(result.answers)}")
    print(f"  max load:       {result.max_load_bits:.0f} bits")
    print(f"  replication:    {result.replication_rate(stats):.2f}x")

    sequential = evaluate_arrays(query, db.arrays(query))
    assert np.array_equal(
        result.answers_array(), sequential
    ), "parallel != sequential!"
    print(f"  matches the sequential join ({len(sequential)} answers)")

    lo = lower_bound(query, stats, p)
    hi = upper_bound(query, stats, p)
    print(f"\nTheorem 3.15: L_lower = {lo:.0f} = L_upper = {hi:.0f} bits")
    print(
        f"measured / bound = {result.max_load_bits / lo:.2f} "
        "(constant factor: the bound is per-relation, the load sums 3)"
    )


if __name__ == "__main__":
    main()
