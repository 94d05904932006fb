#!/usr/bin/env python
"""Multi-round chain queries and the connected-components frontier.

Section 5 of the paper is about the rounds/load tradeoff.  This example

1. computes ``L_16`` with two plans -- four rounds of binary joins
   (load ~ M/p) versus two rounds of 4-way joins (load ~ M/sqrt(p),
   Example 5.2) -- and prints the measured tradeoff;
2. certifies the matching lower bound with an (eps, r)-plan
   (Lemma 5.6 / Theorem 5.8);
3. runs tuple-based connected components on the Theorem 5.20 layered
   graphs and shows the round count growing like log(path length) while
   naive label propagation pays the full diameter.

Run:  python examples/chain_query_multiround.py
"""

import numpy as np

from repro import Session, chain_query
from repro.data.generators import layered_path_graph, matching_database
from repro.join import evaluate_arrays
from repro.multiround import (
    chain_epsilon_r_plan,
    chain_plan,
    chain_round_lower_bound,
    connected_components_mpc,
    validate_plan,
)


def chain_tradeoff() -> None:
    k, p, m = 16, 16, 256
    query = chain_query(k)
    db = matching_database(query, m=m, n=m, seed=21)  # permutations
    stats = db.statistics(query)
    truth = evaluate_arrays(query, db.arrays(query))
    print(f"=== {query.name}: rounds vs load on p={p}, m=n={m} ===")
    for eps, label in ((0.0, "binary bushy tree"), (0.5, "4-ary bushy tree")):
        plan = chain_plan(k, eps)
        result = Session(p=p, seed=2).run(query, db, "multiround", plan=plan)
        assert np.array_equal(result.answers_array(), truth)
        # Tuple-based load: every received tuple costs arity * value_bits.
        print(
            f"eps={eps}: {label}: {result.rounds} rounds, "
            f"max load {result.max_load_bits:.0f} bits "
            f"(M_rel = {stats.bits('S1'):.0f}; answers = sequential join)"
        )

    for eps in (0.0, 0.5):
        cert = chain_epsilon_r_plan(k, eps)
        validate_plan(cert)
        print(
            f"eps={eps}: (eps,r)-plan with r={cert.r} certifies >= "
            f"{chain_round_lower_bound(k, eps)} rounds (Cor. 5.15)"
        )


def connected_components_frontier() -> None:
    print("\n=== Theorem 5.20: connected components rounds ===")
    p = 8
    print(f"{'path length':>12} {'hash-to-min':>12} {'label prop':>11}")
    for length in (4, 8, 16, 32, 64):
        edges, n = layered_path_graph(length, 4, seed=31)
        h2m = connected_components_mpc(edges, n, p=p, seed=1)
        lp = connected_components_mpc(
            edges, n, p=p, seed=1, algorithm="label_propagation"
        )
        assert h2m.converged and lp.converged
        print(f"{length:>12} {h2m.rounds:>12} {lp.rounds:>11}")
    print(
        "hash-to-min grows ~ log(length) -- the shape the Omega(log p)\n"
        "lower bound says is unavoidable at load O(m/p^(1-eps))."
    )


def main() -> None:
    chain_tradeoff()
    connected_components_frontier()


if __name__ == "__main__":
    main()
