"""E15 -- Lemma 3.6, Friedgut (Eq. 7), and the AGM bound, empirically.

* Lemma 3.6: Monte-Carlo E[|q(I)|] over random matchings matches
  n^{k-a} prod_j m_j.
* AGM: measured output sizes never exceed min over covers of
  prod m_j^{u_j}.
* Friedgut: the inequality holds for random weight assignments on the
  triangle (cover 1/2,1/2,1/2) and chain (cover 1,0,1).
"""

from __future__ import annotations

import random


from repro.core.families import chain_query, simple_join_query, triangle_query
from repro.core.friedgut import (
    agm_bound,
    expected_output_size,
    friedgut_lhs,
    friedgut_rhs,
)
from repro.core.stats import Statistics
from repro.data.generators import matching_database, uniform_database
from repro.join import evaluate_arrays


def test_lemma_3_6_monte_carlo(report_table):
    lines = [
        f"{'query':>6} {'n':>5} {'m':>4} {'formula':>9} {'empirical':>10} "
        f"{'rel err':>8}"
    ]
    cases = [
        (chain_query(2), 24, 12, 400),
        (simple_join_query(), 24, 12, 400),
        (chain_query(3), 16, 8, 400),
    ]
    for query, n, m, trials in cases:
        stats = Statistics.uniform(query, m, domain_size=n)
        formula = expected_output_size(stats)
        total = 0
        for trial in range(trials):
            db = matching_database(query, m=m, n=n, seed=trial * 7919 + 1)
            total += len(evaluate_arrays(query, db.arrays(query)))
        empirical = total / trials
        err = abs(empirical - formula) / formula
        assert err < 0.2, (query.name, empirical, formula)
        lines.append(
            f"{query.name:>6} {n:>5} {m:>4} {formula:>9.2f} "
            f"{empirical:>10.2f} {err:>8.1%}"
        )
    report_table("Lemma 3.6: E[|q(I)|] over random matchings", lines)


def test_agm_bound_never_violated(report_table):
    rng = random.Random(101)
    worst = 0.0
    for trial in range(30):
        query = rng.choice([triangle_query(), chain_query(2), chain_query(3)])
        m = rng.randint(20, 120)
        n = rng.randint(10, 40)
        db = uniform_database(query, m=min(m, n * n), n=n, seed=trial)
        output = len(evaluate_arrays(query, db.arrays(query)))
        bound = agm_bound(
            query, {r: len(db[r]) for r in query.relation_names}
        )
        assert output <= bound + 1e-9
        if bound > 0:
            worst = max(worst, output / bound)
    report_table(
        "AGM bound: |q(I)| <= min_u prod m_j^{u_j}",
        [f"30 random instances: max utilization {worst:.1%} of the bound"],
    )


def test_friedgut_inequality_random_weights(report_table):
    rng = random.Random(103)
    checks = 0
    for trial in range(20):
        n = 4
        weights = {}
        q = triangle_query()
        for atom in q.atoms:
            w = {}
            for a in range(n):
                for b in range(n):
                    if rng.random() < 0.6:
                        w[(a, b)] = rng.uniform(0, 2)
            weights[atom.relation] = w
        lhs = friedgut_lhs(q, weights, n)
        rhs = friedgut_rhs(q, {"S1": 0.5, "S2": 0.5, "S3": 0.5}, weights)
        assert lhs <= rhs + 1e-9
        checks += 1
    report_table(
        "Friedgut's inequality (Eq. 7)",
        [f"{checks} random weightings of C3: LHS <= RHS every time"],
    )


def test_benchmark_expected_output_monte_carlo(benchmark):
    query = chain_query(2)

    def once():
        db = matching_database(query, m=16, n=32, seed=7)
        return len(evaluate_arrays(query, db.arrays(query)))

    benchmark(once)
