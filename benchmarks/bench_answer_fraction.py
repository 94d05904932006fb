"""E6 -- Theorem 3.5 as an experiment: load-capped algorithms miss answers.

A one-round algorithm whose per-server load is capped at L < L_lower
cannot report all answers; Theorem 3.5 bounds the reported fraction by
min_u (L / L(u, M, p) / sum u)^{sum u}.  We run the HyperCube algorithm
with a hard receive cap (excess tuples dropped) and compare the
measured recall against the bound's *shape*: recall decays as the cap
shrinks, full recall needs L ~ L_lower.

Also reproduces the Section 3.4 space-exponent story: at fixed load
exponent below 1 - 1/tau*, recall decays as p grows.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.bounds.one_round import answer_fraction_bound, lower_bound
from repro.config import ExecutionSettings
from repro.core.families import triangle_query
from repro.data.generators import uniform_database
from repro.join import evaluate_arrays
from repro.hypercube.algorithm import hypercube_core
from repro.run import dispatch_run


def test_recall_vs_load_cap(report_table):
    query = triangle_query()
    db = uniform_database(query, m=1_500, n=120, seed=17)
    stats = db.statistics(query)
    p = 27
    truth = set(map(tuple, evaluate_arrays(query, db.arrays(query)).tolist()))
    assert truth
    base = lower_bound(query, stats, p)
    lines = [
        f"{'cap / L_lower':>13} {'measured recall':>16} "
        f"{'Thm 3.5 cap on fraction':>24}"
    ]
    recalls = []
    for factor in (4.0, 2.0, 1.0, 0.5, 0.25):
        cap = factor * base
        result = Session(
            p=p, seed=17, capacity_bits=cap, on_overflow="drop"
        ).run(query, db, "hypercube")
        recall = len(result.answers & truth) / len(truth)
        recalls.append(recall)
        bound = answer_fraction_bound(query, stats, p, cap, strengthened=True)
        lines.append(f"{factor:>13.2f} {recall:>16.3f} {bound:>24.3f}")
    # Recall is monotone in the cap and collapses under L_lower.
    assert all(a >= b - 1e-9 for a, b in zip(recalls, recalls[1:]))
    assert recalls[0] == pytest.approx(1.0)
    assert recalls[-1] < 0.7
    report_table("Theorem 3.5: recall under a hard load cap (C3, p=27)", lines)


def test_space_exponent_decay_with_p(report_table):
    # Fixed load exponent 1 - eps = 0.75 (eps = 0.25, below the
    # triangle's required 1/3): recall must decay as p grows, since
    # the needed load is M/p^{2/3} > M/p^{3/4}.
    query = triangle_query()
    lines = [f"{'p':>5} {'measured recall':>16} {'Thm 3.5 fraction cap':>21}"]
    recalls = []
    for p in (8, 27, 64):
        db = uniform_database(query, m=1_200, n=110, seed=19)
        stats = db.statistics(query)
        truth = set(map(tuple, evaluate_arrays(query, db.arrays(query)).tolist()))
        cap = 3 * stats.bits("S1") / p**0.75
        result = Session(
            p=p, seed=19, capacity_bits=cap, on_overflow="drop"
        ).run(query, db, "hypercube")
        recall = len(result.answers & truth) / len(truth)
        bound = answer_fraction_bound(query, stats, p, cap, strengthened=True)
        recalls.append(recall)
        lines.append(f"{p:>5} {recall:>16.3f} {bound:>21.3f}")
    assert recalls[0] > recalls[-1]
    report_table(
        "Section 3.4: recall decay at space exponent below 1 - 1/tau*",
        lines,
    )


def test_benchmark_capped_run(benchmark):
    query = triangle_query()
    db = uniform_database(query, m=800, n=100, seed=23)
    stats = db.statistics(query)
    settings = ExecutionSettings(capacity_bits=lower_bound(query, stats, 27),
                                 on_overflow="drop")

    def run():
        return dispatch_run(
            hypercube_core, query, db, 27, seed=23, settings=settings
        )

    benchmark(run)
