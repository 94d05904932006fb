"""Theorem 3.5 and Section 3.4 of arXiv 1602.06236: capped load loses answers.

A one-round algorithm whose load is capped below L_lower cannot report
every answer.  HyperCube run with a hard receive cap (excess dropped)
reports a fraction that falls as the cap shrinks, is complete at a few
times L_lower and collapses below it.  At a fixed load exponent below
the triangle's 1 - 1/tau* = 1/3 space exponent, the fraction falls as
p grows (Section 3.4).
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.bounds.one_round import lower_bound
from repro.core.families import triangle_query
from repro.data.generators import uniform_database
from repro.join import evaluate_arrays


def _recall(query, db, p, seed, cap):
    truth = set(map(tuple, evaluate_arrays(query, db.arrays(query)).tolist()))
    assert truth
    result = Session(p=p, seed=seed, capacity_bits=cap, on_overflow="drop").run(
        query, db, "hypercube"
    )
    return len(result.answers & truth) / len(truth)


def test_recall_falls_with_the_load_cap():
    query = triangle_query()
    db = uniform_database(query, m=1_500, n=120, seed=17)
    base = lower_bound(query, db.statistics(query), 27)
    recalls = [
        _recall(query, db, 27, 17, factor * base)
        for factor in (4.0, 2.0, 1.0, 0.5, 0.25)
    ]
    assert all(a >= b - 1e-9 for a, b in zip(recalls, recalls[1:]))
    assert recalls[0] == pytest.approx(1.0)
    assert recalls[-1] < 0.7


def test_recall_falls_with_p_below_the_space_exponent():
    # Load exponent 1 - eps = 3/4 (eps = 1/4 < 1/3): the needed load
    # M / p^{2/3} outgrows the cap 3 M_1 / p^{3/4} as p grows.
    query = triangle_query()
    db = uniform_database(query, m=1_200, n=110, seed=19)
    bits = db.statistics(query).bits("S1")
    recalls = [_recall(query, db, p, 19, 3 * bits / p**0.75) for p in (8, 27, 64)]
    assert recalls[0] > recalls[-1]
