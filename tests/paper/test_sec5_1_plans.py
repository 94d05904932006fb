"""Section 5.1 of arXiv 1602.06236 (the multi-round results of arXiv
1306.5972): multi-round plans and the rounds/load tradeoff.

* Example 5.2: L16 in 4 rounds of binary joins (load ~ M / p) against
  2 rounds of 4-way joins (load ~ M / sqrt(p)).
* Example 5.3: SP_k in one round pays M / p^{1/k}; two rounds pay M / p.
* Lemma 5.4: the cycle plan for C6 takes 3 rounds.
* Example 5.19: at eps = 0, C5 has round bounds 2 <= r <= 3 (an open
  gap) and C6 the tight 3 <= r <= 3.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import cycle_query, spk_query
from repro.data.generators import matching_database
from repro.join import evaluate_arrays
from repro.multiround.executor import multiround_core
from repro.multiround.gamma import rounds_upper_bound
from repro.multiround.lowerbounds import cycle_round_lower_bound
from repro.multiround.plans import chain_plan, cycle_plan, spk_plan
from repro.run import dispatch_run


def test_example_5_2_fewer_rounds_cost_more_load():
    m, p = 256, 16
    rounds, loads = {}, {}
    for eps in (0.0, 0.5):
        plan = chain_plan(16, eps)
        db = matching_database(plan.query, m=m, n=m, seed=61)
        # The plan's core directly: ranking every strategy for L16 would
        # price a 16-atom query for nothing.
        result = dispatch_run(
            multiround_core, plan.query, db, p, seed=61,
            settings=ExecutionSettings(), plan=plan,
        )
        truth = evaluate_arrays(plan.query, db.arrays(plan.query))
        assert np.array_equal(result.answers_array(), truth)
        assert len(truth) == m
        rounds[eps], loads[eps] = result.rounds, result.max_load_bits
    assert (rounds[0.0], rounds[0.5]) == (4, 2)
    assert loads[0.5] > loads[0.0]


def test_example_5_3_spk_two_rounds_beat_one():
    k, p, m = 2, 16, 400
    query = spk_query(k)
    db = matching_database(query, m=m, n=m, seed=67)
    truth = evaluate_arrays(query, db.arrays(query))
    session = Session(p=p, seed=67)
    one_round = session.run(query, db, "hypercube")
    two_round = session.run(query, db, "multiround", plan=spk_plan(k))
    assert np.array_equal(one_round.answers_array(), truth)
    assert np.array_equal(two_round.answers_array(), truth)
    assert two_round.rounds == 2
    assert two_round.max_load_bits < one_round.max_load_bits


def test_lemma_5_4_cycle_plan_c6():
    plan = cycle_plan(6, 0.0)
    db = matching_database(plan.query, m=200, n=200, seed=71)
    result = Session(p=16, seed=71).run(plan.query, db, "multiround", plan=plan)
    truth = evaluate_arrays(plan.query, db.arrays(plan.query))
    assert np.array_equal(result.answers_array(), truth)
    assert result.rounds == 3


@pytest.mark.parametrize("k, lower, upper", [(5, 2, 3), (6, 3, 3)], ids=["C5", "C6"])
def test_example_5_19(k, lower, upper):
    assert cycle_round_lower_bound(k, 0.0) == lower
    assert rounds_upper_bound(cycle_query(k), 0.0) == upper
