"""E11 -- Section 5.1: multi-round plans and the rounds/load tradeoff.

* Example 5.2: L16 in 4 rounds of binary joins (load ~ M/p) versus 2
  rounds of 4-way joins (load ~ M/sqrt(p)).
* Example 5.3: SP_k's one-round load M/p^{1/k} versus the two-round
  plan's M/p.
* Lemma 5.4's cycle plan for C6.
"""

from __future__ import annotations

import numpy as np

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import spk_query
from repro.data.generators import matching_database
from repro.join import evaluate_arrays
from repro.multiround.plans import chain_plan, cycle_plan, spk_plan
from repro.multiround.executor import multiround_core
from repro.run import dispatch_run

#: L16 runs its plan core directly: ranking every strategy for it would
#: first enumerate the whole 16-atom packing polytope.
ENGINE = ExecutionSettings()


def test_example_5_2_rounds_vs_load(report_table):
    m, p = 256, 16
    lines = [
        f"{'plan':>22} {'rounds':>6} {'max load':>9} {'M_rel':>7}"
    ]
    loads = {}
    for eps, label in ((0.0, "binary (eps=0)"), (0.5, "4-ary (eps=1/2)")):
        plan = chain_plan(16, eps)
        db = matching_database(plan.query, m=m, n=m, seed=61)
        stats = db.statistics(plan.query)
        result = dispatch_run(
            multiround_core, plan.query, db, p, seed=61, settings=ENGINE,
            plan=plan,
        )
        truth = evaluate_arrays(plan.query, db.arrays(plan.query))
        assert np.array_equal(result.answers_array(), truth)
        assert len(truth) == m
        loads[eps] = result.max_load_bits
        lines.append(
            f"{label:>22} {result.rounds:>6} {result.max_load_bits:>9.0f} "
            f"{stats.bits('S1'):>7.0f}"
        )
    # Fewer rounds cost more load: the 2-round plan's load exceeds the
    # 4-round plan's (p^{1/2} vs p speedup).
    assert loads[0.5] > loads[0.0]
    report_table("Example 5.2: L16 rounds/load tradeoff (p=16)", lines)


def test_example_5_3_spk(report_table):
    k, p, m = 2, 16, 400
    query = spk_query(k)
    db = matching_database(query, m=m, n=m, seed=67)
    stats = db.statistics(query)
    truth = evaluate_arrays(query, db.arrays(query))

    session = Session(p=p, seed=67)
    one_round = session.run(query, db, "hypercube")
    assert np.array_equal(one_round.answers_array(), truth)
    plan = spk_plan(k)
    two_round = session.run(query, db, "multiround", plan=plan)
    assert np.array_equal(two_round.answers_array(), truth)

    # One round pays ~ M/p^{1/k}; two rounds get ~ M/p per relation.
    m_bits = stats.bits("R1")
    lines = [
        f"one round (tau* = {k}): L = {one_round.max_load_bits:.0f} bits "
        f"(theory ~ M/p^(1/{k}) = {m_bits / p ** (1 / k):.0f})",
        f"two rounds: L = {two_round.max_load_bits:.0f} bits "
        f"(theory ~ M/p = {m_bits / p:.0f} per relation)",
    ]
    assert two_round.rounds == 2
    assert two_round.max_load_bits < one_round.max_load_bits
    report_table("Example 5.3: SP2 one round vs two rounds (p=16)", lines)


def test_cycle_plan_c6(report_table):
    plan = cycle_plan(6, 0.0)
    db = matching_database(plan.query, m=200, n=200, seed=71)
    result = Session(p=16, seed=71).run(
        plan.query, db, "multiround", plan=plan
    )
    truth = evaluate_arrays(plan.query, db.arrays(plan.query))
    assert np.array_equal(result.answers_array(), truth)
    assert result.rounds == 3  # Lemma 5.4 / Example 5.19: tight
    report_table(
        "Lemma 5.4: C6 plan",
        [
            f"rounds = {result.rounds} (paper: 3, tight by Example 5.19)",
            f"max load = {result.max_load_bits:.0f} bits",
            f"answers = {len(result.answers)}",
        ],
    )


def test_benchmark_l16_two_round_plan(benchmark):
    plan = chain_plan(16, 0.5)
    db = matching_database(plan.query, m=128, n=128, seed=1)
    benchmark(
        dispatch_run, multiround_core, plan.query, db, 16, seed=1,
        settings=ENGINE, plan=plan,
    )
