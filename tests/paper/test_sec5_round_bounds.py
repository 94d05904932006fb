"""Sections 5.2 and 5.3 of arXiv 1602.06236 (the round lower bounds of
arXiv 1306.5972): round bounds from (eps, r)-plans.

* Corollary 5.15: chain round bounds are tight, and certified by the
  Lemma 5.6 plan, valid under Definition 5.5.
* Lemma 5.18 against Lemma 5.4: cycle bounds differ by at most one.
* Corollary 5.17: tree-like bounds differ by at most one.
* Theorem 5.11: at 0.99 times the critical load the reported fraction
  is below 1/9.
* Theorem 5.20: the connected-components lower bound grows with log p.
"""

from __future__ import annotations

import pytest

from repro.core.families import chain_query, cycle_query
from repro.multiround.gamma import chain_rounds_upper_bound, rounds_upper_bound
from repro.multiround.good_sets import (
    chain_epsilon_r_plan,
    cycle_epsilon_r_plan,
    validate_plan,
)
from repro.multiround.lowerbounds import (
    chain_round_lower_bound,
    connected_components_round_lower_bound,
    cycle_round_lower_bound,
    load_constant_for_failure,
    reported_fraction_bound,
    tree_like_round_lower_bound,
)


@pytest.mark.parametrize("k", (8, 16, 32, 64))
@pytest.mark.parametrize("eps", (0.0, 0.5))
def test_corollary_5_15_chains_are_tight(k, eps):
    lower = chain_round_lower_bound(k, eps)
    assert lower == chain_rounds_upper_bound(k, eps)
    plan = chain_epsilon_r_plan(k, eps)
    validate_plan(plan)
    assert plan.round_lower_bound == lower


@pytest.mark.parametrize("k", (5, 6, 8, 12, 16))
def test_lemma_5_18_cycles_within_one_round(k):
    lower = cycle_round_lower_bound(k, 0.0)
    upper = rounds_upper_bound(cycle_query(k), 0.0)
    assert 0 <= upper - lower <= 1
    plan = cycle_epsilon_r_plan(k, 0.0)
    validate_plan(plan)
    assert plan.round_lower_bound <= upper


@pytest.mark.parametrize("k", (4, 8, 16))
def test_corollary_5_17_tree_like_within_one_round(k):
    lower = tree_like_round_lower_bound(chain_query(k), 0.0)
    assert 0 <= chain_rounds_upper_bound(k, 0.0) - lower <= 1


@pytest.mark.parametrize("k", (8, 16, 32))
def test_theorem_5_11_fails_below_the_critical_load(k):
    p, m_bits = 2**10, 2**24
    plan = chain_epsilon_r_plan(k, 0.0)
    c = load_constant_for_failure(plan, p)
    assert reported_fraction_bound(plan, 0.99 * c * m_bits / p, m_bits, p) < 1 / 9


def test_theorem_5_20_grows_with_log_p():
    values = [
        connected_components_round_lower_bound(2**e, 0.0)
        for e in (16, 64, 256, 1024, 4096)
    ]
    assert values == sorted(values)
    assert values[-1] > values[0]
