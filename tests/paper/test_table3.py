"""Table 3 of arXiv 1602.06236: the rounds/space tradeoff.

The round columns are the multi-round bounds of arXiv 1306.5972.
The paper's rows:

    C_k : one-round eps = 1 - 2/k,          ceil(log2 k) rounds for O(M/p)
    L_k : one-round eps = 1 - 1/ceil(k/2),  ceil(log2 k) rounds for O(M/p)
    T_k : eps = 0,                           1 round
    SP_k: eps = 1 - 1/k,                     2 rounds

and, for space exponent eps, r ~ log k / log(2 / (1 - eps)) rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from repro.core.families import chain_query, cycle_query, spk_query, star_query
from repro.multiround.gamma import (
    chain_rounds_upper_bound,
    k_epsilon,
    rounds_upper_bound,
    space_exponent_for_one_round,
)
from repro.multiround.lowerbounds import chain_round_lower_bound
from repro.multiround.plans import cycle_plan

from tests.paper.exact import rational


@pytest.mark.parametrize(
    "query, eps",
    [
        (cycle_query(6), 1 - Fraction(2, 6)),
        (cycle_query(8), 1 - Fraction(2, 8)),
        (chain_query(6), 1 - Fraction(1, 3)),
        (chain_query(8), 1 - Fraction(1, 4)),
        (star_query(4), Fraction(0)),
        (spk_query(3), 1 - Fraction(1, 3)),
    ],
    ids=["C6", "C8", "L6", "L8", "T4", "SP3"],
)
def test_one_round_space_exponent(query, eps):
    """Column 1: the space exponent a single round needs."""
    assert rational(space_exponent_for_one_round(query)) == eps


@pytest.mark.parametrize("k", (4, 8, 16))
def test_chain_rounds_for_linear_load(k):
    """Column 2, L_k: ceil(log2 k) rounds reach load O(M/p)."""
    assert chain_rounds_upper_bound(k, 0.0) == math.ceil(math.log2(k))


@pytest.mark.parametrize("k", (4, 8, 16))
def test_cycle_rounds_for_linear_load(k):
    """Column 2, C_k: the two-arc plan of Lemma 5.4 reaches ceil(log2 k)
    rounds at eps = 0 for k a power of two."""
    assert cycle_plan(k, 0.0).depth == math.ceil(math.log2(k))


def test_star_and_spk_rounds_for_linear_load():
    """Column 2: T_k needs one round, SP_k two."""
    assert rounds_upper_bound(star_query(4), 0.0) == 1
    assert rounds_upper_bound(spk_query(3), 0.0) == 2


@pytest.mark.parametrize("k", (16, 64))
@pytest.mark.parametrize("eps", (0.0, 0.5))
def test_rounds_space_tradeoff(k, eps):
    """Column 3: r = ceil(log_{k_eps} k), the paper's
    log k / log(2 / (1 - eps)) up to the floor in k_eps; the two agree
    exactly at eps = 0 and eps = 1/2."""
    expected = math.ceil(math.log(k, k_epsilon(eps)) - 1e-12)
    assert chain_round_lower_bound(k, eps) == expected
    assert expected == math.ceil(math.log(k) / math.log(2 / (1 - eps)) - 1e-12)
