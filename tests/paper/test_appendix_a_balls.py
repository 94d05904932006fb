"""Appendix A of arXiv 1602.06236: weighted balls in bins.

* Theorems A.1 and A.2: the empirical P(max bin >= (1 + delta) m / K)
  stays under the closed-form tail bound, and the KL bound (A.2) is
  at least as strong as the h-bound (A.1).
* Theorem A.6 (degree promise): a matching relation spreads over a
  4 x 4 grid with its worst bin within 2x of the mean.
* Theorem A.5 (no promise): tuples sharing their first attribute hit
  one grid row, so the max bin is at least m / p_2.
"""

from __future__ import annotations

import pytest

from repro.data.generators import matching_relation
from repro.hashing.balls import (
    adversarial_weights,
    max_load_exceed_probability,
    simulate_grid_partition,
    simulate_weighted_balls,
    weighted_balls_tail_bound,
    weighted_balls_tail_bound_kl,
)


@pytest.fixture(scope="module")
def balls():
    k, beta = 8, 0.02
    weights = adversarial_weights(8_000, k, beta, seed=83)
    return k, beta, simulate_weighted_balls(weights, k, trials=60, seed=83)


@pytest.mark.parametrize("delta", (0.1, 0.2, 0.4, 0.8))
def test_tail_bounds_hold_empirically(balls, delta):
    k, beta, result = balls
    bound_h = min(1.0, weighted_balls_tail_bound(k, beta, delta))
    bound_kl = min(1.0, weighted_balls_tail_bound_kl(k, beta, delta))
    assert bound_kl <= bound_h + 1e-12
    assert max_load_exceed_probability(result, delta) <= bound_h + 0.05


def test_grid_partition_with_promise():
    rel = matching_relation("R", 2, 1600, 10_000, seed=89)
    result = simulate_grid_partition(list(rel.tuples), [4, 4], trials=20, seed=89)
    assert max(result.max_loads) <= 2.0 * result.mean_load


def test_grid_partition_without_promise():
    tuples = [(7, i) for i in range(1600)]
    result = simulate_grid_partition(tuples, [4, 4], trials=10, seed=97)
    assert min(result.max_loads) >= 1600 / 4
