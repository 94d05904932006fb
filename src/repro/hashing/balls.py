"""Weighted balls-in-bins: Appendix A's tail bounds and simulators.

Theorem A.1 (weighted balls in bins): hashing items of total weight
``m`` with ``max weight <= beta * m / K`` into ``K`` bins,

.. math::
    P(\\max \\text{bin} \\ge (1+\\delta) m/K) \\le K e^{-h(\\delta)/\\beta},
    \\qquad h(x) = (1+x)\\ln(1+x) - x.

Theorem A.2 strengthens ``h(delta)`` to ``K * D((1+delta)/K || 1/K)``
(KL divergence of Bernoullis).  Theorems A.5/A.6 extend the analysis to
the HyperCube grid partition, without and with the degree "promise".

The simulators here draw fresh hash functions per trial and report the
empirical exceedance probability, which
``tests/paper/test_appendix_a_balls.py`` compares against the
closed-form bounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro.hashing.family import GridPartitioner, HashFamily, derive_seed


def bennett_h(x: float) -> float:
    """``h(x) = (1+x) ln(1+x) - x`` (Bennett's function, Thm A.1)."""
    if x < 0:
        raise ValueError("h is used for x >= 0")
    return (1.0 + x) * math.log1p(x) - x


def kl_bernoulli(q_new: float, q_old: float) -> float:
    """``D(q' || q)`` for Bernoulli distributions (Appendix A)."""
    if not (0 <= q_new <= 1 and 0 < q_old < 1):
        raise ValueError("probabilities out of range")
    out = 0.0
    if q_new > 0:
        out += q_new * math.log(q_new / q_old)
    if q_new < 1:
        out += (1 - q_new) * math.log((1 - q_new) / (1 - q_old))
    return out


def weighted_balls_tail_bound(k: int, beta: float, delta: float) -> float:
    """Theorem A.1's bound ``K e^{-h(delta)/beta}`` (may exceed 1)."""
    if k < 1 or beta <= 0 or delta < 0:
        raise ValueError("need K >= 1, beta > 0, delta >= 0")
    return k * math.exp(-bennett_h(delta) / beta)


def weighted_balls_tail_bound_kl(k: int, beta: float, delta: float) -> float:
    """Theorem A.2's sharper bound ``K e^{-K D((1+delta)/K || 1/K)/beta}``.

    Requires ``(1+delta)/K <= 1``; beyond that the probability is 0.
    """
    if k < 2 or beta <= 0 or delta < 0:
        raise ValueError("need K >= 2, beta > 0, delta >= 0")
    t = (1.0 + delta) / k
    if t >= 1.0:
        return 0.0
    return k * math.exp(-k * kl_bernoulli(t, 1.0 / k) / beta)


@dataclass(frozen=True)
class BallsInBinsResult:
    """Empirical max-load distribution over simulation trials."""

    max_loads: tuple[float, ...]
    mean_load: float
    bins: int

    def exceed_probability(self, threshold: float) -> float:
        """Fraction of trials whose max bin load reached ``threshold``."""
        if not self.max_loads:
            return 0.0
        hits = sum(1 for load in self.max_loads if load >= threshold)
        return hits / len(self.max_loads)


def simulate_weighted_balls(
    weights: Sequence[float],
    k: int,
    trials: int = 100,
    seed: int = 0,
) -> BallsInBinsResult:
    """Hash weighted balls into ``k`` bins, ``trials`` times.

    Each trial uses a fresh hash function (salted by the trial index);
    ball ``i`` is the integer key ``i``.  Returns the per-trial maximum
    bin weights.
    """
    if k < 1:
        raise ValueError("need at least one bin")
    total = float(sum(weights))
    maxima = []
    for trial in range(trials):
        h = HashFamily(seed).function(trial + 1, k)
        bins = [0.0] * k
        for i, w in enumerate(weights):
            bins[h(i)] += w
        maxima.append(max(bins) if bins else 0.0)
    mean = total / k
    return BallsInBinsResult(tuple(maxima), mean, k)


def simulate_grid_partition(
    tuples: Sequence[tuple[int, ...]],
    shares: Sequence[int],
    trials: int = 50,
    seed: int = 0,
    weights: Sequence[float] | None = None,
) -> BallsInBinsResult:
    """HyperCube-partition tuples onto a share grid, ``trials`` times.

    Implements the experiment behind Theorems A.5/A.6: tuple
    ``(a_1, ..., a_r)`` goes to bin ``(h_1(a_1), ..., h_r(a_r))``.
    Returns per-trial maximum bin loads (tuple-weighted by ``weights``
    if given, else unit weights).
    """
    if weights is None:
        weights = [1.0] * len(tuples)
    if len(weights) != len(tuples):
        raise ValueError("need one weight per tuple")
    arity = len(shares)
    for t in tuples:
        if len(t) != arity:
            raise ValueError("tuple arity must match the grid dimension")
    p = math.prod(shares)
    total = float(sum(weights))
    maxima = []
    for trial in range(trials):
        # splitmix64 mixing: affine seed*K+trial derivations collide
        # across (seed, trial) pairs and correlate adjacent trials.
        family = HashFamily(derive_seed(seed, trial + 1))
        grid = GridPartitioner(shares, family)
        bins: dict[tuple[int, ...], float] = {}
        for t, w in zip(tuples, weights):
            cell = grid.bin_of(t)
            bins[cell] = bins.get(cell, 0.0) + w
        maxima.append(max(bins.values()) if bins else 0.0)
    return BallsInBinsResult(tuple(maxima), total / p, p)


def max_load_exceed_probability(
    result: BallsInBinsResult, delta: float
) -> float:
    """``P(max load >= (1+delta) * mean)`` from a simulation result."""
    return result.exceed_probability((1.0 + delta) * result.mean_load)


def adversarial_weights(
    m: int, k: int, beta: float, seed: int | random.Random = 0
) -> list[float]:
    """A weight vector saturating the Theorem A.1 promise.

    Produces balls of the maximum allowed weight ``beta * m / K`` (plus
    one remainder ball), the worst case for hash-based load balancing.
    ``seed`` may be an int or a pre-seeded :class:`random.Random`, so a
    caller sweeping many configurations can thread one generator
    through instead of re-seeding per call.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    cap = beta * m / k
    if cap <= 0:
        raise ValueError("cap must be positive")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    weights: list[float] = []
    remaining = float(m)
    while remaining > cap:
        weights.append(cap)
        remaining -= cap
    if remaining > 0:
        weights.append(remaining)
    rng.shuffle(weights)
    return weights
