"""Skew handling: detection, skew-aware algorithms, and skew lower bounds.

Section 4 of the paper studies one-round computation when the data has
*heavy hitters* -- values whose frequency exceeds a threshold such as
``m_j / p``.  This subpackage implements:

* heavy-hitter detection, exact and sample-based (the paper assumes the
  identities and approximate frequencies of heavy hitters are known to
  all servers; there can be at most ``p`` per relation);
* the star-query algorithm of Section 4.2.1 (per-hitter server
  allocation proportional to the residual-query work);
* the triangle algorithm of Section 4.2.2 (light / two-heavy /
  one-heavy case split);
* the Theorem 4.4 lower bound ``L_x(u, M, p)`` for databases with known
  degree sequences.

HyperCube against unknown skew (Section 4.1) is not a separate engine:
its LP (18) shares (:func:`repro.core.shares.skew_oblivious_share_exponents`)
are one of the vectors the ``"hypercube"`` strategy prices and picks
from (:func:`repro.planner.cost.share_candidates`).
"""

from repro.skew.heavy_hitters import (
    HitterStatistics,
    detect_heavy_hitters,
    variable_frequencies,
)
from repro.skew.star import star_skew_load_bound
from repro.skew.triangle import triangle_skew_load_bound
from repro.skew.bounds import (
    skewed_lower_bound,
    star_skew_lower_bound,
)

__all__ = [
    "HitterStatistics",
    "detect_heavy_hitters",
    "variable_frequencies",
    "star_skew_load_bound",
    "triangle_skew_load_bound",
    "skewed_lower_bound",
    "star_skew_lower_bound",
]
