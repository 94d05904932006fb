"""The HyperCube (HC) algorithm (paper Section 3.1) and baselines.

The HC algorithm assigns each query variable ``x_i`` a *share* ``p_i``
with ``prod_i p_i <= p``, identifies servers with points of the grid
``[p_1] x ... x [p_k]``, and routes every tuple of every relation to its
destination subcube (Eq. 9): the set of grid points agreeing with the
tuple's hashed coordinates on the variables the tuple binds.  Each
server then joins its fragments locally.  One round; load
``O(max_j M_j / prod_{i in S_j} p_i)`` w.h.p. for low-skew inputs
(Corollary 3.3), degrading to ``O(max_j M_j / min_{i in S_j} p_i)``
under adversarial skew (Corollary 4.3).

:mod:`repro.hypercube.baselines` adds two classical comparison points:
single-server execution and broadcast joins.  The standard parallel
hash join (all shares on the join variables) is HyperCube with another
share vector, one of the candidates the ``"hypercube"`` strategy prices.
Every engine runs through ``Session.run(q, db, "<strategy name>")``.
"""

from repro.hypercube.algorithm import (
    route_relation_arrays,
    route_relation_partition,
)
from repro.hypercube.analysis import (
    predicted_load_bits,
    predicted_load_bits_skewed,
    predicted_load_bits_with_frequencies,
    predicted_load_tuples,
)

__all__ = [
    "route_relation_arrays",
    "route_relation_partition",
    "predicted_load_bits",
    "predicted_load_bits_skewed",
    "predicted_load_bits_with_frequencies",
    "predicted_load_tuples",
]
