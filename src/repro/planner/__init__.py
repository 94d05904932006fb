"""Cost-based query planner: one front door for every executor.

The paper's contribution *is* a plan-cost model -- closed-form maximum
loads for one-round HyperCube (Theorem 3.15), the skew-aware star and
triangle algorithms (Eq. 20, Section 4.2.2), and multi-round plans
(Proposition 5.1).  This subpackage turns those formulas into an
optimizer:

* :mod:`repro.planner.statistics` -- :class:`DataStatistics`, the
  cardinalities + heavy-hitter frequency vectors every server is
  assumed to know;
* :mod:`repro.planner.cost` -- per-strategy closed-form cost
  estimates (:class:`CostEstimate`), no execution involved;
* :mod:`repro.planner.strategies` -- the :class:`Strategy` registry
  wrapping every executor: HyperCube (which picks the cheapest of its
  LP (10), LP (18) and hash join share vectors), the skew-aware
  star/triangle algorithms, enumerated multi-round plans, and the
  broadcast and single-server baselines;
* :mod:`repro.planner.optimizer` -- :func:`plan`, which prunes
  inapplicable strategies, ranks the rest and returns an
  :class:`ExplainedPlan` with the EXPLAIN cost table.

:meth:`repro.session.Session.run` runs the winner (or a pinned
strategy) and returns its :class:`~repro.run.RunResult` with the
EXPLAIN ranking and the estimate attached (predicted-vs-measured load
also lands on the :class:`~repro.mpc.report.LoadReport`).

Quickstart::

    from repro import Session, triangle_query, zipf_database
    from repro.planner import plan

    q = triangle_query()
    db = zipf_database(q, m=2000, n=2000, skew=1.0, seed=0)
    print(plan(q, db, p=64).table())     # the EXPLAIN cost table
    result = Session(p=64).run(q, db)    # runs the predicted winner
    print(result.summary())              # table + measured/predicted
"""

from repro.planner.cost import CostEstimate
from repro.planner.optimizer import Candidate, ExplainedPlan, plan
from repro.planner.statistics import DataStatistics
from repro.planner.strategies import (
    BroadcastJoin,
    MultiRoundPlan,
    OneRoundHyperCube,
    SingleServer,
    SkewAwareStar,
    SkewAwareTriangle,
    Strategy,
    default_strategies,
    register,
)

__all__ = [
    "Candidate",
    "CostEstimate",
    "DataStatistics",
    "ExplainedPlan",
    "Strategy",
    "BroadcastJoin",
    "MultiRoundPlan",
    "OneRoundHyperCube",
    "SingleServer",
    "SkewAwareStar",
    "SkewAwareTriangle",
    "default_strategies",
    "plan",
    "register",
]
