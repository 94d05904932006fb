"""Multi-round MPC computation (paper Section 5).

The upper-bound side (Section 5.1): queries in the class ``Gamma^r_eps``
have depth-``r`` query plans whose operators are each one-round
computable at load ``O(M/p^{1-eps})``; :mod:`repro.multiround.plans`
builds the paper's plans (bushy ``k_eps``-ary trees for chains, the
two-round ``SP_k`` plan, radius-based plans for cycles) and
:mod:`repro.multiround.executor` runs them round by round on the MPC
simulator (``Session.run(q, db, "multiround", plan=...)``).

The lower-bound side (Section 5.2): ``(eps, r)``-plans built from
*eps-good* atom sets certify that ``r + 1`` rounds are not enough
(Theorem 5.8/5.11), giving the round lower bounds of Corollaries
5.15/5.17 and Lemma 5.18, and -- via the layered-graph reduction of
Theorem 5.20 -- the ``Omega(log p)`` rounds needed for connected
components, whose tuple-based algorithm lives in
:mod:`repro.multiround.connected`.
"""

from repro.multiround.gamma import (
    in_gamma_1,
    k_epsilon,
    m_epsilon,
    rounds_upper_bound,
    space_exponent_for_one_round,
)
from repro.multiround.plans import (
    Plan,
    PlanNode,
    candidate_plans,
    chain_plan,
    cycle_plan,
    generic_plan,
    spk_plan,
    star_plan,
)
from repro.multiround.good_sets import (
    EpsilonRPlan,
    chain_epsilon_r_plan,
    contract_to_survivors,
    cycle_epsilon_r_plan,
    is_epsilon_good,
    minimal_hard_subqueries,
    validate_plan,
)
from repro.multiround.lowerbounds import (
    beta_constant,
    chain_round_lower_bound,
    connected_components_round_lower_bound,
    cycle_round_lower_bound,
    reported_fraction_bound,
    tau_star_of_plan,
    tree_like_round_lower_bound,
)
from repro.multiround.connected import (
    ConnectedComponentsResult,
    connected_components_mpc,
)

__all__ = [
    "in_gamma_1",
    "k_epsilon",
    "m_epsilon",
    "rounds_upper_bound",
    "space_exponent_for_one_round",
    "Plan",
    "PlanNode",
    "candidate_plans",
    "chain_plan",
    "cycle_plan",
    "generic_plan",
    "spk_plan",
    "star_plan",
    "EpsilonRPlan",
    "chain_epsilon_r_plan",
    "contract_to_survivors",
    "cycle_epsilon_r_plan",
    "is_epsilon_good",
    "minimal_hard_subqueries",
    "validate_plan",
    "beta_constant",
    "chain_round_lower_bound",
    "connected_components_round_lower_bound",
    "cycle_round_lower_bound",
    "reported_fraction_bound",
    "tau_star_of_plan",
    "tree_like_round_lower_bound",
    "ConnectedComponentsResult",
    "connected_components_mpc",
]
