"""Tests for Gamma classes, plan builders, and the executor."""

from __future__ import annotations

import pytest

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import (
    chain_query,
    cycle_query,
    spk_query,
    star_query,
    triangle_query,
)
from repro.data.generators import matching_database, uniform_database
from repro.multiround.gamma import (
    chain_rounds_upper_bound,
    in_gamma_1,
    k_epsilon,
    m_epsilon,
    rounds_upper_bound,
    space_exponent_for_one_round,
)
from repro.multiround.plans import (
    chain_plan,
    cycle_plan,
    generic_plan,
    spk_plan,
    star_plan,
)
from repro.multiround.executor import multiround_core
from repro.run import dispatch_run
from tests.reference.multiway_join import evaluate


class TestGammaClasses:
    def test_k_epsilon_values(self):
        assert k_epsilon(0.0) == 2
        assert k_epsilon(0.5) == 4
        assert k_epsilon(2 / 3) == 6

    def test_m_epsilon_values(self):
        assert m_epsilon(0.0) == 2
        assert m_epsilon(0.5) == 4

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            k_epsilon(1.0)
        with pytest.raises(ValueError):
            m_epsilon(-0.1)

    def test_gamma_1_membership(self):
        # Gamma^1_0 = {tau* <= 1}: stars yes, L2 yes, triangles no.
        assert in_gamma_1(star_query(3), 0.0)
        assert in_gamma_1(chain_query(2), 0.0)
        assert not in_gamma_1(triangle_query(), 0.0)
        # At eps = 1/3, 1/(1-eps) = 3/2: the triangle becomes easy.
        assert in_gamma_1(triangle_query(), 1 / 3)

    def test_longest_chain_in_gamma1(self):
        # k_eps is exactly the longest chain in Gamma^1_eps.
        for eps in (0.0, 0.5):
            ke = k_epsilon(eps)
            assert in_gamma_1(chain_query(ke), eps)
            assert not in_gamma_1(chain_query(ke + 1), eps)

    def test_space_exponent_for_one_round(self):
        assert space_exponent_for_one_round(triangle_query()) == pytest.approx(1 / 3)
        assert space_exponent_for_one_round(star_query(4)) == 0.0


class TestRoundsUpperBound:
    """Table 3's round counts."""

    @pytest.mark.parametrize("k,expected", [(4, 2), (8, 3), (16, 4)])
    def test_chains_eps0(self, k, expected):
        # L_k at load O(M/p): ceil(log2 k) rounds.
        assert rounds_upper_bound(chain_query(k), 0.0) == expected

    def test_l16_eps_half_two_rounds(self):
        # Example 5.2: the bushy 4-ary plan needs 2 rounds; Lemma 5.4's
        # radius-based formula is looser (3).
        assert chain_rounds_upper_bound(16, 0.5) == 2
        assert rounds_upper_bound(chain_query(16), 0.5) == 3

    @pytest.mark.parametrize("k,expected", [(4, 1), (16, 2), (17, 3)])
    def test_chain_specific_bound_eps_half(self, k, expected):
        # L4 is already in Gamma^1_{1/2} (tau* = 2 = 1/(1-eps)).
        assert chain_rounds_upper_bound(k, 0.5) == expected

    def test_star_one_round(self):
        assert rounds_upper_bound(star_query(5), 0.0) == 1

    @pytest.mark.parametrize("k,expected", [(5, 3), (6, 3)])
    def test_cycles_example_5_19(self, k, expected):
        assert rounds_upper_bound(cycle_query(k), 0.0) == expected

    def test_spk_two_rounds(self):
        assert rounds_upper_bound(spk_query(3), 0.0) == 2

    def test_disconnected_rejected(self):
        from repro.core.query import Atom, ConjunctiveQuery

        q = ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("y",))))
        with pytest.raises(ValueError):
            rounds_upper_bound(q, 0.0)


class TestPlanShapes:
    def test_chain_plan_depths(self):
        assert chain_plan(4, 0.0).depth == 2
        assert chain_plan(16, 0.0).depth == 4
        assert chain_plan(16, 0.5).depth == 2  # Example 5.2
        assert chain_plan(2, 0.0).depth == 1

    def test_chain_plan_operators_in_gamma1(self):
        plan = chain_plan(16, 0.5)
        for nodes in plan.root.nodes_by_depth().values():
            for node in nodes:
                assert in_gamma_1(node.operator, 0.5)

    def test_cycle_plan_depth(self):
        # Lemma 5.4 for C6 at eps=0: 3 rounds.
        assert cycle_plan(6, 0.0).depth == 3

    def test_spk_plan_depth(self):
        assert spk_plan(4).depth == 2

    def test_star_plan_depth(self):
        assert star_plan(5).depth == 1

    def test_generic_plan_depth_logarithmic(self):
        plan = generic_plan(chain_query(8), fanout=2)
        assert plan.depth == 3

    def test_describe_mentions_rounds(self):
        text = chain_plan(4, 0.0).describe()
        assert "round 1" in text and "round 2" in text

    def test_generic_plan_validation(self):
        from repro.core.query import Atom, ConjunctiveQuery

        q = ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("y",))))
        with pytest.raises(ValueError):
            generic_plan(q)
        with pytest.raises(ValueError):
            generic_plan(triangle_query(), fanout=1)


class TestExecutor:
    @pytest.mark.parametrize("k,eps", [(4, 0.0), (8, 0.0), (16, 0.5), (5, 0.0)])
    def test_chain_plans_correct(self, k, eps):
        # Permutation databases (m = n) keep every intermediate join of
        # size n, so correctness is tested on non-trivial data.
        plan = chain_plan(k, eps)
        db = matching_database(plan.query, m=48, n=48, seed=k)
        # The core directly: ranking every strategy for L16 would
        # enumerate its whole packing polytope first.
        result = dispatch_run(
            multiround_core, plan.query, db, 16, seed=1,
            settings=ExecutionSettings(), plan=plan,
        )
        truth = evaluate(plan.query, db)
        assert len(truth) == 48
        assert result.answers == truth
        assert result.rounds == plan.depth

    def test_cycle_plan_correct(self):
        plan = cycle_plan(6, 0.0)
        db = matching_database(plan.query, m=40, n=40, seed=3)
        result = Session(p=16, seed=2).run(
            plan.query, db, "multiround", plan=plan
        )
        assert result.answers == evaluate(plan.query, db)

    def test_spk_plan_correct(self):
        plan = spk_plan(3)
        db = matching_database(plan.query, m=40, n=300, seed=4)
        result = Session(p=16, seed=3).run(
            plan.query, db, "multiround", plan=plan
        )
        assert result.answers == evaluate(plan.query, db)

    def test_generic_triangle_plan_correct(self):
        plan = generic_plan(triangle_query())
        db = uniform_database(plan.query, m=60, n=30, seed=5)
        result = Session(p=8, seed=4).run(
            plan.query, db, "multiround", plan=plan
        )
        assert result.answers == evaluate(plan.query, db)

    def test_star_plan_matches_one_round(self):
        plan = star_plan(3)
        db = matching_database(plan.query, m=40, n=200, seed=6)
        result = Session(p=8, seed=5).run(
            plan.query, db, "multiround", plan=plan
        )
        assert result.answers == evaluate(plan.query, db)
        assert result.rounds == 1

    def test_needs_two_servers(self):
        plan = star_plan(2)
        db = matching_database(plan.query, m=5, n=25, seed=7)
        with pytest.raises(ValueError):
            dispatch_run(
                multiround_core, plan.query, db, 1, seed=0,
                settings=ExecutionSettings(), plan=plan,
            )

    def test_example_5_2_load_shape(self):
        # L16 via two rounds of 4-way joins at load O(M/p^{1/2}).  The
        # four operators of round 1 share the p servers (Proposition
        # 5.1's constant-factor regime), so the measured per-server load
        # is at most (#relations routed) * M_rel/p^{1/2}, i.e. 16x the
        # per-relation figure, up to hashing variance.
        plan = chain_plan(16, 0.5)
        m, p = 256, 16
        db = matching_database(plan.query, m=m, n=m, seed=8)
        stats = db.statistics(plan.query)
        result = dispatch_run(
            multiround_core, plan.query, db, p, seed=6,
            settings=ExecutionSettings(), plan=plan,
        )
        truth = evaluate(plan.query, db)
        assert len(truth) == m
        assert result.answers == truth
        per_relation = stats.bits("S1") / p**0.5
        assert per_relation <= result.max_load_bits <= 2 * 16 * per_relation

    def test_bushier_plan_fewer_rounds_higher_load(self):
        m, p = 128, 16
        shallow = chain_plan(16, 0.5)  # 2 rounds
        deep = chain_plan(16, 0.0)  # 4 rounds
        db = matching_database(shallow.query, m=m, n=m, seed=9)
        res_shallow, res_deep = (
            dispatch_run(
                multiround_core, plan.query, db, p, seed=7,
                settings=ExecutionSettings(), plan=plan,
            )
            for plan in (shallow, deep)
        )
        assert res_shallow.rounds < res_deep.rounds
        assert res_shallow.answers == res_deep.answers
        assert len(res_deep.answers) == m
