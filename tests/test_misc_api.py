"""Coverage for smaller public API surfaces and error paths."""

from __future__ import annotations

import pytest

from repro.bounds.entropy import raw_size_bits
from repro.core.families import chain_query, triangle_query
from repro.core.lp import InfeasibleError, snap, snap_vector, solve_lp
from repro.core.stats import Statistics
from repro.data.generators import matching_database
from repro.hypercube.analysis import total_replication
from repro.multiround.plans import chain_plan


class TestLPWrapper:
    def test_solve_min(self):
        # min x + y s.t. x + y >= 1 -> value 1.
        sol = solve_lp([1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        assert sol.value == pytest.approx(1.0)
        assert sum(sol.x) == pytest.approx(1.0)

    def test_solve_max(self):
        sol = solve_lp([1.0], a_ub=[[1.0]], b_ub=[5.0], maximize=True)
        assert sol.value == pytest.approx(5.0)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            solve_lp([1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])

    def test_unbounded_raises(self):
        with pytest.raises(InfeasibleError):
            solve_lp([1.0], maximize=True)

    def test_solution_iterable(self):
        sol = solve_lp([1.0, 0.0], a_ub=[[-1.0, 0.0]], b_ub=[-2.0])
        assert list(sol)[0] == pytest.approx(2.0)


class TestSnap:
    def test_snaps_near_rationals(self):
        assert snap(0.33333333331) == pytest.approx(1 / 3)
        assert snap(0.4999999999) == pytest.approx(0.5)

    def test_leaves_far_values(self):
        weird = 0.123456789
        assert snap(weird, max_denominator=8) == weird

    def test_vector(self):
        out = snap_vector([0.499999999999, 1.0000000001])
        assert out[0] == pytest.approx(0.5)
        assert out[1] == pytest.approx(1.0)


class TestAnalysisHelpers:
    def test_total_replication_triangle(self):
        q = triangle_query()
        stats = Statistics.uniform(q, 100, domain_size=1024)
        shares = {"x1": 4, "x2": 4, "x3": 4}
        # Each relation replicated 64/16 = 4 times.
        assert total_replication(q, stats, shares) == pytest.approx(
            4 * stats.total_bits
        )

    def test_raw_size_degenerate_domain(self):
        assert raw_size_bits(1, 5, 2) == 10.0


class TestPlanIntrospection:
    def test_nodes_by_depth_structure(self):
        plan = chain_plan(8, 0.0)
        by_depth = plan.root.nodes_by_depth()
        assert sorted(by_depth) == [1, 2, 3]
        assert len(by_depth[1]) == 4  # four leaf-level binary joins

    def test_operator_schemas_cover_children(self):
        plan = chain_plan(4, 0.0)
        for nodes in plan.root.nodes_by_depth().values():
            for node in nodes:
                for child in node.children:
                    child_vars = (
                        set(child.variables)
                        if hasattr(child, "relation")
                        else set(child.schema)
                    )
                    assert child_vars <= set(node.schema)


class TestPublicImports:
    def test_star_exports(self):
        import repro
        import repro.bounds
        import repro.hashing
        import repro.hypercube
        import repro.multiround
        import repro.skew

        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_database_statistics_roundtrip(self):
        q = triangle_query()
        db = matching_database(q, m=10, n=40, seed=0)
        stats = db.statistics(q)
        assert stats.total_tuples == 30
        assert stats.value_bits == 6  # ceil(log2 40)
