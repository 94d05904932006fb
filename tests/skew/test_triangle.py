"""Tests for the Section 4.2.2 skew-aware triangle algorithm."""

from __future__ import annotations

import pytest

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import triangle_query
from repro.data.generators import (
    matching_database,
    random_graph_edges,
    triangle_database_from_edges,
    uniform_database,
    zipf_database,
)
from repro.run import dispatch_run
from repro.skew.triangle import triangle_core, triangle_skew_load_bound
from tests.reference.multiway_join import evaluate

TRIANGLE = triangle_query()


def hub_graph_db(hub_degree=400, path_edges=100):
    """Hub vertex 0 with high degree; some leaf-leaf edges for triangles."""
    edges = {(0, v) for v in range(1, hub_degree + 1)}
    edges |= {(v, v + 1) for v in range(1, path_edges + 1)}
    return triangle_database_from_edges(edges, hub_degree + 2)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs(self, seed):
        edges = random_graph_edges(60, 250, seed=seed)
        db = triangle_database_from_edges(edges, 60)
        result = Session(p=8, seed=seed).run(TRIANGLE, db, "skew-triangle")
        assert result.answers == evaluate(triangle_query(), db)

    @pytest.mark.parametrize("seed", range(2))
    def test_zipf_relations(self, seed):
        q = triangle_query()
        db = zipf_database(q, m=200, n=50, skew=1.1, seed=seed)
        result = Session(p=8, seed=seed).run(TRIANGLE, db, "skew-triangle")
        assert result.answers == evaluate(q, db)

    def test_hub_graph(self):
        db = hub_graph_db()
        result = Session(p=27, seed=1).run(TRIANGLE, db, "skew-triangle")
        truth = evaluate(triangle_query(), db)
        assert len(truth) == 600  # 100 leaf edges x 6 orientations
        assert result.answers == truth

    def test_matching_instance_no_hitters(self):
        q = triangle_query()
        db = matching_database(q, m=60, n=300, seed=3)
        result = Session(p=8, seed=3).run(q, db, "skew-triangle")
        assert result.answers == evaluate(q, db)
        assert all(not s for s in result.details["heavy2"].values())

    def test_two_heavy_variables_case1(self):
        # Complete bipartite-ish core: many values heavy in two vars.
        edges = {(u, v) for u in range(6) for v in range(6, 46)}
        edges |= {(u, w) for u in range(6) for w in range(46, 52)}
        edges |= {(6, 46)}
        db = triangle_database_from_edges(edges, 60)
        result = Session(p=8, seed=4).run(TRIANGLE, db, "skew-triangle")
        assert result.answers == evaluate(triangle_query(), db)

    def test_uniform_random_relations(self):
        q = triangle_query()
        db = uniform_database(q, m=120, n=30, seed=5)
        result = Session(p=8, seed=5).run(q, db, "skew-triangle")
        assert result.answers == evaluate(q, db)

    def test_rejects_small_p(self):
        db = hub_graph_db(20, 4)
        with pytest.raises(ValueError):
            dispatch_run(
                triangle_core, TRIANGLE, db, 1, seed=0,
                settings=ExecutionSettings(),
            )


class TestLoads:
    def test_beats_vanilla_hc_on_hub_graph(self):
        db = hub_graph_db()
        p = 27
        with Session(p=p, seed=1) as session:
            skew_aware = session.run(TRIANGLE, db, "skew-triangle")
            vanilla = session.run(TRIANGLE, db, "hypercube")
        assert skew_aware.answers == vanilla.answers
        assert vanilla.max_load_bits >= 3.0 * skew_aware.max_load_bits

    def test_load_within_constant_of_formula(self):
        db = hub_graph_db()
        p = 27
        result = dispatch_run(
            triangle_core, TRIANGLE, db, p, seed=1,
            settings=ExecutionSettings(),
        )
        assert result.max_load_bits <= 4.0 * triangle_skew_load_bound(db, p)

    def test_servers_used_is_theta_p(self):
        db = hub_graph_db()
        p = 27
        result = Session(p=p, seed=1).run(TRIANGLE, db, "skew-triangle")
        # 4p fixed blocks + per-hitter grids; hitters are O(p^{1/3}).
        assert result.servers_used <= 10 * p

    def test_bound_reduces_to_hc_without_skew(self):
        q = triangle_query()
        db = matching_database(q, m=64, n=512, seed=6)
        stats = db.statistics(q)
        bound = triangle_skew_load_bound(db, 8)
        assert bound == pytest.approx(stats.bits("S1") / 4.0)  # M / p^{2/3}

    def test_bound_grows_with_skew(self):
        light = triangle_skew_load_bound(
            matching_database(triangle_query(), m=500, n=2000, seed=7), 64
        )
        heavy = triangle_skew_load_bound(hub_graph_db(500, 100), 64)
        assert heavy > light


class TestPrecomputedHitters:
    """``hitters=`` parity: precomputed statistics skip the scans.

    Runs the core through ``dispatch_run``: a session always passes its
    own precomputed statistics, so the scanning side needs the bare core.
    """

    def _hitters(self, db, p):
        from repro.planner.statistics import DataStatistics

        return DataStatistics.from_database(triangle_query(), db, p).hitters

    @pytest.mark.parametrize("seed", range(2))
    def test_bit_identical_to_in_place_detection(self, seed):
        db = zipf_database(triangle_query(), m=220, n=55, skew=1.1, seed=seed)
        p = 8
        scanned, precomputed = (
            dispatch_run(
                triangle_core, TRIANGLE, db, p, seed=seed,
                settings=ExecutionSettings(), hitters=hitters,
            )
            for hitters in (None, self._hitters(db, p))
        )
        assert precomputed.answers == scanned.answers
        assert precomputed.details["heavy1"] == scanned.details["heavy1"]
        assert precomputed.details["heavy2"] == scanned.details["heavy2"]
        for round_a, round_b in zip(
            precomputed.report.rounds, scanned.report.rounds
        ):
            assert round_a.bits == round_b.bits

    def test_hub_graph_identical(self):
        db = hub_graph_db()
        p = 27
        scanned, precomputed = (
            dispatch_run(
                triangle_core, TRIANGLE, db, p, seed=1,
                settings=ExecutionSettings(), hitters=hitters,
            )
            for hitters in (None, self._hitters(db, p))
        )
        assert precomputed.answers == scanned.answers
        assert precomputed.max_load_bits == scanned.max_load_bits
        assert precomputed.servers_used == scanned.servers_used

    def test_missing_variable_rejected(self):
        db = hub_graph_db(20, 4)
        hitters = dict(self._hitters(db, 8))
        del hitters["x2"]
        with pytest.raises(ValueError, match="missing triangle variable"):
            dispatch_run(
                triangle_core, TRIANGLE, db, 8, seed=0,
                settings=ExecutionSettings(), hitters=hitters,
            )

    def test_mislabeled_variable_rejected(self):
        db = hub_graph_db(20, 4)
        hitters = dict(self._hitters(db, 8))
        hitters["x1"], hitters["x2"] = hitters["x2"], hitters["x1"]
        with pytest.raises(ValueError, match="describe"):
            dispatch_run(
                triangle_core, TRIANGLE, db, 8, seed=0,
                settings=ExecutionSettings(), hitters=hitters,
            )
