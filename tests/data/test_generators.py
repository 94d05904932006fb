"""Tests for the synthetic data generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.families import chain_query, simple_join_query, star_query, triangle_query
from repro.data.generators import (
    degree_sequence_database,
    degree_sequence_relation,
    layered_path_database,
    layered_path_graph,
    matching_database,
    matching_relation,
    planted_heavy_hitter_database,
    random_graph_edges,
    triangle_database_from_edges,
    uniform_database,
    uniform_relation,
    zipf_database,
    zipf_relation,
)


class TestMatching:
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**30),
    )
    @settings(max_examples=40, deadline=None)
    def test_matching_invariants(self, m, arity, seed):
        n = max(m, 1) * 2
        r = matching_relation("R", arity, m, n, seed)
        assert len(r) == m
        assert r.is_matching()

    def test_matching_requires_domain(self):
        with pytest.raises(ValueError):
            matching_relation("R", 2, 10, 5)

    def test_matching_database(self):
        q = triangle_query()
        d = matching_database(q, 50, 200, seed=1)
        assert d.is_matching_database()
        assert all(len(d[r]) == 50 for r in q.relation_names)

    def test_matching_database_per_relation_sizes(self):
        q = chain_query(2)
        d = matching_database(q, {"S1": 5, "S2": 9}, 100, seed=2)
        assert len(d["S1"]) == 5
        assert len(d["S2"]) == 9

    def test_matching_database_missing_size(self):
        with pytest.raises(ValueError, match="missing"):
            matching_database(chain_query(2), {"S1": 5}, 100)

    def test_deterministic_under_seed(self):
        q = chain_query(3)
        d1 = matching_database(q, 20, 100, seed=7)
        d2 = matching_database(q, 20, 100, seed=7)
        for name in q.relation_names:
            assert d1[name] == d2[name]

    def test_seed_picks_the_stream(self):
        a = matching_relation("R", 2, 200, 1000, seed=1)
        assert a == matching_relation("R", 2, 200, 1000, seed=1)
        assert a != matching_relation("R", 2, 200, 1000, seed=2)

    def test_empty_relation(self):
        assert len(matching_relation("R", 2, 0, 10)) == 0

    def test_values_stay_in_the_domain(self):
        r = matching_relation("R", 3, 500, 2000, seed=11)
        assert r.is_matching()
        arr = r.to_array()
        assert arr.shape == (500, 3)
        assert 0 <= arr.min() and arr.max() < 2000

    def test_relations_draw_independent_streams(self):
        d = matching_database(triangle_query(), 100, 500, seed=3)
        assert d["S1"] != d["S2"].renamed("S1")


class TestUniform:
    def test_uniform_distinct(self):
        r = uniform_relation("R", 2, 100, 50, seed=3)
        assert len(r) == 100

    def test_uniform_capacity_check(self):
        with pytest.raises(ValueError):
            uniform_relation("R", 1, 11, 10)

    def test_uniform_database(self):
        q = simple_join_query()
        d = uniform_database(q, 30, 40, seed=4)
        assert all(len(d[r]) == 30 for r in q.relation_names)


class TestZipf:
    def test_zipf_is_skewed(self):
        r = zipf_relation("R", 2, 2000, 10_000, skew=1.2, seed=5)
        # Rank-1 value should be far heavier than the median value.
        assert len(r) <= 2000
        hist = r.degrees((0,))
        top = max(hist.values())
        assert top > 20  # strongly skewed head

    def test_zipf_skew_positions(self):
        r = zipf_relation("R", 2, 500, 5000, skew=1.5, seed=6, skew_positions=(0,))
        assert r.max_degree((0,)) > r.max_degree((1,)) * 2

    def test_zipf_saturation_is_graceful(self):
        # n=1 forces a single value; only one distinct unary tuple exists.
        r = zipf_relation("R", 1, 10, 1, seed=7)
        assert len(r) == 1

    def test_deterministic_under_seed(self):
        a = zipf_relation("R", 2, 300, 1000, skew=1.0, seed=9)
        assert a == zipf_relation("R", 2, 300, 1000, skew=1.0, seed=9)

    def test_database_values_stay_in_the_domain(self):
        q = star_query(2)
        d = zipf_database(q, m=400, n=400, skew=1.0, seed=4)
        for name in q.relation_names:
            arr = d[name].to_array()
            assert arr.max() < 400 and arr.min() >= 0


class TestPlantedHitters:
    def test_example_4_1_all_tuples_share_z(self):
        q = simple_join_query()  # S1(x,z), S2(y,z)
        d = planted_heavy_hitter_database(q, 100, 1000, "z", 1.0, 7, seed=8)
        for name in ("S1", "S2"):
            assert d[name].degree((1,), (7,)) == len(d[name])

    def test_partial_fraction(self):
        q = simple_join_query()
        d = planted_heavy_hitter_database(q, 200, 4000, "z", 0.25, 3, seed=9)
        heavy = d["S1"].degree((1,), (3,))
        assert heavy == pytest.approx(50, abs=2)
        # The other values remain light.
        others = {
            v: c for (v,), c in d["S1"].degrees((1,)).items() if v != 3
        }
        assert max(others.values(), default=0) <= 2

    def test_relations_without_variable_are_matchings(self):
        q = chain_query(3)
        d = planted_heavy_hitter_database(q, 40, 400, "x1", 1.0, 5, seed=10)
        assert d["S3"].is_matching()
        assert d["S1"].degree((1,), (5,)) == 40

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            planted_heavy_hitter_database(
                simple_join_query(), 10, 100, "z", 1.5
            )


class TestDegreeSequences:
    def test_exact_frequencies(self):
        freq = {3: 10, 8: 5, 2: 1}
        r = degree_sequence_relation("R", 2, 0, freq, 100, seed=11)
        assert len(r) == 16
        for value, count in freq.items():
            assert r.degree((0,), (value,)) == count
        # Non-keyed positions stay light (injection).
        assert r.max_degree((1,)) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            degree_sequence_relation("R", 2, 0, {0: 11}, 10)
        with pytest.raises(ValueError):
            degree_sequence_relation("R", 2, 0, {99: 1}, 10)
        with pytest.raises(IndexError):
            degree_sequence_relation("R", 2, 5, {0: 1}, 10)

    def test_star_database_from_degrees(self):
        q = star_query(2)
        freqs = {"S1": {0: 20, 1: 5}, "S2": {0: 10, 2: 3}}
        d = degree_sequence_database(q, "z", freqs, 200, seed=12)
        assert d["S1"].degree((0,), (0,)) == 20
        assert d["S2"].degree((0,), (2,)) == 3

    def test_star_database_validation(self):
        q = chain_query(2)
        with pytest.raises(KeyError):
            degree_sequence_database(q, "x1", {"S1": {0: 1}}, 10)
        with pytest.raises(ValueError):
            degree_sequence_database(
                q, "x0", {"S1": {0: 1}, "S2": {0: 1}}, 10
            )


class TestGraphs:
    def test_layered_path_graph_shape(self):
        edges, num_vertices = layered_path_graph(4, 10, seed=13)
        assert num_vertices == 50
        assert len(edges) == 40
        # Every left endpoint in layer i, right endpoint in layer i+1.
        for u, v in edges:
            assert v // 10 == u // 10 + 1

    def test_layered_path_database_is_matching(self):
        d = layered_path_database(3, 8, seed=14)
        assert set(d.relation_names) == {"S1", "S2", "S3"}
        assert d.is_matching_database()
        assert all(len(d[r]) == 8 for r in d.relation_names)

    def test_layered_components_are_paths(self):
        import networkx as nx

        edges, num_vertices = layered_path_graph(5, 6, seed=15)
        g = nx.Graph(edges)
        g.add_nodes_from(range(num_vertices))
        components = list(nx.connected_components(g))
        assert len(components) == 6
        assert all(len(c) == 6 for c in components)

    def test_random_graph_edges(self):
        edges = random_graph_edges(20, 50, seed=16)
        assert len(edges) == 50
        assert all(u < v for u, v in edges)
        with pytest.raises(ValueError):
            random_graph_edges(3, 10)

    def test_triangle_database_symmetric(self):
        edges = {(0, 1), (1, 2), (0, 2)}
        d = triangle_database_from_edges(edges, 3)
        assert len(d["S1"]) == 6
        assert (1, 0) in d["S1"]

    def test_layered_validation(self):
        with pytest.raises(ValueError):
            layered_path_graph(0, 5)


class TestColumnarBackends:
    """The vectorized zipf generator."""

    def test_zipf_numpy_is_skewed(self):
        r = zipf_relation("R", 2, 2000, 10_000, skew=1.2, seed=5)
        assert len(r) <= 2000
        top = max(r.degrees((0,)).values())
        assert top > 20

    def test_zipf_numpy_skew_positions(self):
        r = zipf_relation("R", 2, 500, 5000, skew=1.5, seed=6,
                          skew_positions=(0,))
        assert r.max_degree((0,)) > r.max_degree((1,)) * 2

    def test_zipf_numpy_saturation_is_graceful(self):
        r = zipf_relation("R", 1, 10, 1, seed=7)
        assert len(r) == 1
