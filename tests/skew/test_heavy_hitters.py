"""Tests for heavy-hitter detection."""

from __future__ import annotations

import pytest

from repro.core.families import simple_join_query, star_query
from repro.data.generators import (
    degree_sequence_database,
    degree_sequence_relation,
    zipf_relation,
)
from repro.skew.heavy_hitters import (
    HitterStatistics,
    detect_heavy_hitters,
    sample_heavy_hitters,
    variable_frequencies,
)


class TestExactDetection:
    def test_exact_frequencies(self):
        r = degree_sequence_relation("R", 2, 0, {5: 30, 9: 10, 2: 1}, 200, seed=0)
        hitters = detect_heavy_hitters(r, 0, 10)
        assert hitters == {5: 30, 9: 10}

    def test_threshold_validation(self):
        r = degree_sequence_relation("R", 2, 0, {5: 3}, 50, seed=0)
        with pytest.raises(ValueError):
            detect_heavy_hitters(r, 0, 0)

    def test_at_most_p_hitters_at_threshold_m_over_p(self):
        # Structural fact the paper relies on: at threshold m/p there
        # can be at most p heavy hitters.
        r = zipf_relation("R", 2, 1000, 5000, skew=1.3, seed=1)
        p = 10
        hitters = detect_heavy_hitters(r, 0, len(r) / p)
        assert len(hitters) <= p


class TestSampledDetection:
    def test_recovers_dominant_hitter(self):
        r = degree_sequence_relation(
            "R", 2, 0, {7: 500, 1: 20, 2: 20}, 2000, seed=2
        )
        estimated = sample_heavy_hitters(r, 0, 100, sample_size=200, seed=3)
        assert 7 in estimated
        assert estimated[7] == pytest.approx(500, rel=0.5)

    def test_sample_validation(self):
        r = degree_sequence_relation("R", 2, 0, {7: 5}, 50, seed=4)
        with pytest.raises(ValueError):
            sample_heavy_hitters(r, 0, 10, sample_size=0)
        with pytest.raises(ValueError):
            sample_heavy_hitters(r, 0, 0, sample_size=5)

    def test_empty_relation(self):
        from repro.data.relation import Relation

        r = Relation("R", 2, [])
        assert sample_heavy_hitters(r, 0, 5, sample_size=10) == {}

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_same_estimates_as_sampling_the_sorted_tuple_list(self, seed):
        # The sampler used to sort the whole relation into a Python
        # list (cached on it forever) and index that; rows of the
        # canonical array are the same sequence, so the same index
        # stream must give the same estimates.
        import random

        r = zipf_relation("R", 2, 3000, 400, skew=1.2, seed=5, backend="numpy")
        position, threshold, sample_size, safety = 0, 40.0, 300, 0.5
        universe = sorted(map(tuple, r.to_array().tolist()))
        rng = random.Random(seed)
        counts: dict[int, int] = {}
        for _ in range(sample_size):
            value = universe[rng.randrange(len(universe))][position]
            counts[value] = counts.get(value, 0) + 1
        scale = len(universe) / sample_size
        expected = {
            value: count * scale
            for value, count in counts.items()
            if count * scale >= safety * threshold
        }
        assert expected  # the pin is vacuous without hitters
        got = sample_heavy_hitters(
            r, position, threshold, sample_size, seed=seed, safety=safety
        )
        assert got == expected
        assert all(type(v) is int for v in got)
        assert r._tuples_cache is None


class TestVariableFrequencies:
    def test_max_over_atoms(self):
        q = simple_join_query()  # S1(x,z), S2(y,z)
        from repro.data.database import Database
        from repro.data.relation import Relation

        db = Database(
            [
                Relation("S1", 2, [(1, 7), (2, 7), (3, 7)]),
                Relation("S2", 2, [(4, 7), (5, 8)]),
            ],
            10,
        )
        freq = variable_frequencies(q, db, "z")
        assert freq[7] == 3  # max(3 from S1, 1 from S2)
        assert freq[8] == 1

    def test_hitter_statistics_from_database(self):
        q = star_query(2)
        freqs = {"S1": {0: 50, 1: 2}, "S2": {0: 30, 2: 2}}
        db = degree_sequence_database(q, "z", freqs, 500, seed=5)
        stats = HitterStatistics.from_database(q, db, "z", 1.0, p=4)
        # thresholds: 52/4 = 13 and 32/4 = 8: only value 0 is heavy.
        assert stats.hitters == (0,)
        assert stats.frequency("S1", 0) == 50
        assert stats.frequency("S2", 0) == 30
        assert stats.frequency("S1", 1) == 0

    def test_hitter_statistics_validation(self):
        q = star_query(1)
        freqs = {"S1": {0: 5}}
        db = degree_sequence_database(q, "z", freqs, 50, seed=6)
        with pytest.raises(ValueError):
            HitterStatistics.from_database(q, db, "z", 1.0, p=0)
