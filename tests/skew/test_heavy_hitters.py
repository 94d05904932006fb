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
