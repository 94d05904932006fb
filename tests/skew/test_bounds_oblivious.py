"""Tests for skew lower bounds (Thm 4.4) and HyperCube on LP (18) shares."""

from __future__ import annotations

import pytest

from repro import Session
from repro.core.families import simple_join_query, star_query, triangle_query
from repro.core.shares import skew_oblivious_share_exponents
from repro.data.generators import (
    matching_database,
    planted_heavy_hitter_database,
)
from repro.skew.bounds import (
    bound_is_stronger_than_skew_free,
    saturating_vertices,
    skewed_lower_bound,
    star_skew_lower_bound,
    uniform_frequencies,
    zipf_frequencies,
)
from tests.reference.multiway_join import evaluate


class TestStarLowerBound:
    def test_single_hitter_dominates(self):
        # One hitter with everything: bound ~ (prod_j M_j(h) / p)^{1/l}.
        value_bits = 10
        freqs = {"S1": {0: 100}, "S2": {0: 100}}
        p = 16
        bound = star_skew_lower_bound(freqs, value_bits, p, with_constant=False)
        expected = ((2 * 100 * value_bits) ** 2 / p) ** 0.5
        assert bound == pytest.approx(expected)

    def test_uniform_degrees_recover_m_over_p(self):
        # p hitters of frequency m/p each: the singleton subsets give
        # sum_h M_j(h)/p = M_j/p.
        value_bits = 10
        m, p = 1600, 16
        freqs = {
            "S1": uniform_frequencies(m, p),
            "S2": uniform_frequencies(m, p),
        }
        bound = star_skew_lower_bound(freqs, value_bits, p, with_constant=False)
        assert bound >= 2 * m * value_bits / p - 1e-6

    def test_skew_raises_bound(self):
        value_bits = 10
        m, p = 1600, 16
        flat = star_skew_lower_bound(
            {"S1": uniform_frequencies(m, p), "S2": uniform_frequencies(m, p)},
            value_bits, p, with_constant=False,
        )
        skewed = star_skew_lower_bound(
            {"S1": {0: m}, "S2": {0: m}}, value_bits, p, with_constant=False
        )
        assert bound_is_stronger_than_skew_free(skewed, flat)
        assert skewed > flat

    def test_constant_factor(self):
        freqs = {"S1": {0: 10}, "S2": {0: 10}}
        with_c = star_skew_lower_bound(freqs, 8, 4, with_constant=True)
        without = star_skew_lower_bound(freqs, 8, 4, with_constant=False)
        assert with_c == pytest.approx(without / 8.0)

    def test_zipf_frequency_helper(self):
        freqs = zipf_frequencies(1000, 20, skew=1.0)
        assert len(freqs) == 20
        assert freqs[0] > freqs[19]
        assert sum(freqs.values()) == pytest.approx(1000, rel=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            star_skew_lower_bound({}, 8, 4)
        with pytest.raises(ValueError):
            uniform_frequencies(10, 0)


class TestGeneralSkewBound:
    def test_star_case_matches_specialized(self):
        q = star_query(2)
        freqs = {"S1": {0: 100, 1: 20}, "S2": {0: 80, 1: 10}}
        general = skewed_lower_bound(
            q, "z", freqs, value_bits=10, p=16, with_constant=False
        )
        special = star_skew_lower_bound(freqs, 10, 16, with_constant=False)
        assert general == pytest.approx(special, rel=1e-9)

    def test_saturating_vertices_star(self):
        # For T_2, the z-saturating vertices are the three non-zero 0/1
        # vectors.
        q = star_query(2)
        sats = saturating_vertices(q, {"z"})
        as_tuples = {
            (round(u["S1"], 6), round(u["S2"], 6)) for u in sats
        }
        assert as_tuples == {(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}

    def test_triangle_skew_bound_positive(self):
        q = triangle_query()
        freqs = {
            "S1": {0: 50, 1: 5},
            "S2": {0: 40, 1: 5},
            "S3": {0: 30, 1: 5},
        }
        bound = skewed_lower_bound(
            q, "x1", freqs, value_bits=10, p=8, with_constant=False
        )
        assert bound > 0

    def test_validation(self):
        q = star_query(2)
        with pytest.raises(ValueError, match="missing"):
            skewed_lower_bound(q, "z", {"S1": {0: 1}}, 8, 4)
        with pytest.raises(ValueError, match="no atom"):
            skewed_lower_bound(
                q, "nope", {"S1": {0: 1}, "S2": {0: 1}}, 8, 4
            )


def lp18(q, db, p):
    """LP (18)'s exponents: pins HyperCube to the skew-oblivious shares."""
    return skew_oblivious_share_exponents(q, db.statistics(q), p).exponents


class TestSkewObliviousHC:
    def test_correctness(self):
        q = simple_join_query()
        db = planted_heavy_hitter_database(q, 100, 1000, "z", 1.0, 3, seed=1)
        result = Session(p=27, seed=1).run(
            q, db, "hypercube", exponents=lp18(q, db, 27)
        )
        assert result.answers == evaluate(q, db)

    def test_balanced_shares_for_join(self):
        q = simple_join_query()
        db = matching_database(q, m=64, n=512, seed=2)
        result = Session(p=27, seed=2).run(
            q, db, "hypercube", exponents=lp18(q, db, 27)
        )
        assert result.details["shares"] == {"x": 3, "y": 3, "z": 3}

    def test_beats_vanilla_hash_join_under_skew(self):
        # Example 4.1 versus the LP (18) shares: M/p^{1/3} beats M.
        q = simple_join_query()
        m, p = 540, 27
        db = planted_heavy_hitter_database(q, m, 5000, "z", 1.0, 3, seed=3)
        stats = db.statistics(q)
        with Session(p=p, seed=3) as session:
            oblivious = session.run(
                q, db, "hypercube", exponents=lp18(q, db, p)
            )
            vanilla = session.run(q, db, "hypercube", exponents={"z": 1.0})
        assert oblivious.answers == vanilla.answers
        assert vanilla.max_load_bits >= stats.bits("S1")
        assert oblivious.max_load_bits <= vanilla.max_load_bits / 2.0

    def test_oblivious_load_near_m_over_cuberoot_p(self):
        q = simple_join_query()
        m, p = 540, 27
        db = planted_heavy_hitter_database(q, m, 5000, "z", 1.0, 3, seed=4)
        stats = db.statistics(q)
        result = Session(p=p, seed=4).run(
            q, db, "hypercube", exponents=lp18(q, db, p)
        )
        target = stats.bits("S1") / p ** (1 / 3)
        assert result.max_load_bits <= 3.0 * target
