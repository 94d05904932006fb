"""Tests for the Section 4.2.1 star-query skew algorithm."""

from __future__ import annotations

import pytest

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import chain_query, star_query
from repro.data.generators import (
    degree_sequence_database,
    matching_database,
    zipf_database,
)
from repro.run import dispatch_run
from repro.skew.heavy_hitters import HitterStatistics
from repro.skew.star import star_center, star_core, star_skew_load_bound
from tests.reference.multiway_join import evaluate


class TestValidation:
    def test_center_detection(self):
        assert star_center(star_query(3)) == "z"

    def test_rejects_non_star(self):
        with pytest.raises(ValueError, match="shared"):
            star_center(chain_query(3))

    def test_rejects_small_p(self):
        q = star_query(2)
        db = degree_sequence_database(q, "z", {"S1": {0: 2}, "S2": {0: 2}}, 20, 0)
        with pytest.raises(ValueError):
            dispatch_run(
                star_core, q, db, 1, seed=0, settings=ExecutionSettings()
            )


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_degree_sequence_instances(self, k):
        q = star_query(k)
        freqs = {
            f"S{j}": {0: 30 + j, j: 5, 10 + j: 1} for j in range(1, k + 1)
        }
        db = degree_sequence_database(q, "z", freqs, 500, seed=k)
        result = Session(p=8, seed=k).run(q, db, "skew-star")
        assert result.answers == evaluate(q, db)

    @pytest.mark.parametrize("seed", range(3))
    def test_zipf_instances(self, seed):
        q = star_query(2)
        db = zipf_database(q, m=150, n=60, skew=1.4, seed=seed)
        result = Session(p=8, seed=seed).run(q, db, "skew-star")
        assert result.answers == evaluate(q, db)

    def test_skew_free_instances(self):
        # With no heavy hitters the algorithm degenerates to the light
        # path (plain z-hashing) and still matches the truth.
        q = star_query(2)
        db = matching_database(q, m=50, n=400, seed=7)
        result = Session(p=8, seed=7).run(q, db, "skew-star")
        assert result.answers == evaluate(q, db)
        assert result.details["heavy_hitters"] == ()
        assert result.servers_used == 8

    def test_single_mega_hitter(self):
        # One value carrying everything: residual is a full Cartesian
        # product computed on its own block.
        q = star_query(2)
        freqs = {"S1": {3: 40}, "S2": {3: 35}}
        db = degree_sequence_database(q, "z", freqs, 200, seed=8)
        result = Session(p=4, seed=8).run(q, db, "skew-star")
        truth = evaluate(q, db)
        assert len(truth) == 40 * 35
        assert result.answers == truth


class TestLoads:
    def test_load_beats_vanilla_hashing_under_skew(self):
        q = star_query(2)
        m = 600
        freqs = {
            "S1": {0: m // 2, **{i: 1 for i in range(1, m // 2 + 1)}},
            "S2": {0: m // 2, **{i: 1 for i in range(1, m // 2 + 1)}},
        }
        db = degree_sequence_database(q, "z", freqs, 4 * m, seed=9)
        p = 16
        with Session(p=p, seed=9) as session:
            skew_aware = session.run(q, db, "skew-star")
            vanilla = session.run(q, db, "hypercube", exponents={"z": 1.0})
        assert skew_aware.answers == vanilla.answers
        # Vanilla hashing piles the hitter onto one server.
        assert vanilla.max_load_bits >= 2.0 * skew_aware.max_load_bits

    def test_load_within_constant_of_eq_20(self):
        q = star_query(2)
        freqs = {
            "S1": {0: 200, 1: 80, 2: 40, **{i: 1 for i in range(3, 103)}},
            "S2": {0: 150, 1: 90, 5: 30, **{i: 1 for i in range(6, 106)}},
        }
        db = degree_sequence_database(q, "z", freqs, 3000, seed=10)
        p = 16
        result = dispatch_run(
            star_core, q, db, p, seed=10, settings=ExecutionSettings()
        )
        # Eq. (20) is stated in original-relation bits (factor-2 per
        # residual tuple); allow a small constant + hashing noise.
        assert result.max_load_bits <= 3.0 * star_skew_load_bound(q, db, p)

    def test_servers_used_is_theta_p(self):
        q = star_query(2)
        freqs = {
            "S1": {h: 20 for h in range(10)},
            "S2": {h: 20 for h in range(10)},
        }
        db = degree_sequence_database(q, "z", freqs, 2000, seed=11)
        p = 16
        result = Session(p=p, seed=11).run(q, db, "skew-star")
        # Paper bound: (l + 1) * |pk(q_z)| * p = 3 * 3 * 16 with l = 2.
        assert result.servers_used <= (2 + 1) * 3 * p + p

    def test_bound_formula_uniform_degrees(self):
        # With all frequencies below m/p there are no hitters and the
        # bound is the light term max_j M_j / p.
        q = star_query(2)
        db = matching_database(q, m=64, n=512, seed=12)
        stats = db.statistics(q)
        assert star_skew_load_bound(q, db, 8) == pytest.approx(
            stats.bits("S1") / 8
        )


class TestSuppliedHitters:
    @staticmethod
    def _skewed():
        q = star_query(2)
        freqs = {
            "S1": {0: 200, 1: 80, 2: 40, **{i: 1 for i in range(3, 103)}},
            "S2": {0: 150, 1: 90, 5: 30, **{i: 1 for i in range(6, 106)}},
        }
        return q, degree_sequence_database(q, "z", freqs, 3000, seed=10)

    def test_block_sizes_use_exact_counts_under_estimated_hitters(self):
        # Sampled statistics name the hitters but only estimate their
        # frequencies; block allocation must still come from exact
        # counts, so the run matches in-place detection.
        q, db = self._skewed()
        exact = HitterStatistics.from_database(q, db, "z", 1.0, 16)
        estimated = HitterStatistics(
            q,
            "z",
            {
                rel: {h: int(1.4 * count) + 3 for h, count in freqs.items()}
                for rel, freqs in exact.frequencies.items()
            },
        )
        baseline, result = (
            dispatch_run(
                star_core, q, db, 16, seed=10, settings=ExecutionSettings(),
                hitters=hitters,
            )
            for hitters in (None, estimated)
        )
        assert result.details["heavy_hitters"] == baseline.details["heavy_hitters"]
        assert result.servers_used == baseline.servers_used
        assert result.answers == baseline.answers
        assert result.report.rounds[0].bits == baseline.report.rounds[0].bits
