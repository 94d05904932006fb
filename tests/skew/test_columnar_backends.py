"""The skew-aware executors on the array kernel.

The contract mirrors the HyperCube kernel suite: identical answers and
bit-identical per-server, per-round loads between the tuple oracle
(``tests/reference/tuple_kernel.py``) and the array kernel, on
skew-free, zipf and planted-hitter inputs.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.core.families import star_query, triangle_query
from repro.data.generators import (
    matching_database,
    planted_heavy_hitter_database,
    zipf_database,
)
from repro.join.multiway import evaluate

from tests.reference.tuple_kernel import tuple_kernel


def assert_bit_identical(report_a, report_b):
    assert len(report_a.rounds) == len(report_b.rounds)
    for round_a, round_b in zip(report_a.rounds, report_b.rounds):
        assert round_a.bits == round_b.bits
        assert round_a.tuples == round_b.tuples


class TestStarBackends:
    @pytest.mark.parametrize(
        "k,m,n,skew,seed",
        [
            (2, 600, 3000, 0.6, 0),
            (2, 600, 3000, 1.1, 1),
            (3, 300, 1500, 0.8, 2),
        ],
    )
    def test_zipf_bit_identical(self, k, m, n, skew, seed):
        q = star_query(k)
        db = zipf_database(q, m=m, n=n, skew=skew, seed=seed)
        with tuple_kernel():
            tuples = Session(p=16, seed=7).run(q, db, "skew-star")
        arrays = Session(p=16, seed=7).run(q, db, "skew-star")
        assert_bit_identical(tuples.report, arrays.report)
        assert tuples.answers == arrays.answers == evaluate(q, db)
        assert tuples.servers_used == arrays.servers_used
        assert tuples.details["heavy_hitters"] == arrays.details["heavy_hitters"]

    def test_matching_bit_identical(self):
        q = star_query(2)
        db = matching_database(q, m=500, n=4096, seed=3)
        with tuple_kernel():
            tuples = Session(p=8, seed=0).run(q, db, "skew-star")
        arrays = Session(p=8, seed=0).run(q, db, "skew-star")
        assert_bit_identical(tuples.report, arrays.report)
        assert tuples.answers == arrays.answers == evaluate(q, db)

    def test_planted_hitter_bit_identical(self):
        q = star_query(2)
        db = planted_heavy_hitter_database(
            q, m=800, n=4096, variable="z", hitter_fraction=0.4, seed=5
        )
        with tuple_kernel():
            tuples = Session(p=16, seed=1).run(q, db, "skew-star")
        arrays = Session(p=16, seed=1).run(q, db, "skew-star")
        assert_bit_identical(tuples.report, arrays.report)
        assert tuples.answers == arrays.answers == evaluate(q, db)

    def test_rejects_unknown_backend(self):
        q = star_query(2)
        db = matching_database(q, m=50, n=256, seed=0)
        with pytest.raises(TypeError, match="backend"):
            Session(p=4, backend="jax").run(q, db, "skew-star")


class TestTriangleBackends:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda q: zipf_database(q, m=600, n=600, skew=0.8, seed=3),
            lambda q: planted_heavy_hitter_database(
                q, m=500, n=5000, variable="x1", hitter_fraction=0.3, seed=4
            ),
            lambda q: matching_database(q, m=500, n=2000, seed=5),
        ],
        ids=["zipf", "planted", "matching"],
    )
    def test_bit_identical(self, maker):
        q = triangle_query()
        db = maker(q)
        with tuple_kernel():
            tuples = Session(p=8, seed=2).run(q, db, "skew-triangle")
        arrays = Session(p=8, seed=2).run(q, db, "skew-triangle")
        assert_bit_identical(tuples.report, arrays.report)
        assert tuples.answers == arrays.answers == evaluate(q, db)
        assert tuples.servers_used == arrays.servers_used

    def test_rejects_unknown_backend(self):
        q = triangle_query()
        db = matching_database(q, m=50, n=256, seed=0)
        with pytest.raises(TypeError, match="backend"):
            Session(p=4, backend="jax").run(q, db, "skew-triangle")
