"""``capacity_bits`` threading into the skew-aware executors.

The star and triangle algorithms enforce the same per-server per-round
cap ``L`` that the HyperCube and plan executors already support:
``fail`` aborts with :class:`LoadExceededError`, ``drop`` truncates --
and because every part (light grids, per-hitter blocks, case-1/case-2
blocks) routes in canonical sorted order, the truncated per-server
prefixes (and therefore the surviving answers) are identical under the
tuple oracle and the array kernel.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.core.families import star_query, triangle_query
from repro.data.generators import matching_database, zipf_database
from repro.mpc.simulator import LoadExceededError

from tests.reference.tuple_kernel import kernel

TRIANGLE = triangle_query()


def run_on(kernel_name, q, db, strategy, capacity):
    with kernel(kernel_name):
        return Session(
            p=8, seed=1, capacity_bits=capacity, on_overflow="drop",
        ).run(q, db, strategy)


def assert_reports_identical(a, b):
    assert a.report.num_rounds == b.report.num_rounds
    for round_a, round_b in zip(a.report.rounds, b.report.rounds):
        assert round_a.bits == round_b.bits
        assert round_a.tuples == round_b.tuples
        assert round_a.dropped_bits == round_b.dropped_bits
    assert a.answers == b.answers


class TestStarCapacity:
    def query_db(self, seed=0):
        q = star_query(2)
        db = zipf_database(q, m=300, n=120, skew=1.0, seed=seed)
        return q, db

    def test_uncapped_runs_unchanged(self):
        q, db = self.query_db()
        free = Session(p=8, seed=0).run(q, db, "skew-star")
        capped = Session(p=8, seed=0, capacity_bits=10**9).run(
            q, db, "skew-star"
        )
        assert capped.answers == free.answers
        assert capped.report.total_bits == free.report.total_bits
        assert capped.report.dropped_bits == 0

    def test_fail_mode_raises(self):
        q, db = self.query_db(seed=1)
        for name in ("tuples", "numpy"):
            with kernel(name), pytest.raises(LoadExceededError):
                Session(p=8, seed=0, capacity_bits=60.0).run(q, db, "skew-star")

    def test_rejects_bad_mode(self):
        q, db = self.query_db(seed=2)
        with pytest.raises(ValueError, match="on_overflow"):
            Session(p=8, on_overflow="explode").run(q, db, "skew-star")

    @pytest.mark.parametrize("capacity", [400.0, 1500.0])
    def test_truncation_identical_across_backends(self, capacity):
        # The satellite's acceptance (the multiround test_capacity
        # pattern): a binding cap drops the same tuples under both
        # kernels -- same per-server bits, dropped bits, answers.
        q, db = self.query_db(seed=3)
        tuples_run, arrays_run = (
            run_on(name, q, db, "skew-star", capacity)
            for name in ("tuples", "numpy")
        )
        assert tuples_run.report.dropped_bits > 0
        assert_reports_identical(tuples_run, arrays_run)

    def test_dropped_tuples_shrink_answers(self):
        q, db = self.query_db(seed=4)
        free = Session(p=8, seed=0).run(q, db, "skew-star")
        capacity = 0.5 * free.report.max_load_bits
        capped = Session(
            p=8, seed=0, capacity_bits=capacity, on_overflow="drop"
        ).run(q, db, "skew-star")
        assert capped.report.dropped_bits > 0
        assert capped.answers.issubset(free.answers)


class TestTriangleCapacity:
    def db(self, seed=0):
        return zipf_database(
            triangle_query(), m=250, n=60, skew=1.1, seed=seed
        )

    def test_uncapped_runs_unchanged(self):
        db = self.db()
        free = Session(p=8, seed=0).run(TRIANGLE, db, "skew-triangle")
        capped = Session(p=8, seed=0, capacity_bits=10**9).run(
            TRIANGLE, db, "skew-triangle"
        )
        assert capped.answers == free.answers
        assert capped.report.total_bits == free.report.total_bits
        assert capped.report.dropped_bits == 0

    def test_fail_mode_raises(self):
        db = self.db(seed=1)
        for name in ("tuples", "numpy"):
            with kernel(name), pytest.raises(LoadExceededError):
                Session(p=8, seed=0, capacity_bits=60.0).run(
                    TRIANGLE, db, "skew-triangle"
                )

    def test_rejects_bad_mode(self):
        db = self.db(seed=2)
        with pytest.raises(ValueError, match="on_overflow"):
            Session(p=8, on_overflow="explode").run(
                TRIANGLE, db, "skew-triangle"
            )

    @pytest.mark.parametrize("capacity", [600.0, 2500.0])
    def test_truncation_identical_across_backends(self, capacity):
        db = self.db(seed=3)
        tuples_run, arrays_run = (
            run_on(name, TRIANGLE, db, "skew-triangle", capacity)
            for name in ("tuples", "numpy")
        )
        assert tuples_run.report.dropped_bits > 0
        assert_reports_identical(tuples_run, arrays_run)

    def test_matching_data_uncapped_equals_capped_loosely(self):
        # A skew-free instance under a generous cap must not truncate.
        db = matching_database(triangle_query(), m=120, n=480, seed=5)
        free = Session(p=8, seed=0).run(TRIANGLE, db, "skew-triangle")
        capped = Session(
            p=8, seed=0,
            capacity_bits=free.report.max_load_bits + 1.0,
            on_overflow="drop",
        ).run(TRIANGLE, db, "skew-triangle")
        assert capped.report.dropped_bits == 0
        assert capped.answers == free.answers
