"""``capacity_bits`` threading into multi-round plans (per-round cap L).

The multi-round executor enforces the same per-server per-round
capacity that one-round HyperCube already supports: ``fail`` aborts with
:class:`LoadExceededError`, ``drop`` truncates -- and because every
backend routes each relation and view in canonical row order, the
truncated per-server prefixes (and therefore all downstream rounds and
the final answers) are identical under the tuple and columnar
backends.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.data.generators import matching_database, zipf_database
from repro.mpc.simulator import LoadExceededError
from repro.multiround.plans import chain_plan


def run_both_backends(plan, db, **knobs):
    return tuple(
        Session(backend=backend, **knobs).run(
            plan.query, db, "multiround", plan=plan
        )
        for backend in ("tuples", "numpy")
    )


class TestCapacityThreading:
    def test_uncapped_runs_unchanged(self):
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=60, n=60, seed=0)
        free = Session(p=8, seed=0).run(plan.query, db, "multiround", plan=plan)
        capped = Session(p=8, seed=0, capacity_bits=10**9).run(
            plan.query, db, "multiround", plan=plan
        )
        assert capped.answers == free.answers
        assert capped.report.total_bits == free.report.total_bits
        assert capped.report.dropped_bits == 0

    def test_fail_mode_raises(self):
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=80, n=80, seed=1)
        for backend in ("tuples", "numpy"):
            with pytest.raises(LoadExceededError):
                Session(
                    p=8, seed=0, backend=backend, capacity_bits=50.0
                ).run(plan.query, db, "multiround", plan=plan)

    def test_rejects_bad_mode(self):
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=10, n=10, seed=2)
        with pytest.raises(ValueError, match="on_overflow"):
            Session(p=8, on_overflow="explode").run(
                plan.query, db, "multiround", plan=plan
            )

    @pytest.mark.parametrize("capacity", [800.0, 2000.0])
    def test_overcapacity_rounds_truncate_identically(self, capacity):
        # The satellite's acceptance: an over-capacity round truncates
        # the same tuples under both backends -- same per-round
        # per-server bits, same dropped bits, same final answers.
        plan = chain_plan(4, 0.0)
        db = zipf_database(plan.query, m=150, n=60, skew=1.0, seed=5)
        tuples, arrays = run_both_backends(
            plan, db, p=8, seed=2, capacity_bits=capacity,
            on_overflow="drop",
        )
        assert tuples.report.dropped_bits > 0
        assert arrays.report.dropped_bits == tuples.report.dropped_bits
        assert arrays.report.num_rounds == tuples.report.num_rounds
        for round_a, round_t in zip(
            arrays.report.rounds, tuples.report.rounds
        ):
            assert round_a.bits == round_t.bits
            assert round_a.tuples == round_t.tuples
            assert round_a.dropped_bits == round_t.dropped_bits
        assert arrays.answers == tuples.answers

    def test_drop_in_round_one_shrinks_later_views(self):
        # Dropped base tuples must propagate: the capped run's later
        # rounds ship no more than the uncapped run's.
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=100, n=100, seed=3)
        free = Session(p=8, seed=1).run(plan.query, db, "multiround", plan=plan)
        capacity = 0.6 * free.report.rounds[0].max_bits
        capped = Session(
            p=8, seed=1, capacity_bits=capacity, on_overflow="drop"
        ).run(plan.query, db, "multiround", plan=plan)
        assert capped.report.dropped_bits > 0
        assert capped.report.total_bits < free.report.total_bits
        assert capped.answers.issubset(free.answers)

    def test_capacity_is_per_round_not_cumulative(self):
        # A cap binding in no single round must not fire even though
        # the summed traffic across rounds exceeds it.
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=40, n=40, seed=4)
        free = Session(p=8, seed=0).run(plan.query, db, "multiround", plan=plan)
        per_round_max = max(r.max_bits for r in free.report.rounds)
        assert free.report.total_bits > per_round_max
        capped = Session(
            p=8, seed=0, capacity_bits=per_round_max + 1.0
        ).run(plan.query, db, "multiround", plan=plan)
        assert capped.answers == free.answers
        assert capped.report.dropped_bits == 0
