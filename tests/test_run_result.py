"""One ``RunResult``: the contract every run's return value meets.

Eight registered strategies x {``Session.run``, ``Strategy.run``,
``run_many`` over each engine pool kind}: the result is exactly
:class:`repro.run.RunResult`, carries the identical attribute set,
survives a pickle round trip, and answers the query.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import Job, RunResult, Session
from repro.core.families import star_query, triangle_query
from repro.data.generators import zipf_database
from repro.config import ExecutionSettings
from repro.planner import default_strategies
from repro.run import dispatch_run
from repro.session import RunResult as SessionRunResult
from tests.reference.multiway_join import evaluate

P = 8
STRATEGIES = [strategy.name for strategy in default_strategies()]
#: Strategies that only run the triangle; the rest take the star join.
ON_TRIANGLE = {"skew-triangle", "multiround"}


def case(strategy):
    if strategy in ON_TRIANGLE:
        q = triangle_query()
        return q, zipf_database(q, m=160, n=50, skew=1.1, seed=3)
    q = star_query(2)
    return q, zipf_database(q, m=180, n=80, skew=1.0, seed=1)


def surface(result):
    """Everything readable that must not depend on the pool kind."""
    details = dict(result.details)
    details.pop("view_fragments", None)
    return {
        "strategy": result.strategy,
        "rounds": result.rounds,
        "servers_used": result.servers_used,
        "max_load_bits": result.max_load_bits,
        "max_load_tuples": result.max_load_tuples,
        "predicted_bits": result.predicted_bits,
        "details": details,
        "explained": result.explained and result.explained.table(),
        "summary": result.summary(),
        "loads": [
            (r.bits, r.tuples, r.dropped_bits) for r in result.report.rounds
        ],
        "load_report_is_report": result.load_report is result.report,
        "answers": result.answers_array().tolist(),
    }


def check_contract(result, strategy, q, db):
    assert type(result) is RunResult
    assert result.strategy == strategy
    assert result.query == q
    assert result.answers == evaluate(q, db)
    array = result.answers_array()
    assert array.dtype == np.int64 and array.shape[1] == q.num_variables
    assert result.rounds == result.load_report.num_rounds
    assert result.replication_rate(db.statistics(q)) > 0
    assert "\n" not in repr(result) and len(repr(result)) < 100

    copy = pickle.loads(pickle.dumps(result))
    assert type(copy) is RunResult
    assert vars(copy).keys() == vars(result).keys()
    np.testing.assert_array_equal(copy.answers_array(), array)
    assert copy.answers == result.answers
    assert copy.report == result.report
    assert copy.predicted_bits == result.predicted_bits
    assert copy.strategy == result.strategy
    # The pickled form never carries the simulation or per-server view
    # fragments.
    assert copy.simulation is None
    assert "view_fragments" not in copy.details
    return set(vars(result)) | {
        name for name in dir(RunResult) if not name.startswith("__")
    }


def test_one_class_under_both_import_paths():
    assert SessionRunResult is RunResult


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_entry_point_returns_the_same_thing(strategy):
    q, db = case(strategy)
    with Session(p=P, seed=0) as session:
        planned = session.run(q, db, strategy=strategy)
        direct = next(
            s for s in default_strategies() if s.name == strategy
        ).run(q, db, P, seed=0)
        attribute_sets = [
            check_contract(result, strategy, q, db)
            for result in (planned, direct)
        ]
    assert attribute_sets[0] == attribute_sets[1]
    # The planner adds context; it never changes what ran.
    assert planned.explained is not None and planned.estimate is not None
    assert planned.predicted_bits == planned.estimate.load_bits
    assert direct.explained is None and direct.estimate is None
    assert surface(direct)["loads"] == surface(planned)["loads"]
    assert surface(direct)["answers"] == surface(planned)["answers"]


@pytest.mark.parametrize("strategy", default_strategies(), ids=STRATEGIES)
def test_the_planner_is_the_only_pricer(strategy):
    q, db = case(strategy.name)
    with Session(p=P, seed=0) as session:
        planned = session.run(q, db, strategy.name)
    assert planned.strategy == strategy.name
    assert (
        planned.predicted_bits
        == planned.estimate.load_bits
        == planned.report.predicted_load_bits
    )
    # The strategy's own core runs the same engine and prices nothing.
    overrides = (
        {"plan": planned.details["plan"]}
        if strategy.name == "multiround" else {}
    )
    direct = dispatch_run(
        strategy.core, q, db, P, seed=0, settings=ExecutionSettings(),
        **overrides,
    )
    assert direct.strategy == strategy.name
    assert direct.predicted_bits is None
    assert surface(direct)["loads"] == surface(planned)["loads"]


def test_planner_routed_run_pickles():
    q, db = case("hypercube")
    with Session(p=P, seed=0) as session:
        check_contract(session.run(q, db), session.history[-1].strategy, q, db)


def test_run_many_surface_is_pool_independent():
    jobs = [Job(*case(name), strategy=name, label=name) for name in STRATEGIES]
    surfaces = {}
    for pool in ("serial", "thread", "process"):
        with Session(p=P, seed=7, pool=pool, max_workers=2) as session:
            results = session.run_many(jobs, max_workers=2)
            for job, result in zip(jobs, results):
                check_contract(result, job.strategy, job.query, job.database)
            surfaces[pool] = [surface(result) for result in results]
    assert surfaces["thread"] == surfaces["serial"]
    assert surfaces["process"] == surfaces["serial"]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_empty_answers_keep_their_width(strategy):
    q, db = case(strategy)
    # A cap of zero bits drops every tuple: no answers anywhere.
    with Session(p=P, seed=0, capacity_bits=0.0, on_overflow="drop") as session:
        result = session.run(q, db, strategy=strategy)
        for array in (
            result.answers_array(),
            pickle.loads(pickle.dumps(result)).answers_array(),
        ):
            assert array.shape == (0, q.num_variables)
            assert array.dtype == np.int64
        assert result.answers == set()
