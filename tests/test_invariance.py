"""One invariance matrix: the knobs that must not change a run.

Every strategy runs pinned on one small input, at one seed, on the
serial pool and the homogeneous cluster (``machines=None``), once
uncapped and once under a per-server cap that drops a quarter of the
largest load.  Those runs are the references, and their
:func:`~tests.reference.fingerprint.fingerprint` must come back
unchanged:

* under the ``thread`` and ``process`` pools at two workers (workers
  compute, the parent replays every delivery in task order; the cap
  makes that order visible, since it decides which rows are dropped);
* under :meth:`MachineSpec.uniform` (equal speeds route through the
  unweighted hash).

A genuinely heterogeneous cluster, alternating 1x/2x machines, moves
rows between servers by design, so there only the answers are checked,
against the backtracking oracle.  The inputs have answers and, for the
skew strategies, heavy hitters, so a misrouted or misattributed row
shows.
"""

from __future__ import annotations

import pytest

from repro import (
    MachineSpec,
    Session,
    star_query,
    triangle_query,
    uniform_database,
    zipf_database,
)
from repro.core.families import chain_query, simple_join_query
from repro.multiround.plans import chain_plan

from tests.reference.fingerprint import fingerprint
from tests.reference.multiway_join import evaluate

SEED = 1
CAPS = ("uncapped", "capped")


def _cases():
    """Strategy -> (query, database, p, per-run overrides)."""
    triangle = triangle_query()
    star = star_query(2)
    chain = chain_query(4)
    join = simple_join_query()
    return {
        "hypercube": (
            triangle, uniform_database(triangle, m=300, n=40, seed=1), 8, {},
        ),
        "skew-star": (
            star, zipf_database(star, m=600, n=600, skew=1.0, seed=2), 16, {},
        ),
        "skew-triangle": (
            triangle,
            zipf_database(triangle, m=400, n=100, skew=1.2, seed=4), 8, {},
        ),
        "multiround": (
            chain, uniform_database(chain, m=200, n=60, seed=5), 8,
            {"plan": chain_plan(4)},
        ),
        "broadcast": (
            join, uniform_database(join, m=200, n=80, seed=6), 8, {},
        ),
        "single-server": (
            triangle, uniform_database(triangle, m=200, n=40, seed=7), 8, {},
        ),
    }


CASES = _cases()
STRATEGIES = tuple(CASES)


def run(strategy: str, **knobs):
    query, database, p, overrides = CASES[strategy]
    return Session(p=p, seed=SEED, **knobs).run(
        query, database, strategy, **overrides
    )


@pytest.fixture(scope="module")
def reference():
    """``(strategy, cap) -> (cap knobs, serial homogeneous fingerprint)``.

    Each is computed once; the cap is three quarters of the uncapped
    run's largest per-server load, in drop mode.
    """
    cache: dict[tuple[str, str], tuple[dict, tuple]] = {}

    def get(strategy: str, cap: str) -> tuple[dict, tuple]:
        if (strategy, cap) not in cache:
            knobs = {}
            if cap == "capped":
                max_load_bits = get(strategy, "uncapped")[1][5]
                knobs = {
                    "capacity_bits": 0.75 * max_load_bits,
                    "on_overflow": "drop",
                }
            cache[strategy, cap] = (knobs, fingerprint(run(strategy, **knobs)))
        return cache[strategy, cap]

    return get


def test_inputs_exercise_the_engines(reference):
    # Answers everywhere, a cap that binds, and heavy blocks for the
    # skew strategies.
    for strategy in STRATEGIES:
        assert reference(strategy, "uncapped")[1][0], strategy
        dropped = reference(strategy, "capped")[1][3]
        assert any(bits for rnd in dropped for _, bits in rnd), strategy
    assert len(run("skew-star").details["heavy_hitters"]) >= 2
    assert any(run("skew-triangle").details["heavy1"].values())


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("pool", ("thread", "process"))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pool_kind(strategy, pool, cap, reference):
    knobs, expected = reference(strategy, cap)
    result = run(strategy, pool=pool, max_workers=2, **knobs)
    assert fingerprint(result) == expected


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_uniform_machine_spec(strategy, cap, reference):
    knobs, expected = reference(strategy, cap)
    p = CASES[strategy][2]
    result = run(strategy, machines=MachineSpec.uniform(p), **knobs)
    assert fingerprint(result) == expected


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_alternating_machine_spec_keeps_the_answers(strategy):
    query, database, p, _ = CASES[strategy]
    spec = MachineSpec(tuple(1.0 + s % 2 for s in range(p)))
    result = run(strategy, machines=spec)
    assert result.report.machines == spec
    assert result.answers == evaluate(query, database)
