"""``solve_lp`` solves each distinct program once per process.

The cache is keyed by the exact program content, so a hit must be
indistinguishable from a fresh solve: the same ``LPSolution``, field for
field, as calling ``scipy.optimize.linprog`` directly; errors are raised
on every call; a caller mutating its inputs afterwards cannot reach a
cached entry; and runs -- a repeated ``Session.run``, a threaded
``run_many`` -- return exactly what they return from a cold cache.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import repro.core.friedgut as friedgut
import repro.core.lp as lp
import repro.core.packing as packing
import repro.core.shares as shares
from repro import Job, Session
from repro.core.families import (
    chain_query,
    simple_join_query,
    star_query,
    triangle_query,
)
from repro.core.lp import InfeasibleError, LPSolution, solve_lp
from repro.core.stats import Statistics
from repro.data.generators import (
    degree_sequence_database,
    matching_database,
    uniform_database,
    zipf_database,
)
from repro.skew.bounds import zipf_frequencies
from tests.conftest import random_queries


@pytest.fixture
def linprog_calls(monkeypatch):
    """Every ``linprog`` call ``solve_lp`` makes, from a cold cache."""
    calls = []

    def spy(c, **kwargs):
        calls.append(c)
        return linprog(c, **kwargs)

    monkeypatch.setattr(lp, "linprog", spy)
    lp._solve.cache_clear()
    return calls


def _uncached(cost, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
              bounds=None, maximize=False) -> LPSolution:
    """``linprog`` on the caller's own arrays, exactly as an uncached wrapper."""

    def array(values):
        return None if values is None else np.asarray(values, dtype=float)

    c = array(cost)
    result = linprog(
        -c if maximize else c,
        A_ub=array(a_ub), b_ub=array(b_ub), A_eq=array(a_eq), b_eq=array(b_eq),
        bounds=bounds if bounds is not None else [(0, None)] * len(c),
        method="highs",
    )
    assert result.success
    value = float(result.fun)
    return LPSolution(
        tuple(float(v) for v in result.x), -value if maximize else value
    )


def _programs(query, stats, p, monkeypatch) -> list[tuple[tuple, dict]]:
    """The share, packing and cover programs the library solves for ``query``."""
    programs = []

    def record(*args, **kwargs):
        programs.append((args, kwargs))
        return solve_lp(*args, **kwargs)

    for module in (shares, packing, friedgut):
        monkeypatch.setattr(module, "solve_lp", record)
    shares.share_exponents(query, stats, p)
    shares.skew_oblivious_share_exponents(query, stats, p)
    packing.maximum_edge_packing(query)
    packing.minimum_vertex_cover(query)
    packing.minimum_edge_cover(query)
    friedgut.agm_bound(query, stats.cardinalities)
    monkeypatch.undo()
    return programs


@given(
    query=random_queries(max_variables=5, max_atoms=6).filter(
        lambda q: len(q.atoms) <= 6
    ),
    sizes=st.lists(
        st.sampled_from([0, 1, 2, 37, 1000, 10**6]), min_size=6, max_size=6
    ),
    p=st.sampled_from([2, 8, 64]),
)
@settings(max_examples=60, deadline=None)
def test_cached_solution_equals_an_uncached_solve(query, sizes, p):
    stats = Statistics(query, dict(zip(query.relation_names, sizes)), 1000)
    with pytest.MonkeyPatch.context() as monkeypatch:
        programs = _programs(query, stats, p, monkeypatch)
    assert programs
    lp._solve.cache_clear()
    for args, kwargs in programs:
        direct = _uncached(*args, **kwargs)
        first = solve_lp(*args, **kwargs)
        repeat = solve_lp(*args, **kwargs)
        assert first == direct
        assert repeat is first


def test_infeasible_program_raises_on_every_call(linprog_calls):
    program = dict(cost=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
    for attempt in range(1, 4):
        with pytest.raises(InfeasibleError):
            solve_lp(**program)
        assert len(linprog_calls) == attempt
    assert lp._solve.cache_info().currsize == 0


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
def test_mutating_the_callers_matrix_misses_the_cache(as_array, linprog_calls):
    a_ub = [[-1.0, -1.0]]
    if as_array:
        a_ub = np.array(a_ub)
    first = solve_lp([1.0, 1.0], a_ub=a_ub, b_ub=[-1.0])
    assert first.value == pytest.approx(1.0)
    a_ub[0][0] = -4.0  # x + y subject to 4x + y >= 1: x = 1/4
    assert solve_lp([1.0, 1.0], a_ub=a_ub, b_ub=[-1.0]).value == pytest.approx(0.25)
    a_ub[0][0] = -1.0
    assert solve_lp([1.0, 1.0], a_ub=a_ub, b_ub=[-1.0]) is first
    assert len(linprog_calls) == 2


def test_bounds_and_direction_are_part_of_the_key(linprog_calls):
    program = dict(cost=[1.0, 2.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert solve_lp(**program).value == pytest.approx(0.0)
    assert solve_lp(**program, bounds=[(0, None), (0.5, None)]).value == pytest.approx(1.0)
    assert solve_lp(**program, maximize=True).value == pytest.approx(2.0)
    assert len(linprog_calls) == 3


def test_empty_matrix_keeps_its_shape(linprog_calls):
    """A ``(0, 2)`` matrix must not reach scipy as a ``(1, 0)`` row."""
    for _ in range(2):
        sol = solve_lp([1.0, 2.0], a_ub=np.empty((0, 2)), b_ub=[])
        assert sol == LPSolution((0.0, 0.0), 0.0)
    assert len(linprog_calls) == 1


def test_threads_share_the_cache_without_losing_an_answer():
    """Eight threads, more than the cores, race on a cold cache."""
    programs = [
        dict(cost=[1.0, float(k)], a_ub=[[-1.0, -1.0], [-float(k), 1.0]],
             b_ub=[-1.0, 0.0])
        for k in range(1, 13)
    ]
    expected = [_uncached(**program) for program in programs]
    lp._solve.cache_clear()
    mismatches = []

    def worker(offset):
        for i in range(len(programs) * 20):
            index = (i + offset) % len(programs)
            if solve_lp(**programs[index]) != expected[index]:
                mismatches.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert lp._solve.cache_info().currsize == len(programs)


def test_repeat_run_makes_no_solver_call(linprog_calls):
    q = triangle_query()
    db = uniform_database(q, m=200, n=50, seed=1)
    first = Session(p=8, seed=2).run(q, db)
    assert linprog_calls
    linprog_calls.clear()
    second = Session(p=8, seed=2).run(q, db)
    assert linprog_calls == []
    assert second.answers == first.answers
    assert second.explained.table() == first.explained.table()


def _batch_mixed_jobs(m: int = 20_000, seed: int = 1) -> list[Job]:
    """The ``batch_mixed`` benchmark's six jobs on all four engines."""
    triangle, star = triangle_query(), star_query(2)
    chain, join = chain_query(3), simple_join_query()
    star_frequencies = {
        "S1": zipf_frequencies(m // 2, max(2, m // 100), 1.0),
        "S2": zipf_frequencies(m // 2, max(2, m // 4), 0.2),
    }
    return [
        Job(triangle, uniform_database(triangle, m=m, n=m // 10, seed=seed)),
        Job(star, degree_sequence_database(
            star, "z", star_frequencies, n=2 * m, seed=seed + 1)),
        Job(triangle, zipf_database(triangle, m=m, n=m, skew=0.6, seed=seed + 2),
            strategy="skew-triangle"),
        Job(chain, matching_database(chain, m=m, n=2 * m, seed=seed + 3)),
        Job(join, uniform_database(join, m=m, n=m // 2, seed=seed + 4)),
        Job(triangle, matching_database(triangle, m=m, n=2 * m, seed=seed + 5)),
    ]


def _run_batch(jobs, max_workers):
    lp._solve.cache_clear()
    with Session(p=16) as session:
        results = session.run_many(jobs, max_workers=max_workers)
        return [
            (
                result.strategy,
                result.answers_array().tolist(),
                [dict(rnd.bits) for rnd in result.load_report.rounds],
            )
            for result in results
        ]


def test_threaded_batch_from_a_cold_cache_equals_a_serial_one():
    jobs = _batch_mixed_jobs()
    threaded = _run_batch(jobs, max_workers=2)
    serial = _run_batch(jobs, max_workers=1)
    assert {strategy for strategy, _, _ in serial} == {
        "hypercube", "skew-star", "skew-triangle", "multiround"
    }
    assert threaded == serial
