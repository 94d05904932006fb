"""E10 -- Section 4.2.2: the skew-aware triangle algorithm.

Hub graphs with a growing celebrity degree: vanilla HyperCube loads
blow up with the hub while the skew-aware algorithm stays on the paper's
formula O~(max(M/p^{2/3}, sqrt(sum_h M_R(h) M_T(h)/p))).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import triangle_query
from repro.data.generators import triangle_database_from_edges
from repro.join import evaluate_arrays
from repro.run import dispatch_run
from repro.skew.triangle import triangle_core, triangle_skew_load_bound


def hub_db(hub_degree: int, fan_edges: int):
    edges = {(0, v) for v in range(1, hub_degree + 1)}
    edges |= {(v, v + 1) for v in range(1, fan_edges + 1)}
    return triangle_database_from_edges(edges, hub_degree + 2)


def test_hub_degree_sweep(report_table):
    p = 27
    lines = [
        f"{'hub deg':>8} {'vanilla L':>10} {'skew-aware L':>13} "
        f"{'formula':>9} {'win':>5}"
    ]
    wins = []
    for hub_degree in (150, 400, 800):
        db = hub_db(hub_degree, 100)
        query = triangle_query()
        truth = evaluate_arrays(query, db.arrays(query))
        vanilla = Session(p=p, seed=53).run(query, db, "hypercube")
        aware = dispatch_run(
            triangle_core, query, db, p, seed=53,
            settings=ExecutionSettings(),
        )
        # The Section 4.2.2 bound itself, not the planner's estimate.
        formula = triangle_skew_load_bound(db, p)
        assert np.array_equal(vanilla.answers_array(), truth)
        assert np.array_equal(aware.answers_array(), truth)
        # The Section 4.2.2 statement is O~: a value just below the
        # case-2 threshold m/p^{1/3} is handled by the light part,
        # where it may concentrate up to ~threshold tuples per relation
        # on one server.  Allow that sub-threshold scale next to the
        # formula (visible at hub degree 150, which is heavy in the
        # m/p sense but below m/p^{1/3}).
        stats = db.statistics(query)
        m = max(stats.tuples(r) for r in query.relation_names)
        threshold_bits = (m / p ** (1.0 / 3.0)) * 2 * stats.value_bits
        slack = max(formula, threshold_bits)
        assert aware.max_load_bits <= 6.0 * slack
        win = vanilla.max_load_bits / aware.max_load_bits
        wins.append(win)
        lines.append(
            f"{hub_degree:>8} {vanilla.max_load_bits:>10.0f} "
            f"{aware.max_load_bits:>13.0f} "
            f"{formula:>9.0f} {win:>5.1f}"
        )
    assert wins[-1] >= max(2.5, wins[0])
    report_table(
        "Section 4.2.2: triangle loads on celebrity-hub graphs (p=27)",
        lines,
    )


def test_no_skew_degenerates_to_vanilla(report_table):
    # Without hitters the skew-aware algorithm IS vanilla HC (light
    # part only): loads match.
    from repro.data.generators import matching_database

    query = triangle_query()
    db = matching_database(query, m=900, n=2**14, seed=59)
    p = 27
    with Session(p=p, seed=59) as session:
        vanilla = session.run(query, db, "hypercube")
        aware = session.run(query, db, "skew-triangle")
    assert aware.answers == vanilla.answers
    ratio = aware.max_load_bits / vanilla.max_load_bits
    assert ratio == pytest.approx(1.0, rel=0.35)
    report_table(
        "Section 4.2.2 sanity: no hitters -> same load as vanilla HC",
        [
            f"vanilla L = {vanilla.max_load_bits:.0f}, "
            f"skew-aware L = {aware.max_load_bits:.0f}, ratio {ratio:.2f}"
        ],
    )


def test_benchmark_triangle_skew(benchmark):
    db = hub_db(300, 60)
    benchmark(
        dispatch_run, triangle_core, triangle_query(), db, 27, seed=1,
        settings=ExecutionSettings(),
    )
