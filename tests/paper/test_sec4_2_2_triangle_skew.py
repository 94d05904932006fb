"""Section 4.2.2 of arXiv 1602.06236: the skew-aware triangle algorithm.

On hub graphs with a growing celebrity degree, vanilla HyperCube's
load grows with the hub while the skew-aware algorithm stays on the
paper's O~(max(M / p^{2/3}, sqrt(sum_h M_R(h) M_T(h) / p))).  Without
heavy hitters the skew-aware algorithm is vanilla HyperCube.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Session
from repro.config import ExecutionSettings
from repro.core.families import triangle_query
from repro.data.generators import matching_database, triangle_database_from_edges
from repro.join import evaluate_arrays
from repro.run import dispatch_run
from repro.skew.triangle import triangle_core, triangle_skew_load_bound


def hub_db(hub_degree: int, fan_edges: int):
    edges = {(0, v) for v in range(1, hub_degree + 1)}
    edges |= {(v, v + 1) for v in range(1, fan_edges + 1)}
    return triangle_database_from_edges(edges, hub_degree + 2)


def test_hub_degree_sweep():
    p = 27
    query = triangle_query()
    wins = []
    for hub_degree in (150, 400, 800):
        db = hub_db(hub_degree, 100)
        truth = evaluate_arrays(query, db.arrays(query))
        vanilla = Session(p=p, seed=53).run(query, db, "hypercube")
        aware = dispatch_run(
            triangle_core, query, db, p, seed=53, settings=ExecutionSettings()
        )
        assert np.array_equal(vanilla.answers_array(), truth)
        assert np.array_equal(aware.answers_array(), truth)
        # The bound is O~: a value just below the case-2 threshold
        # m / p^{1/3} stays in the light part, where up to ~threshold
        # tuples per relation may meet on one server (hub degree 150 is
        # heavy in the m / p sense but below m / p^{1/3}).
        stats = db.statistics(query)
        m = max(stats.tuples(r) for r in query.relation_names)
        threshold_bits = (m / p ** (1.0 / 3.0)) * 2 * stats.value_bits
        slack = max(triangle_skew_load_bound(db, p), threshold_bits)
        assert aware.max_load_bits <= 6.0 * slack
        wins.append(vanilla.max_load_bits / aware.max_load_bits)
    assert wins[-1] >= max(2.5, wins[0])


def test_no_hitters_is_vanilla_hypercube():
    query = triangle_query()
    db = matching_database(query, m=900, n=2**14, seed=59)
    with Session(p=27, seed=59) as session:
        vanilla = session.run(query, db, "hypercube")
        aware = session.run(query, db, "skew-triangle")
    assert aware.answers == vanilla.answers
    assert aware.max_load_bits / vanilla.max_load_bits == pytest.approx(1.0, rel=0.35)
