"""E4 -- measured HyperCube load vs p (the Theorem 3.4/3.5 'figure').

For skew-free matching databases the load should track M / p^{1/tau*}:
p^{2/3} speedup for triangles, p^{1/2} for L3/C4, p for stars.  We run
the real algorithm at increasing p and compare shapes: measured load
within a constant of the tight bound, and the measured *ratio* between
consecutive p values close to the predicted power law.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Session
from repro.bounds.one_round import lower_bound
from repro.config import ExecutionSettings
from repro.core.families import chain_query, cycle_query, star_query, triangle_query
from repro.data.generators import matching_database
from repro.join import evaluate_arrays
from repro.hypercube.algorithm import hypercube_core
from repro.run import dispatch_run


CASES = [
    (triangle_query(), (8, 27, 64), 2 / 3),
    (chain_query(3), (4, 16, 64), 1 / 2),
    (star_query(2), (4, 16, 64), 1.0),
    (cycle_query(4), (4, 16, 64), 1 / 2),
]


@pytest.mark.parametrize("query,ps,exponent", CASES, ids=lambda c: getattr(c, "name", str(c)))
def test_load_tracks_power_law(query, ps, exponent, report_table):
    m = 1_200
    db = matching_database(query, m=m, n=2**16, seed=13)
    stats = db.statistics(query)
    truth = evaluate_arrays(query, db.arrays(query))
    lines = [
        f"{'p':>6} {'measured L':>11} {'bound L':>9} {'ratio':>6}"
        f"   (speedup exponent 1/tau* = {exponent:.3f})"
    ]
    measured = []
    for p in ps:
        result = Session(p=p, seed=13).run(query, db, "hypercube")
        assert np.array_equal(result.answers_array(), truth)
        bound = lower_bound(query, stats, p)
        ratio = result.max_load_bits / bound
        measured.append(result.max_load_bits)
        # Within a small constant of the tight bound (the bound is
        # per-relation; the algorithm receives all l relations).
        assert 0.8 <= ratio <= 2.5 * query.num_atoms, (query.name, p)
        lines.append(
            f"{p:>6} {result.max_load_bits:>11.0f} {bound:>9.0f} {ratio:>6.2f}"
        )
    # Shape check: going from ps[0] to ps[-1] should scale close to
    # (ps[-1]/ps[0])^exponent.
    expected_gain = (ps[-1] / ps[0]) ** exponent
    actual_gain = measured[0] / measured[-1]
    assert actual_gain == pytest.approx(expected_gain, rel=0.45)
    lines.append(
        f"load gain p={ps[0]} -> p={ps[-1]}: measured {actual_gain:.2f}x, "
        f"predicted {expected_gain:.2f}x"
    )
    report_table(f"Load vs p for {query.name} (skew-free)", lines)


def test_benchmark_hypercube_triangle(benchmark):
    query = triangle_query()
    db = matching_database(query, m=600, n=2**14, seed=1)

    def run():
        return dispatch_run(
            hypercube_core, query, db, 27, seed=1, settings=ExecutionSettings()
        )

    result = benchmark(run)
    assert result.max_load_bits > 0
