"""Speed-weighted shares vs uniform hashing on a 2-class cluster.

The heterogeneity tentpole's headline claim: on a cluster of 4 slow
(1x) plus 4 fast (4x) machines, routing speed-proportional shares
through the weighted hash strictly beats uniform hashing on *makespan*
(max over servers of received bits / speed) -- both as the cost model
predicts it and as the simulator measures it.  Answers stay identical
either way; only where the bits land changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MachineSpec, Session
from repro.config import ExecutionSettings
from repro.core.families import star_query, triangle_query
from repro.data.generators import matching_database
from repro.join import evaluate_arrays
from repro.planner.cost import hypercube_cost, star_cost
from repro.planner.statistics import DataStatistics
from repro.skew.star import star_core
from repro.run import dispatch_run

MACHINES = MachineSpec.parse("4x1,4x4")
P = 8


def measured_makespan(result, machines):
    """Max over rounds/servers of bits/speed, for any run's report."""
    return max(
        bits / machines.speed(s)
        for r in result.report.rounds
        for s, bits in r.bits.items()
    )


def test_star_weighted_vs_uniform_makespan(report_table):
    query = star_query(2)
    db = matching_database(query, m=4_000, n=16_000, seed=7)
    dstats = DataStatistics.from_database(query, db, P)
    truth = evaluate_arrays(query, db.arrays(query))

    uniform = Session(p=P, seed=7).run(query, db, "skew-star")
    weighted = Session(p=P, seed=7, machines=MACHINES).run(
        query, db, "skew-star"
    )
    assert np.array_equal(uniform.answers_array(), truth)
    assert np.array_equal(weighted.answers_array(), truth)

    # Uniform hashing spreads bits evenly, so the slow (1x) servers set
    # the pace: predicted makespan is the classic homogeneous L.
    predicted_uniform = star_cost(query, dstats, P).load_bits
    predicted_weighted = star_cost(
        query, dstats, P, machines=MACHINES
    ).load_bits
    measured_uniform = measured_makespan(uniform, MACHINES)
    measured_weighted = measured_makespan(weighted, MACHINES)

    assert predicted_weighted < predicted_uniform
    assert measured_weighted < measured_uniform
    # The report's own accounting agrees with the recomputation.
    assert weighted.report.makespan_bits == pytest.approx(measured_weighted)

    report_table(
        "Heterogeneous cluster (4x1 + 4x4), star join T2: "
        "speed-weighted vs uniform shares",
        [
            f"{'routing':>10} {'predicted span':>15} {'measured span':>14}",
            f"{'uniform':>10} {predicted_uniform:>15.0f} "
            f"{measured_uniform:>14.0f}",
            f"{'weighted':>10} {predicted_weighted:>15.0f} "
            f"{measured_weighted:>14.0f}",
            "  measured improvement: "
            f"{measured_uniform / measured_weighted:.2f}x",
        ],
    )


def test_heterogeneous_star_latency(benchmark):
    """Timed leg for the trajectory file, makespan facts in extra_info.

    ``collect_trajectory.py`` keeps ``extra_info`` alongside the
    wall-clock stats, so ``BENCH_trajectory.json`` tracks the
    2-class cluster's predicted/measured makespan win over releases,
    not just how long the run took.
    """
    query = star_query(2)
    db = matching_database(query, m=4_000, n=16_000, seed=7)
    dstats = DataStatistics.from_database(query, db, P)

    uniform = Session(p=P, seed=7).run(query, db, "skew-star")
    # The timed leg is the engine alone, without the session's planning.
    settings = ExecutionSettings(machines=MACHINES)
    weighted = benchmark(
        lambda: dispatch_run(
            star_core, query, db, P, seed=7, settings=settings
        )
    )
    measured_uniform = measured_makespan(uniform, MACHINES)
    measured_weighted = measured_makespan(weighted, MACHINES)
    assert measured_weighted < measured_uniform
    benchmark.extra_info["machines"] = MACHINES.describe()
    benchmark.extra_info["predicted_makespan_uniform"] = round(
        star_cost(query, dstats, P).load_bits, 1
    )
    benchmark.extra_info["predicted_makespan_weighted"] = round(
        star_cost(query, dstats, P, machines=MACHINES).load_bits, 1
    )
    benchmark.extra_info["measured_makespan_uniform"] = round(
        measured_uniform, 1
    )
    benchmark.extra_info["measured_makespan_weighted"] = round(
        measured_weighted, 1
    )


def test_triangle_hypercube_weighted_vs_uniform_makespan(report_table):
    query = triangle_query()
    db = matching_database(query, m=3_000, n=12_000, seed=11)
    dstats = DataStatistics.from_database(query, db, P)
    truth = evaluate_arrays(query, db.arrays(query))

    uniform = Session(p=P, seed=11).run(query, db, "hypercube")
    weighted = Session(p=P, seed=11, machines=MACHINES).run(
        query, db, "hypercube"
    )
    assert np.array_equal(uniform.answers_array(), truth)
    assert np.array_equal(weighted.answers_array(), truth)

    predicted_uniform = hypercube_cost(query, dstats, P)[2].load_bits
    predicted_weighted = hypercube_cost(
        query, dstats, P, machines=MACHINES
    )[2].load_bits
    measured_uniform = measured_makespan(uniform, MACHINES)
    measured_weighted = measured_makespan(weighted, MACHINES)

    # The share grid's per-dimension marginal weighting is the rank-1
    # approximation -- weaker than the star's exact 1-D case, but it
    # must still strictly pay off on both axes.
    assert predicted_weighted < predicted_uniform
    assert measured_weighted < measured_uniform

    report_table(
        "Heterogeneous cluster (4x1 + 4x4), triangle HyperCube: "
        "speed-weighted vs uniform shares",
        [
            f"{'routing':>10} {'predicted span':>15} {'measured span':>14}",
            f"{'uniform':>10} {predicted_uniform:>15.0f} "
            f"{measured_uniform:>14.0f}",
            f"{'weighted':>10} {predicted_weighted:>15.0f} "
            f"{measured_weighted:>14.0f}",
            "  measured improvement: "
            f"{measured_uniform / measured_weighted:.2f}x",
        ],
    )
