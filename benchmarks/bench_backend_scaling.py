"""Backend scaling: columnar (numpy) vs tuple-at-a-time execution.

The ROADMAP north-star experiment: the paper's analyses (HyperCube
loads, skew, multi-round plans) only become empirically interesting at
input sizes (n >= 10^6) the tuple engine cannot reach in reasonable
time.  This bench runs the same skewed binary join

    q(x, y, z) = S1(x, z), S2(y, z)     (planted heavy hitter on z)

through both backends across input sizes and tabulates wall-clock
times, verifying bit-identical loads and answer counts along the way.
The acceptance bar (>= 10x at n = 10^6) is asserted by the env-gated
large test; run ``REPRO_BENCH_FULL=1 pytest benchmarks/bench_backend_scaling.py``
or ``python benchmarks/bench_backend_scaling.py`` to exercise it.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.config import ExecutionSettings
from repro.core.query import Atom, ConjunctiveQuery
from repro.data.database import Database
from repro.data.relation import Relation
from repro.run import dispatch_run

P = 64
SEED = 42
HITTER_FRACTION = 0.001


def skewed_join_query() -> ConjunctiveQuery:
    return ConjunctiveQuery(
        (Atom("S1", ("x", "z")), Atom("S2", ("y", "z"))), name="skewed-join"
    )


def skewed_join_database(n: int, seed: int = SEED) -> Database:
    """n tuples per relation; a 0.1% heavy hitter planted on z."""
    rng = np.random.default_rng(seed)
    hitter_degree = max(1, int(n * HITTER_FRACTION))
    relations = []
    for name in ("S1", "S2"):
        other = rng.integers(0, n, size=n)
        z = rng.integers(0, n, size=n)
        z[:hitter_degree] = 7
        relations.append(Relation.from_array(name, np.column_stack([other, z])))
    return Database(relations, n)


def run_backend(query, db, backend: str) -> tuple[float, int, float]:
    """One timed run: (seconds, answer count, total bits communicated)."""
    start = time.perf_counter()
    result = dispatch_run(
        "hypercube", query, db, P, seed=SEED,
        settings=ExecutionSettings(backend=backend),
    )
    if backend == "numpy":
        count = len(result.answers_array())
    else:
        count = len(result.answers)
    elapsed = time.perf_counter() - start
    return elapsed, count, result.report.total_bits


def compare_backends(n: int) -> dict:
    query = skewed_join_query()
    db = skewed_join_database(n)
    numpy_s, numpy_count, numpy_bits = run_backend(query, db, "numpy")
    tuple_s, tuple_count, tuple_bits = run_backend(query, db, "tuples")
    assert numpy_count == tuple_count, "backends disagree on answers"
    assert numpy_bits == tuple_bits, "backends disagree on loads"
    return {
        "n": n,
        "numpy_s": numpy_s,
        "tuple_s": tuple_s,
        "speedup": tuple_s / numpy_s,
        "answers": numpy_count,
    }


def format_rows(rows: list[dict]) -> list[str]:
    lines = [
        f"{'n':>10} {'tuples [s]':>11} {'numpy [s]':>10} {'speedup':>8} "
        f"{'answers':>9}   (p={P}, planted hitter {HITTER_FRACTION:.1%})"
    ]
    for r in rows:
        lines.append(
            f"{r['n']:>10,} {r['tuple_s']:>11.3f} {r['numpy_s']:>10.3f} "
            f"{r['speedup']:>7.1f}x {r['answers']:>9,}"
        )
    return lines


def test_backend_scaling_small(report_table):
    # Fast tier-1 sanity: identical results at moderate n; the numpy
    # backend must not be slower once real work dominates (no strict
    # speed bar at this size to keep CI timing-robust).
    rows = [compare_backends(n) for n in (10_000, 50_000)]
    report_table("Backend scaling (skewed binary join)", format_rows(rows))


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_FULL") != "1",
    reason="large-n scaling run; set REPRO_BENCH_FULL=1 to enable",
)
def test_backend_speedup_large(report_table):
    row = compare_backends(1_000_000)
    report_table(
        "Backend scaling at n = 10^6 (acceptance: >= 10x)", format_rows([row])
    )
    assert row["speedup"] >= 10.0


if __name__ == "__main__":
    results = []
    for size in (10_000, 100_000, 1_000_000):
        print(f"running n = {size:,} ...", flush=True)
        results.append(compare_backends(size))
    print()
    print("\n".join(format_rows(results)))
