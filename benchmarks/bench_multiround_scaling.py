"""Multi-round executor scaling: columnar (numpy) vs tuple execution.

The last tuple-only execution path went columnar in PR 3; this bench is
its acceptance harness.  It runs the two-round bushy plan for the chain
query ``L_4`` on permutation databases (``m = n``, so every
intermediate view stays at ``m`` tuples and the work is dominated by
routing + joining, not by answer blowup) through both backends across
input sizes, verifying bit-identical loads and answer counts along the
way.

The acceptance bar (>= 5x at n = 10^6) is asserted by the env-gated
large run; execute
``REPRO_BENCH_FULL=1 pytest benchmarks/bench_multiround_scaling.py``
or ``python benchmarks/bench_multiround_scaling.py`` to exercise it.
CI runs the small tier with ``--benchmark-json`` and uploads the
artifact next to ``bench_planner.json``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.config import ExecutionSettings
from repro.data.generators import matching_database
from repro.multiround.plans import chain_plan
from repro.run import dispatch_run

P = 16
SEED = 42
PLAN = chain_plan(4, eps=0.0)  # two rounds: binary joins, then the root


def permutation_database(n: int):
    return matching_database(PLAN.query, m=n, n=n, seed=SEED, backend="numpy")


def run_plan_core(db, backend: str):
    """The plan core alone (no planning), as every timing here wants."""
    return dispatch_run(
        "multiround", PLAN.query, db, P, seed=SEED,
        settings=ExecutionSettings(backend=backend), plan=PLAN,
    )


def run_backend(db, backend: str) -> tuple[float, int, float]:
    """One timed run: (seconds, answer count, total bits communicated)."""
    start = time.perf_counter()
    result = run_plan_core(db, backend)
    if backend == "numpy":
        count = len(result.answers_array())
    else:
        count = len(result.answers)
    elapsed = time.perf_counter() - start
    return elapsed, count, result.report.total_bits


def compare_backends(n: int) -> dict:
    db = permutation_database(n)
    numpy_s, numpy_count, numpy_bits = run_backend(db, "numpy")
    tuple_s, tuple_count, tuple_bits = run_backend(db, "tuples")
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
        f"{'answers':>9}   (L4 bushy plan, {PLAN.depth} rounds, p={P})"
    ]
    for r in rows:
        lines.append(
            f"{r['n']:>10,} {r['tuple_s']:>11.3f} {r['numpy_s']:>10.3f} "
            f"{r['speedup']:>7.1f}x {r['answers']:>9,}"
        )
    return lines


def test_multiround_scaling_small(report_table):
    # Fast tier-1 sanity: identical results at moderate n (no strict
    # speed bar at this size to keep CI timing-robust).
    rows = [compare_backends(n) for n in (10_000, 50_000)]
    report_table(
        "Multi-round backend scaling (L4 bushy plan)", format_rows(rows)
    )


def test_multiround_numpy_latency(benchmark):
    """Columnar plan-core wall-clock -- the number to track over PRs."""
    db = permutation_database(20_000)
    result = benchmark(run_plan_core, db, "numpy")
    assert result.rounds == PLAN.depth


def test_multiround_tuples_latency(benchmark):
    """Tuple-reference plan-core wall-clock (smaller n; the slow path)."""
    db = permutation_database(2_000)
    result = benchmark(run_plan_core, db, "tuples")
    assert result.rounds == PLAN.depth


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_FULL") != "1",
    reason="large-n scaling run; set REPRO_BENCH_FULL=1 to enable",
)
def test_multiround_speedup_large(report_table):
    row = compare_backends(1_000_000)
    report_table(
        "Multi-round scaling at n = 10^6 (acceptance: >= 5x)",
        format_rows([row]),
    )
    assert row["speedup"] >= 5.0


if __name__ == "__main__":
    results = []
    for size in (10_000, 100_000, 1_000_000):
        print(f"running n = {size:,} ...", flush=True)
        results.append(compare_backends(size))
    print()
    print("\n".join(format_rows(results)))
