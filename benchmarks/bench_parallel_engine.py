"""Engine-level worker-pool scaling: one run fanned across cores.

PR 6's seam puts the per-server routing and local-join bodies of a
*single* HyperCube run onto a worker pool.  This bench measures one
large run under each pool kind, asserts the results are bit-identical
(the seam's acceptance), and reports the wall-clock and phase split.

No hard speedup gate: engine-level scaling needs real cores.  On a
single-core runner the serial pool wins (the others only add pickle
and scheduling overhead) and that is the honest, expected number; on a
4-core host the process pool's route+join phases shrink toward 1/4.
The trajectory file CI commits (``BENCH_trajectory.json``) is where
the numbers accumulate per host.

Run directly for the table: ``python benchmarks/bench_parallel_engine.py``.
"""

from __future__ import annotations

import time

from repro.config import ExecutionSettings
from repro.core.families import triangle_query
from repro.data.generators import matching_database
from repro.hypercube.algorithm import hypercube_core
from repro.run import dispatch_run

P = 64
SEED = 11
M = 200_000

_DB_CACHE: dict[int, object] = {}


def _database(m: int):
    if m not in _DB_CACHE:
        q = triangle_query()
        _DB_CACHE[m] = (q, matching_database(q, m=m, n=4 * m, seed=SEED))
    return _DB_CACHE[m]


def fingerprint(result):
    return (
        result.answers_array().tobytes(),
        [sorted(r.bits.items()) for r in result.report.rounds],
    )


def run_once(pool: str, max_workers: int, m: int = M):
    q, db = _database(m)
    start = time.perf_counter()
    # The HyperCube core alone: the timing compares pools, not planning.
    result = dispatch_run(
        hypercube_core, q, db, P, seed=SEED,
        settings=ExecutionSettings(
            pool=pool, max_workers=max_workers, chunk_rows=32_768
        ),
    )
    elapsed = time.perf_counter() - start
    return elapsed, result


def compare_pools(m: int = M) -> list[dict]:
    rows = []
    baseline = None
    for pool, workers in (("serial", 1), ("thread", 4), ("process", 4)):
        if pool == "process":
            # Warm the spawn cost out of the measurement: the shared
            # pool is cached, so real workloads pay it once.
            run_once(pool, workers, m=1_000)
        elapsed, result = run_once(pool, workers, m)
        fp = fingerprint(result)
        if baseline is None:
            baseline = fp
        assert fp == baseline, f"pool={pool} changed the results"
        phases = result.report.phase_seconds
        rows.append({
            "pool": pool,
            "workers": workers,
            "seconds": elapsed,
            "route_s": phases.get("route", 0.0),
            "join_s": phases.get("join", 0.0),
            "answers": len(result.answers_array()),
        })
    serial_s = rows[0]["seconds"]
    for row in rows:
        row["speedup"] = serial_s / row["seconds"]
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    lines = [
        f"{'pool':>8} {'workers':>7} {'total [s]':>10} {'route [s]':>10} "
        f"{'join [s]':>9} {'speedup':>8}   "
        f"(triangle m={M:,}, p={P}, bit-identical)"
    ]
    for r in rows:
        lines.append(
            f"{r['pool']:>8} {r['workers']:>7} {r['seconds']:>10.3f} "
            f"{r['route_s']:>10.3f} {r['join_s']:>9.3f} "
            f"{r['speedup']:>7.2f}x"
        )
    return lines


def test_engine_pools_identical(report_table):
    rows = compare_pools()
    report_table("Engine worker pools: one run across cores", format_rows(rows))


def test_engine_serial_latency(benchmark):
    """The in-process baseline the pooled runs compare against."""
    _database(M)  # generation outside the timer
    total = benchmark(lambda: len(run_once("serial", 1)[1].answers_array()))
    assert total >= 0


def test_engine_process_latency(benchmark):
    """One run fanned over 4 process workers (pool cached across rounds)."""
    _database(M)
    run_once("process", 4, m=1_000)  # warm the spawned pool
    total = benchmark(lambda: len(run_once("process", 4)[1].answers_array()))
    assert total >= 0


if __name__ == "__main__":
    for line in format_rows(compare_pools()):
        print(line)
