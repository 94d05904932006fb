"""``Session.run_many`` batch throughput: concurrent vs sequential.

The session front door (PR 5) claims that a workload of independent
queries over one configured cluster runs correctly at any
``max_workers`` and faster with a few: the executors spend their time
in NumPy routing/joining, which releases the GIL, so a thread pool
overlaps real work.  This bench measures a mixed workload (matching
triangles, a zipf star join, a matching binary join) sequentially and
concurrently, verifies the results are identical (the determinism
acceptance), and records the wall-clock for both modes.

No hard speedup gate: thread-level overlap depends on the host's cores
and the NumPy build, and a 1x result on a loaded single-core CI runner
would be noise, not regression.  The numbers to track live in the
``--benchmark-json`` artifact CI uploads.

Run directly for the table: ``python benchmarks/bench_session_batch.py``.
"""

from __future__ import annotations

import time

from repro.core.families import simple_join_query, star_query, triangle_query
from repro.data.generators import matching_database, zipf_database
from repro.session import Job, Session

P = 16
SEED = 7
#: Per-job strategies are pinned so the benchmark times execution, not
#: planning (statistics collection would dominate at this size).
STRATEGY = "hypercube"


def build_jobs(m: int) -> list[Job]:
    tq = triangle_query()
    sq = star_query(2)
    jq = simple_join_query()
    jobs = []
    for copy in range(2):
        jobs += [
            Job(tq, matching_database(tq, m=m, n=4 * m, seed=copy),
                strategy=STRATEGY, label=f"tri-{copy}"),
            Job(sq, zipf_database(sq, m=m, n=m, skew=0.8, seed=copy),
                strategy=STRATEGY, label=f"star-{copy}"),
            Job(jq, matching_database(jq, m=m, n=4 * m, seed=copy),
                strategy=STRATEGY, label=f"join-{copy}"),
        ]
    return jobs


def run_batch(jobs: list[Job], max_workers: int):
    """One timed batch: (seconds, per-job answer counts, total bits)."""
    with Session(p=P, seed=SEED) as session:
        start = time.perf_counter()
        results = session.run_many(jobs, max_workers=max_workers)
        elapsed = time.perf_counter() - start
        counts = [len(result.answers_array()) for result in results]
        bits = [result.load_report.total_bits for result in results]
    return elapsed, counts, bits


def compare_modes(m: int) -> dict:
    jobs = build_jobs(m)
    sequential_s, seq_counts, seq_bits = run_batch(jobs, max_workers=1)
    concurrent_s, conc_counts, conc_bits = run_batch(jobs, max_workers=4)
    assert conc_counts == seq_counts, "concurrency changed the answers"
    assert conc_bits == seq_bits, "concurrency changed the loads"
    return {
        "m": m,
        "jobs": len(jobs),
        "sequential_s": sequential_s,
        "concurrent_s": concurrent_s,
        "speedup": sequential_s / concurrent_s,
    }


def format_rows(rows: list[dict]) -> list[str]:
    lines = [
        f"{'m':>9} {'jobs':>5} {'sequential [s]':>15} "
        f"{'4 threads [s]':>14} {'speedup':>8}"
        f"   (mixed workload, p={P}, pinned {STRATEGY})"
    ]
    for r in rows:
        lines.append(
            f"{r['m']:>9,} {r['jobs']:>5} {r['sequential_s']:>15.3f} "
            f"{r['concurrent_s']:>14.3f} {r['speedup']:>7.2f}x"
        )
    return lines


def test_session_batch_consistency(report_table):
    # The determinism acceptance at bench scale, plus the table.
    rows = [compare_modes(m) for m in (5_000, 20_000)]
    report_table("Session batch: run_many vs sequential", format_rows(rows))


def test_session_batch_concurrent_latency(benchmark):
    """run_many(max_workers=4) wall-clock -- the number to track."""
    jobs = build_jobs(10_000)

    def batch():
        with Session(p=P, seed=SEED) as session:
            results = session.run_many(jobs, max_workers=4)
            return sum(len(r.answers_array()) for r in results)

    total = benchmark(batch)
    assert total >= 0


def test_session_batch_sequential_latency(benchmark):
    """The max_workers=1 baseline the concurrent number compares to."""
    jobs = build_jobs(10_000)

    def batch():
        with Session(p=P, seed=SEED) as session:
            results = session.run_many(jobs, max_workers=1)
            return sum(len(r.answers_array()) for r in results)

    total = benchmark(batch)
    assert total >= 0


if __name__ == "__main__":
    for m in (5_000, 20_000, 100_000):
        row = compare_modes(m)
        print(
            f"m={row['m']:>9,}: {row['jobs']} jobs, "
            f"sequential {row['sequential_s']:.3f}s, "
            f"4 threads {row['concurrent_s']:.3f}s "
            f"({row['speedup']:.2f}x)"
        )
