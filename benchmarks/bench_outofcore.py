"""Out-of-core chunked execution: n beyond RAM under a byte budget.

The acceptance harness for ``repro.storage``.  Three tiers:

* **Small (CI)** -- chunked hypercube runs against the in-memory run
  on a matching triangle database: bit-identical
  per-server loads and answers, with real spill traffic, plus a
  pytest-benchmark latency probe.
* **Budgeted smoke (CI)** -- a run whose assumed in-memory footprint
  exceeds a deliberately tiny byte budget completes chunked with its
  measured RSS growth under the budget.
* **Full (env-gated)** -- ``REPRO_BENCH_FULL=1`` streams an
  ``n = 10^8`` matching-database hypercube run end to end (generation
  included) under a fixed RSS budget that the in-memory path's
  footprint (input + routed replicas) exceeds by an order of
  magnitude.  ``REPRO_BENCH_N`` / ``REPRO_BENCH_BUDGET_MB`` override
  the scale.  Also runnable directly:
  ``python benchmarks/bench_outofcore.py --m 100000000``.
"""

from __future__ import annotations

import os
import resource
import sys
import time

import pytest

from repro.config import ExecutionSettings
from repro.core.families import simple_join_query, triangle_query
from repro.data.generators import matching_database
from repro.planner.engine import IN_MEMORY_FOOTPRINT_FACTOR
from repro.run import dispatch_run
from repro.storage import StorageManager

P = 64
SEED = 42
#: The canonical hypercube workload (its matching-database answer count
#: is ~Poisson(m^3/n^3), i.e. usually zero at n = 4m -- the run is about
#: loads, not answers).
QUERY = triangle_query()
#: The Example 4.1 join: ~m^2/n answers on matching data, so the smoke
#: tier genuinely exercises the spooled answer path.
JOIN = simple_join_query()

#: ru_maxrss is KiB on Linux, bytes on macOS.
_RSS_UNIT = 1 if sys.platform == "darwin" else 1024

#: Every run here is the HyperCube core alone: the timings compare
#: execution paths, and a session's exact statistics scan would be the
#: largest resident cost of a budgeted run.
NUMPY = ExecutionSettings()


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RSS_UNIT


def in_memory_footprint_bytes(m: int, replication: int = 4) -> int:
    """What the monolithic columnar path would hold at peak.

    Three binary relations of ``m`` int64 rows, plus every routed
    replica resident in per-server fragments (triangle shares 4x4x4
    replicate each relation 4x).
    """
    input_bytes = 3 * m * 2 * 8
    return input_bytes + input_bytes * replication


def run_outofcore(
    m: int, budget_bytes: int, p: int = P, seed: int = SEED, query=QUERY
) -> dict:
    """Generate + execute entirely through chunked storage."""
    with StorageManager.from_budget(budget_bytes) as storage:
        start = time.perf_counter()
        db = matching_database(
            query, m=m, n=4 * m, seed=seed, storage=storage
        )
        generated = time.perf_counter()
        result = dispatch_run(
            "hypercube", query, db, p, seed=seed,
            settings=ExecutionSettings(), storage=storage,
        )
        finished = time.perf_counter()
        return {
            "m": m,
            "gen_s": generated - start,
            "run_s": finished - generated,
            "answer_rows": result.simulation.output_rows_total(),
            "max_load_bits": result.report.max_load_bits,
            "spilled_bytes": storage.bytes_spilled,
            "chunk_rows": storage.chunk_rows,
        }


def test_outofcore_matches_inmemory(report_table):
    """Bit-identical loads and answers, with genuine spill traffic."""
    m, n = 60_000, 240_000
    db = matching_database(QUERY, m=m, n=n, seed=SEED)
    t0 = time.perf_counter()
    reference = dispatch_run("hypercube", QUERY, db, P, seed=SEED, settings=NUMPY)
    in_memory_s = time.perf_counter() - t0
    with StorageManager(chunk_rows=1024) as storage:
        t0 = time.perf_counter()
        chunked = dispatch_run(
            "hypercube", QUERY, db, P, seed=SEED, settings=NUMPY,
            storage=storage,
        )
        chunked_s = time.perf_counter() - t0
        assert storage.bytes_spilled > 0, "run never touched disk"
        assert chunked.report.num_rounds == reference.report.num_rounds
        for round_c, round_r in zip(
            chunked.report.rounds, reference.report.rounds
        ):
            assert round_c.bits == round_r.bits
            assert round_c.tuples == round_r.tuples
        assert chunked.answers == reference.answers
        report_table(
            "Out-of-core vs in-memory hypercube (matching triangle)",
            [
                f"{'m':>10} {'in-mem [s]':>11} {'chunked [s]':>12} "
                f"{'spilled [MiB]':>14} {'answers':>9}",
                f"{m:>10,} {in_memory_s:>11.3f} {chunked_s:>12.3f} "
                f"{storage.bytes_spilled / 2**20:>14.1f} "
                f"{len(reference.answers):>9,}",
            ],
        )


def test_outofcore_budgeted_smoke(report_table):
    """A budget the in-memory footprint exceeds completes chunked."""
    m = 120_000
    budget = 4 * 2**20  # 4 MiB: input alone is ~3.7 MiB
    assert m * 2 * 8 * 2 * IN_MEMORY_FOOTPRINT_FACTOR > budget
    before = peak_rss_bytes()
    row = run_outofcore(m, budget, query=JOIN)
    grown = peak_rss_bytes() - before
    # RSS growth stays within the budget (plus slack for the
    # allocator); the point is it does not scale with the 5.5 MiB
    # input times replication.
    assert grown <= max(budget * 8, 64 * 2**20), (
        f"RSS grew {grown / 2**20:.0f} MiB on a "
        f"{budget / 2**20:.0f} MiB budget"
    )
    assert row["answer_rows"] > 0
    report_table(
        "Budgeted chunked smoke (4 MiB budget)",
        [
            f"m={row['m']:,}: gen {row['gen_s']:.2f}s, "
            f"run {row['run_s']:.2f}s, "
            f"spilled {row['spilled_bytes'] / 2**20:.1f} MiB "
            f"(chunk_rows={row['chunk_rows']}), "
            f"{row['answer_rows']:,} answer rows",
        ],
    )


def test_outofcore_latency(benchmark):
    """Chunked hypercube wall-clock -- the number to track over PRs."""
    db = matching_database(QUERY, m=50_000, n=200_000, seed=SEED)

    def chunked_run():
        with StorageManager(chunk_rows=4096) as storage:
            return dispatch_run(
                "hypercube", QUERY, db, P, seed=SEED, settings=NUMPY,
                storage=storage,
            )

    result = benchmark(chunked_run)
    assert result.report.num_rounds == 1


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_FULL") != "1",
    reason="n = 10^8 out-of-core run; set REPRO_BENCH_FULL=1 to enable",
)
def test_outofcore_full_scale(report_table):
    m = int(os.environ.get("REPRO_BENCH_N", 100_000_000))
    budget_mb = int(os.environ.get("REPRO_BENCH_BUDGET_MB", 4096))
    budget = budget_mb * 2**20
    footprint = in_memory_footprint_bytes(m)
    assert footprint > budget, (
        "the budget must be one the in-memory path cannot satisfy"
    )
    before = peak_rss_bytes()
    row = run_outofcore(m, budget)
    peak = peak_rss_bytes()
    grown = peak - before
    report_table(
        f"Out-of-core full scale (m = {m:,}, budget {budget_mb} MiB)",
        format_full_rows(row, footprint, grown),
    )
    assert grown <= budget, (
        f"peak RSS grew {grown / 2**20:.0f} MiB, over the "
        f"{budget_mb} MiB budget"
    )
    assert row["max_load_bits"] > 0


def format_full_rows(row: dict, footprint: int, grown: int) -> list[str]:
    return [
        f"generation {row['gen_s']:.1f}s, execution {row['run_s']:.1f}s "
        f"(p={P}, chunk_rows={row['chunk_rows']:,})",
        f"in-memory footprint {footprint / 2**30:.1f} GiB vs "
        f"RSS growth {grown / 2**20:.0f} MiB "
        f"(spilled {row['spilled_bytes'] / 2**30:.1f} GiB)",
        f"L = {row['max_load_bits']:.3g} bits, "
        f"{row['answer_rows']:,} answer rows",
    ]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=100_000_000,
                        help="tuples per relation (default 10^8)")
    parser.add_argument("--budget-mb", type=int, default=4096)
    parser.add_argument("--p", type=int, default=P)
    args = parser.parse_args()
    budget = args.budget_mb * 2**20
    footprint = in_memory_footprint_bytes(args.m)
    print(f"m = {args.m:,}, p = {args.p}, budget = {args.budget_mb} MiB "
          f"(in-memory footprint {footprint / 2**30:.1f} GiB)", flush=True)
    before = peak_rss_bytes()
    row = run_outofcore(args.m, budget, p=args.p)
    grown = peak_rss_bytes() - before
    print("\n".join(format_full_rows(row, footprint, grown)))
    if footprint > budget:
        status = "OK" if grown <= budget else "OVER BUDGET"
        print(f"RSS budget check: {status}")
