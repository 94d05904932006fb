#!/usr/bin/env python
"""Out-of-core HyperCube: a triangle join streamed under a memory budget.

The database is generated straight into a storage manager's spill
files, and the HyperCube run routes it chunk by chunk: per-server
fragments live in segment files and are mapped, not held, when a
server joins.  The peak resident set then grows by less than the
budget, although the in-memory path (the input plus every routed
replica; the 4 x 4 x 4 triangle grid replicates each relation 4x)
would need several times more.

The default (10^6 tuples per relation, a 64 MiB budget against a
0.22 GiB in-memory footprint) runs in seconds.  The full-scale run, at
10^8 tuples per relation, holds a 22 GiB footprint to a 4 GiB budget:

    python examples/outofcore_stream.py --m 100000000 --budget-mb 4096

Exits nonzero when the resident set outgrows a budget that the
in-memory footprint exceeds.

Run:  python examples/outofcore_stream.py [--m M] [--budget-mb MB] [--p P]
"""

import argparse
import resource
import sys
import time

from repro.config import ExecutionSettings
from repro.core.families import triangle_query
from repro.data.generators import matching_database
from repro.hypercube.algorithm import hypercube_core
from repro.run import dispatch_run
from repro.storage import StorageManager

SEED = 42

#: ru_maxrss is KiB on Linux, bytes on macOS.
_RSS_UNIT = 1 if sys.platform == "darwin" else 1024


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RSS_UNIT


def in_memory_footprint_bytes(m: int, replication: int = 4) -> int:
    """Three binary int64 relations of ``m`` rows plus their replicas."""
    input_bytes = 3 * m * 2 * 8
    return input_bytes + input_bytes * replication


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=1_000_000,
                        help="tuples per relation (default 10^6)")
    parser.add_argument("--budget-mb", type=int, default=64,
                        help="resident-set budget in MiB (default 64)")
    parser.add_argument("--p", type=int, default=64,
                        help="number of servers (default 64)")
    args = parser.parse_args()
    query = triangle_query()
    budget = args.budget_mb * 2**20
    footprint = in_memory_footprint_bytes(args.m)
    print(f"m = {args.m:,}, p = {args.p}, budget = {args.budget_mb} MiB "
          f"(in-memory footprint {footprint / 2**30:.2f} GiB)", flush=True)

    before = peak_rss_bytes()
    with StorageManager.from_budget(budget) as storage:
        start = time.perf_counter()
        db = matching_database(
            query, m=args.m, n=4 * args.m, seed=SEED, storage=storage
        )
        generated = time.perf_counter()
        result = dispatch_run(
            hypercube_core, query, db, args.p, seed=SEED,
            settings=ExecutionSettings(), storage=storage,
        )
        finished = time.perf_counter()
        spilled = storage.bytes_spilled
        chunk_rows = storage.chunk_rows
    grown = peak_rss_bytes() - before

    print(f"generation {generated - start:.1f}s, execution "
          f"{finished - generated:.1f}s (chunk_rows={chunk_rows:,})")
    print(f"RSS growth {grown / 2**20:.0f} MiB "
          f"(spilled {spilled / 2**30:.2f} GiB)")
    print(f"L = {result.report.max_load_bits:.3g} bits, "
          f"{result.simulation.output_rows_total():,} answer rows")
    assert result.report.max_load_bits > 0
    if footprint > budget:
        if grown > budget:
            print("RSS budget check: OVER BUDGET")
            raise SystemExit(1)
        print("RSS budget check: OK")


if __name__ == "__main__":
    main()
