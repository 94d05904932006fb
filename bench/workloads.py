"""The six named workloads: seed -> inputs, plus how the session runs them.

Every workload is a closed loop with one client: the next operation is
issued only after the previous one returned.  The seed reaches the data
generators and nothing else (the session seed, and with it every hash
function, stays fixed), so ``max_load_bits`` and every count are
deterministic in ``--seed``.  ``scale`` shrinks the inputs for the
smoke test; the committed numbers are all at ``scale=1``.

Why each workload exists is recorded in :attr:`Workload.why` (and, one
line each, in ``BENCHMARK.json``); ``bench/README.md`` has the table of
which layers each one stresses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from repro import (
    Job,
    chain_query,
    matching_database,
    simple_join_query,
    star_query,
    triangle_query,
    uniform_database,
    zipf_database,
)
from repro.data.generators import degree_sequence_database
from repro.skew.bounds import zipf_frequencies

MIB = 1024 * 1024


def pool_workers() -> int:
    """Workers for every pool the benchmark opens: ``min(nproc, 2)``."""
    return min(os.cpu_count() or 1, 2)


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and the session configuration it runs on."""

    name: str
    why: str
    #: ``(seed, scale) -> jobs``; one job for the single-query workloads.
    build: Callable[[int, float], list[Job]]
    #: ``scale -> Session(**kwargs)`` (the spill budget shrinks with the data).
    session_kwargs: Callable[[float], dict] = field(default=lambda scale: {"p": 64})
    #: One operation is a whole ``run_many`` batch instead of one ``run``.
    batch: bool = False
    #: Also run the query on a plain serial in-memory session and require
    #: identical loads (the bit-identity contract of the ``hc_*`` trio).
    identity_check: bool = False


def _scaled(value: int, scale: float) -> int:
    return max(1, int(value * scale))


def _triangle(seed: int, scale: float) -> list[Job]:
    query = triangle_query()
    database = uniform_database(
        query, m=_scaled(100_000, scale), n=_scaled(10_000, scale), seed=seed
    )
    return [Job(query, database, label="triangle-uniform")]


def _star_skew(seed: int, scale: float) -> list[Job]:
    query = star_query(2)
    frequencies = {
        "S1": zipf_frequencies(_scaled(40_000, scale), _scaled(800, scale), 1.0),
        "S2": zipf_frequencies(_scaled(40_000, scale), _scaled(20_000, scale), 0.2),
    }
    database = degree_sequence_database(
        query, "z", frequencies, n=_scaled(2**17, scale), seed=seed
    )
    return [Job(query, database, label="star-degree-sequence")]


def _chain(seed: int, scale: float) -> list[Job]:
    query = chain_query(4)
    database = matching_database(
        query, m=_scaled(100_000, scale), n=_scaled(200_000, scale), seed=seed
    )
    return [Job(query, database, label="chain4-matching")]


def _batch(seed: int, scale: float) -> list[Job]:
    m = _scaled(20_000, scale)
    triangle, star = triangle_query(), star_query(2)
    chain, join = chain_query(3), simple_join_query()
    # A zipf_database star at this size has no value above m/p, so the
    # planner would answer it with plain HyperCube and leave skew-star
    # uncovered; the degree-sequence generator plants real heavy hitters.
    star_frequencies = {
        "S1": zipf_frequencies(m // 2, max(2, m // 100), 1.0),
        "S2": zipf_frequencies(m // 2, max(2, m // 4), 0.2),
    }
    return [
        Job(triangle, uniform_database(triangle, m=m, n=max(8, m // 10), seed=seed),
            label="triangle-uniform"),
        Job(star, degree_sequence_database(star, "z", star_frequencies, n=2 * m, seed=seed + 1),
            label="star-skewed"),
        Job(triangle, zipf_database(triangle, m=m, n=m, skew=0.6, seed=seed + 2),
            strategy="skew-triangle", label="triangle-zipf"),
        Job(chain, matching_database(chain, m=m, n=2 * m, seed=seed + 3),
            label="chain3-matching"),
        Job(join, uniform_database(join, m=m, n=max(8, m // 2), seed=seed + 4),
            label="join-uniform"),
        Job(triangle, matching_database(triangle, m=m, n=2 * m, seed=seed + 5),
            label="triangle-matching"),
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "hc_inmem",
            "skew-free one-round HyperCube triangle (Cor 3.3) in memory, serial: "
            "planner statistics scan, hashing, routing and the local join do all the work",
            _triangle,
        ),
        Workload(
            "hc_process",
            "same triangle through the process pool: every route/join task is pickled, "
            "so a transport gain shows here and a serial-only gain that costs the pool shows as a loss",
            _triangle,
            lambda scale: {"p": 64, "pool": "process", "max_workers": pool_workers()},
            identity_check=True,
        ),
        Workload(
            "hc_spill",
            "same triangle under a 2 MiB memory budget: chunk-streamed routing, spooled fragments "
            "and memmap reads make storage and simulator delivery dominate",
            _triangle,
            lambda scale: {"p": 64, "memory_budget_bytes": _scaled(2 * MIB, scale)},
            identity_check=True,
        ),
        Workload(
            "star_skew",
            "two-atom star with planted heavy hitters (Section 4.2): the skew engine and the "
            "tuple join path do the work, so HyperCube-only optimisations are bypassed",
            _star_skew,
        ),
        Workload(
            "chain_rounds",
            "four-atom chain on matchings (Section 5): the two-round plan wins on load, so the "
            "multi-round executor and cross-round simulator state dominate",
            _chain,
        ),
        Workload(
            "batch_mixed",
            "run_many over six 20k-tuple jobs on all four engines with two threads: fixed "
            "per-run cost (planning, config, bookkeeping) dominates instead of data volume",
            _batch,
            lambda scale: {"p": 16},
            batch=True,
        ),
    )
}
