"""Everything the planner knows about the data, without touching it.

The paper's algorithm-selection story is driven by exactly two kinds of
information, both of which the MPC model assumes every server holds in
advance:

* cardinality statistics ``m_j`` / ``M_j`` (:class:`Statistics`,
  Section 3), and
* per-variable heavy-hitter frequency vectors ``m_j(h)``
  (:class:`HitterStatistics`, the x-statistics of Section 4.2 -- at
  most ``p`` values per relation, "an O(p) amount of information").

:class:`DataStatistics` bundles the two.  Cost models consume it; no
strategy is executed to produce a cost estimate.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.query import ConjunctiveQuery
from repro.core.stats import Statistics
from repro.data.database import Database
from repro.skew.heavy_hitters import HitterStatistics
from repro.storage.chunked import iter_array_chunks


@dataclass(frozen=True)
class DataStatistics:
    """Cardinalities plus per-variable heavy-hitter frequency vectors.

    ``hitters[v]`` holds the frequency vectors ``m_j(h)`` of variable
    ``v`` over the relations containing it, restricted to values at or
    above the detection threshold (``m_j / p`` by default).  An empty
    ``hitters`` map encodes "cardinalities only" -- the planner then
    prices every strategy with its skew-free formula.
    """

    stats: Statistics
    hitters: Mapping[str, HitterStatistics] = field(default_factory=dict)
    #: Whether the hitter vectors came from exact frequency scans
    #: (:meth:`from_database`) rather than row samples
    #: (:meth:`from_sample`).  Consumers that need exact counts -- the
    #: triangle executor's threshold classification -- only reuse exact
    #: vectors and re-scan otherwise.
    exact: bool = True

    @property
    def query(self) -> ConjunctiveQuery:
        return self.stats.query

    @classmethod
    def from_database(
        cls,
        query: ConjunctiveQuery,
        database: Database,
        p: int,
    ) -> "DataStatistics":
        """Collect cardinalities and all per-variable hitter vectors.

        Detection is exact with the per-relation threshold ``m_j / p``
        -- the same convention the skew-aware executors use, so
        predictions and executions see the same heavy hitters.
        """
        stats = database.statistics(query)
        hitters = {
            v: HitterStatistics.from_database(query, database, v, 1.0, p)
            for v in query.variables
        }
        return cls(stats, hitters)

    @classmethod
    def from_sample(
        cls,
        query: ConjunctiveQuery,
        database: Database,
        p: int,
        sample_rows: int = 4096,
        seed: int = 0,
    ) -> "DataStatistics":
        """Cardinalities exact, hitter vectors estimated from samples.

        The sampled counterpart of :meth:`from_database` for when a
        full frequency scan is too expensive (the paper notes the
        x-statistics "can be easily obtained from small samples of the
        input").  One uniform row sample of ``sample_rows`` rows per
        relation feeds every variable's estimate.
        """
        stats = database.statistics(query)
        hitters = {
            v: sample_heavy_hitters(
                query, database, v, p, sample_rows=sample_rows, seed=seed
            )
            for v in query.variables
        }
        return cls(stats, hitters, exact=False)

    @classmethod
    def coerce(
        cls,
        query: ConjunctiveQuery,
        source: "DataStatistics | Statistics | Database",
        p: int,
    ) -> "DataStatistics":
        """Accept any of the three statistics carriers ``plan()`` takes."""
        if isinstance(source, DataStatistics):
            return source
        if isinstance(source, Database):
            return cls.from_database(query, source, p)
        if isinstance(source, Statistics):
            return cls(source)
        raise TypeError(
            "expected DataStatistics, Statistics or Database, got "
            f"{type(source).__name__}"
        )

    def frequency(self, variable: str, relation: str, value: int) -> int:
        """``m_relation(value)`` on ``variable`` (0 when unknown/light)."""
        stats_v = self.hitters.get(variable)
        if stats_v is None:
            return 0
        return stats_v.frequency(relation, value)

    def frequency_maps(self) -> dict[str, dict[str, dict[int, int]]]:
        """``variable -> relation -> value -> frequency`` (hitters only)."""
        return {
            v: {rel: dict(freqs) for rel, freqs in stats_v.frequencies.items()}
            for v, stats_v in self.hitters.items()
        }


def sample_heavy_hitters(
    query: ConjunctiveQuery,
    database: Database,
    variable: str,
    p: int,
    sample_rows: int = 4096,
    seed: int = 0,
) -> HitterStatistics:
    """Estimate one variable's :class:`HitterStatistics` from row samples.

    For every relation containing ``variable``, draw ``sample_rows``
    rows uniformly with replacement (chunk-aware, so chunked relations
    are never materialized), scale each sampled value's count by
    ``m / sample_rows``, and keep values whose estimate reaches half
    the exact detector's threshold ``m / p``.  That slack trades a few
    false positives (light values that cost a constant factor of
    servers downstream) for a low false-negative rate: a value exactly
    at the threshold has expected sample count ``sample_rows / p``,
    and Chernoff puts its chance of estimating below half of that at
    ``exp(-sample_rows / (8 p))``.

    Estimated frequencies are rounded to ints so the result is a
    drop-in for the exact :meth:`HitterStatistics.from_database` --
    the planner's cost models and the skew-aware executors consume
    either interchangeably.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if sample_rows < 1:
        raise ValueError("sample_rows must be >= 1")
    rng = np.random.default_rng(seed)
    frequencies: dict[str, dict[int, int]] = {}
    for atom in query.atoms:
        if variable not in atom.variable_set:
            continue
        relation = database[atom.relation]
        m = len(relation)
        if m == 0:
            frequencies[atom.relation] = {}
            continue
        position = atom.variables.index(variable)
        index = np.sort(rng.integers(0, m, size=sample_rows))
        sampled = _gather_column(relation, position, index)
        values, counts = np.unique(sampled, return_counts=True)
        estimates = counts * (m / sample_rows)
        threshold = max(m / p, 1e-12)
        keep = estimates >= 0.5 * threshold
        frequencies[atom.relation] = {
            int(v): int(round(e))
            for v, e in zip(values[keep], estimates[keep])
        }
    return HitterStatistics(query, variable, frequencies)


def _gather_column(relation, position: int, sorted_index: np.ndarray) -> np.ndarray:
    """Values of one column at sorted row indices, one chunk at a time."""
    out = np.empty(len(sorted_index), dtype=np.int64)
    start = 0  # first row id of the current chunk
    taken = 0
    for chunk in iter_array_chunks(relation, None):
        stop = start + len(chunk)
        hi = np.searchsorted(sorted_index, stop, side="left")
        if hi > taken:
            rows = sorted_index[taken:hi] - start
            out[taken:hi] = np.asarray(chunk[:, position])[rows]
            taken = hi
        start = stop
    return out


# Planning and running against the same DataStatistics (EXPLAIN, then
# execute; a batch sharing ``stats``) do the expensive estimation work
# once -- the LP (10) solve, plan enumeration + per-round costing -- in
# a per-DataStatistics memo that evicts itself when the statistics
# object is garbage-collected.
_ESTIMATE_CACHE: dict[int, dict] = {}


def memoized(dstats, key, compute):
    """``compute()``, cached per ``dstats`` under ``key``."""
    bucket = _ESTIMATE_CACHE.get(id(dstats))
    if bucket is None:
        try:
            weakref.finalize(dstats, _ESTIMATE_CACHE.pop, id(dstats), None)
        except TypeError:
            return compute()
        bucket = _ESTIMATE_CACHE[id(dstats)] = {}
    if key not in bucket:
        bucket[key] = compute()
    return bucket[key]
