"""Heavy-hitter detection (paper Section 4 preliminaries).

A value ``h`` is a heavy hitter of variable ``z`` in relation ``S_j``
when its frequency ``m_j(h) = |sigma_{z=h}(S_j)|`` reaches a threshold
(typically ``m_j / p``).  At most ``p`` values can be heavy per
relation, so "an O(p) amount of information can easily be stored" on
every server; the paper assumes it is known in advance and notes it
"can be easily obtained from small samples of the input", which the
planner's :func:`repro.planner.statistics.sample_heavy_hitters` does
(:meth:`~repro.planner.statistics.DataStatistics.from_sample`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.query import ConjunctiveQuery
from repro.data.arrays import unique_rows
from repro.data.database import Database
from repro.data.relation import Relation


def detect_heavy_hitters(
    relation: Relation, position: int, threshold: float
) -> dict[int, int]:
    """Exact heavy hitters of one attribute: ``value -> frequency``."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return relation.heavy_hitters(position, threshold)


def variable_frequencies(
    query: ConjunctiveQuery, database: Database, variable: str
) -> dict[int, int]:
    """Max frequency of each value of ``variable`` over the atoms using it.

    The triangle algorithm calls a value of ``x`` heavy when it is heavy
    "in at least one of the two relations they belong to"; this helper
    computes that max-frequency view for any variable.
    """
    scans = [
        database[atom.relation].key_counts((atom.variables.index(variable),))
        for atom in query.atoms
        if variable in atom.variable_set
    ]
    if not scans:
        return {}
    values = np.concatenate([keys[:, 0] for keys, _ in scans])
    counts = np.concatenate([scan_counts for _, scan_counts in scans])
    # Sort by (value, count): the last row of each value run holds its max.
    values, counts = unique_rows(np.column_stack([values, counts])).T
    last = np.ones(len(values), dtype=bool)
    last[:-1] = values[1:] != values[:-1]
    return dict(zip(values[last].tolist(), counts[last].tolist()))


@dataclass
class HitterStatistics:
    """Per-relation frequency vectors ``m_j(h)`` for one variable.

    This is the paper's *x-statistics* specialized to a single variable
    (the star query's ``z``): ``frequencies[rel][h] = m_rel(h)``.
    """

    query: ConjunctiveQuery
    variable: str
    frequencies: dict[str, dict[int, int]] = field(default_factory=dict)

    @classmethod
    def from_database(
        cls,
        query: ConjunctiveQuery,
        database: Database,
        variable: str,
        threshold_fraction: float,
        p: int,
    ) -> "HitterStatistics":
        """Collect hitters with ``m_j(h) >= threshold_fraction * m_j / p``."""
        if p < 1:
            raise ValueError("p must be >= 1")
        frequencies: dict[str, dict[int, int]] = {}
        for atom in query.atoms:
            if variable not in atom.variable_set:
                continue
            relation = database[atom.relation]
            threshold = threshold_fraction * len(relation) / p
            position = atom.variables.index(variable)
            frequencies[atom.relation] = detect_heavy_hitters(
                relation, position, max(threshold, 1e-12)
            )
        return cls(query, variable, frequencies)

    @property
    def hitters(self) -> tuple[int, ...]:
        """All values heavy in at least one relation (sorted)."""
        out: set[int] = set()
        for freq in self.frequencies.values():
            out |= set(freq)
        return tuple(sorted(out))

    def frequency(self, relation: str, value: int) -> int:
        return self.frequencies.get(relation, {}).get(value, 0)
