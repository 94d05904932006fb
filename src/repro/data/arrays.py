"""Fast row-wise primitives for ``(n, arity)`` integer arrays.

``np.unique(..., axis=0)`` sorts through a void-dtype view, which is
several times slower than a key-wise ``lexsort`` for the narrow int64
arrays relations are made of.  These helpers provide the row
operations the columnar backend needs -- canonical deduplication,
dictionary encoding and the frequency scan :func:`column_counts` --
built on ``lexsort``, with a fast 1-column path.

All functions order rows lexicographically (first column primary),
matching ``np.unique(axis=0)`` and :meth:`Relation.to_array`'s canonical
layout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def repeated_binding_filter(
    variables: "list[str] | tuple[str, ...]", rows: np.ndarray
) -> tuple[dict[str, int], np.ndarray | None]:
    """First column per variable, and a mask keeping consistent rows.

    For an atom binding ``variables`` positionally (repeats allowed),
    returns ``(first_position, mask)`` where ``first_position`` maps
    each distinct variable to its first column and ``mask`` flags the
    rows whose repeated-variable columns all agree (e.g. ``S(x, x)``
    keeps only rows with equal columns).  ``mask`` is ``None`` when no
    variable repeats, so callers can skip the row copy entirely.
    """
    first_position: dict[str, int] = {}
    mask: np.ndarray | None = None
    for position, variable in enumerate(variables):
        first = first_position.setdefault(variable, position)
        if first != position:
            agree = rows[:, first] == rows[:, position]
            mask = agree if mask is None else (mask & agree)
    return first_position, mask


def _row_order(rows: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically (first column primary)."""
    return np.lexsort(rows.T[::-1])


def _row_changed(sorted_rows: np.ndarray) -> np.ndarray:
    """Boolean mask: row i differs from row i-1 (first row counts as new)."""
    new = np.empty(len(sorted_rows), dtype=bool)
    new[0] = True
    np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1, out=new[1:])
    return new


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order (fast ``unique(axis=0)``)."""
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"need a 2-D (n, arity) array, got shape {rows.shape}")
    if len(rows) <= 1:
        return rows.copy()
    if rows.shape[1] == 1:
        return np.unique(rows[:, 0])[:, None]
    sorted_rows = rows[_row_order(rows)]
    return sorted_rows[_row_changed(sorted_rows)]


def unique_rows_with_counts(
    rows: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows plus multiplicities, in lexicographic order.

    With ``weights`` (one int per row) a row counts ``weights[i]`` times
    instead of once, which merges partial ``(rows, counts)`` scans.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"need a 2-D (n, arity) array, got shape {rows.shape}")
    if len(rows) == 0:
        return rows.copy(), np.empty(0, dtype=np.int64)
    order = _row_order(rows)
    sorted_rows = rows[order]
    starts = np.flatnonzero(_row_changed(sorted_rows))
    if weights is None:
        counts = np.diff(np.append(starts, len(sorted_rows)))
    else:
        counts = np.add.reduceat(np.asarray(weights)[order], starts)
    return sorted_rows[starts], counts


def column_counts(
    rows: np.ndarray,
    positions: Sequence[int],
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The frequency scan: distinct keys over ``positions`` and their counts.

    Returns ``(keys, counts)``: the distinct ``(k, len(positions))`` key
    rows in lexicographic order and, per key ``J``, the number of rows
    agreeing with it -- the paper's degree ``d_J(R)``.  ``weights`` is as
    in :func:`unique_rows_with_counts`.  Every degree, heavy-hitter and
    matching check in the package reads from this one scan.
    """
    rows = np.asarray(rows)
    keys = rows[:, list(positions)]
    if keys.shape[1] == 1 and weights is None:
        values, counts = np.unique(keys[:, 0], return_counts=True)
        return values[:, None], counts
    if keys.shape[1] == 0 and len(keys):
        # The empty key matches every row: d_()(R) = |R|.
        total = len(keys) if weights is None else int(np.sum(weights))
        return keys[:1], np.array([total], dtype=np.int64)
    return unique_rows_with_counts(keys, weights)


def encode_rows(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Dictionary-encode rows: ``(ids, num_distinct)``.

    Equal rows receive equal ids in ``[0, num_distinct)``; ids follow
    the rows' lexicographic rank.  Equivalent to the ``return_inverse``
    of ``np.unique(axis=0)`` without materializing the distinct rows.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"need a 2-D (n, arity) array, got shape {rows.shape}")
    n = len(rows)
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    if rows.shape[1] == 1:
        uniq, inverse = np.unique(rows[:, 0], return_inverse=True)
        return inverse.reshape(-1).astype(np.int64, copy=False), len(uniq)
    order = _row_order(rows)
    sorted_rows = rows[order]
    group_of_sorted = np.cumsum(_row_changed(sorted_rows)) - 1
    ids = np.empty(n, dtype=np.int64)
    ids[order] = group_of_sorted
    return ids, int(group_of_sorted[-1]) + 1
