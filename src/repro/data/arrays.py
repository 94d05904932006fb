"""Fast row-wise primitives for ``(n, arity)`` integer arrays.

One kernel orders rows: every column is offset by its minimum and the
columns are packed, first column most significant, into a single
non-negative int64 per row (:func:`row_keys`).  The packing preserves
both equality and lexicographic order, so deduplication, counting,
dictionary encoding and join-key matching all become a sort of a 1-D
int64 array (numpy's vectorised sort) plus a shift-and-mask unpack --
an order of magnitude faster than a multi-key ``np.lexsort`` or
``np.unique(axis=0)``.  Whether rows fit is a property of the data
(``sum(bit_length(max - min)) <= 62``, spans taken in Python ints so
nothing wraps); rows that do not fit, and dtypes that do not cast safely
to int64, take the ``lexsort`` path with identical results.  The same
trick gives a stable argsort: :func:`stable_order` sorts
``(key << index_bits) | position``.

All functions order rows lexicographically (first column primary),
matching ``np.unique(axis=0)`` and :meth:`Relation.to_array`'s canonical
layout.  Inputs are never written to (spill chunks arrive as read-only
memmaps).

Canonical order -- lexicographic and strictly increasing, so distinct --
is an invariant the package carries rather than recomputes: a relation's
array is canonical, routing keeps each server's batch in input order
(so canonical in, canonical out), and the local join mostly emits its
answers in that order too.  :func:`is_canonical` proves it in one
linear pass of neighbour comparisons, and work it proves done is
skipped: :func:`merge_batches` returns canonical input as is, and
:func:`stable_order` returns the identity for non-decreasing keys.
Both order checks look at a short prefix first, so input that is out of
order near its start is rejected without the full pass.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

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


#: Packed keys stay below ``2**62``: non-negative in int64 with a bit to
#: spare, so sums and comparisons of keys never wrap.
_KEY_BITS = 62
#: Neighbour pairs the order checks test before their full pass.
_PROBE = 64

_Layout = tuple[list[int], list[int]]


def _as_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"need a 2-D (n, arity) array, got shape {rows.shape}")
    return rows


def int64_rows(rows: np.ndarray, what: str) -> np.ndarray:
    """``rows`` as int64 (no copy when already int64): the one admission
    check for integer input.  Raises ``TypeError`` for a non-integer
    dtype and ``ValueError`` for a value above the int64 maximum (uint64
    values that fit are kept)."""
    if rows.dtype.kind not in "iu":
        raise TypeError(f"{what} needs an integer array, got dtype {rows.dtype}")
    if (
        not np.can_cast(rows.dtype, np.int64)
        and rows.size
        and int(rows.max()) > np.iinfo(np.int64).max
    ):
        raise ValueError(f"{what} has values above the int64 maximum")
    return rows.astype(np.int64, copy=False)


def _prefix_first(test: Callable[[np.ndarray], bool], values: np.ndarray) -> bool:
    """``test`` on a short prefix of ``values``, then on all of them.

    Input out of order near its start -- the router's destination
    servers, or join outputs a merge join reordered -- fails the prefix
    and costs no full pass.
    """
    return test(values[: _PROBE + 1]) and (len(values) <= _PROBE + 1 or test(values))


def _rows_increasing(rows: np.ndarray) -> bool:
    later, earlier = rows[1:], rows[:-1]
    greater = later[:, -1] > earlier[:, -1]
    for col in range(rows.shape[1] - 2, -1, -1):
        greater &= later[:, col] == earlier[:, col]
        greater |= later[:, col] > earlier[:, col]
    return bool(greater.all())


def is_canonical(rows: np.ndarray) -> bool:
    """Whether ``rows`` are in canonical order: lexicographically strictly
    increasing, hence sorted and distinct.

    One comparison of each row with the one before it, a column at a
    time from last to first; any integer or bool dtype, any width.
    Zero-column rows are all equal, so two or more are not canonical.
    """
    rows = _as_rows(rows)
    n, arity = rows.shape
    if n < 2:
        return True
    if arity == 0:
        return False
    return _prefix_first(_rows_increasing, rows)


def is_nondecreasing(keys: np.ndarray) -> bool:
    """Whether 1-D ``keys`` are already sorted (ties allowed)."""
    return _prefix_first(lambda k: bool((k[1:] >= k[:-1]).all()), keys)


def key_layout(columns: Iterable[Sequence[np.ndarray]]) -> _Layout | None:
    """Per key column ``(minimums, bit widths)`` covering every value of
    its (non-empty) arrays, or None if the packed key would exceed
    :data:`_KEY_BITS`."""
    lows: list[int] = []
    widths: list[int] = []
    for arrays in columns:
        low = min(int(a.min()) for a in arrays)
        lows.append(low)
        widths.append((max(int(a.max()) for a in arrays) - low).bit_length())
    return (lows, widths) if sum(widths) <= _KEY_BITS else None


def _layout(*arrays: np.ndarray) -> _Layout | None:
    """Per-column ``(minimums, bit widths)`` packing every row of the
    (non-empty, equal-arity) ``arrays`` into one key, or None if too wide."""
    if not all(np.can_cast(a.dtype, np.int64) for a in arrays):
        return None
    return key_layout([a[:, col] for a in arrays] for col in range(arrays[0].shape[1]))


def _pack(rows: np.ndarray, layout: _Layout) -> np.ndarray:
    keys = np.zeros(len(rows), dtype=np.int64)
    for col, (low, width) in enumerate(zip(*layout)):
        keys <<= width
        keys |= rows[:, col].astype(np.int64, copy=False) - low
    return keys


def _unpack(keys: np.ndarray, layout: _Layout, dtype: np.dtype) -> np.ndarray:
    lows, widths = layout
    rows = np.empty((len(keys), len(widths)), dtype=dtype)
    shift = sum(widths)
    for col, (low, width) in enumerate(zip(lows, widths)):
        shift -= width
        rows[:, col] = ((keys >> shift) & ((1 << width) - 1)) + low
    return rows


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Positions in sorted keys/rows where the item differs from the one before."""
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    differs = ordered[1:] != ordered[:-1]
    new[1:] = differs if differs.ndim == 1 else differs.any(axis=1)
    return np.flatnonzero(new)


def _ordered_runs(
    rows: np.ndarray, layout: _Layout | None
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: a permutation sorting ``rows`` and the positions
    in it where a new distinct row begins."""
    if layout is not None:
        return group_order(_pack(rows, layout))
    order = np.lexsort(rows.T[::-1])
    return order, _run_starts(rows[order])


def row_keys(*arrays: np.ndarray) -> list[np.ndarray]:
    """One non-negative int64 key per row, in one id space for all ``arrays``.

    Keys compare exactly like the rows they stand for, within and across
    the (non-empty, equal-arity) arrays: packed keys when the rows fit,
    dense lexicographic ranks otherwise.
    """
    layout = _layout(*arrays)
    if layout is not None:
        return [_pack(a, layout) for a in arrays]
    ids, _ = encode_rows(np.concatenate(arrays, axis=0))
    return np.split(ids, np.cumsum([len(a) for a in arrays[:-1]]))


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of integer ``keys``: ties keep their input order.

    Sorting ``(key << index_bits) | position`` is stable by construction
    and runs on the plain 1-D sort; keys that are negative or too wide
    for the tag fall back to ``argsort(kind="stable")``.  Keys already
    non-decreasing are their own order: the identity, with no sort.
    """
    n = len(keys)
    if is_nondecreasing(keys):
        return np.arange(n)
    index_bits = (n - 1).bit_length()
    if keys.min() < 0 or (
        int(keys.max()).bit_length() + index_bits > _KEY_BITS
    ):
        return np.argsort(keys, kind="stable")
    tagged = keys.astype(np.int64)  # a copy: the input is never written to
    tagged <<= index_bits
    tagged |= np.arange(n)
    tagged.sort()
    tagged &= (1 << index_bits) - 1
    return tagged


def group_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: the stable argsort of 1-D integer ``keys`` and
    the positions in it where each run of equal keys begins."""
    order = stable_order(keys)
    return order, _run_starts(keys[order])


def _distinct_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of non-empty ``rows`` in lexicographic order, and the
    position in the sorted rows where each one's run begins."""
    layout = _layout(rows)
    if layout is not None:
        keys = np.sort(_pack(rows, layout))
        starts = _run_starts(keys)
        return _unpack(keys[starts], layout, rows.dtype), starts
    order, starts = _ordered_runs(rows, None)
    return rows[order[starts]], starts


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order (fast ``unique(axis=0)``),
    always a new array."""
    rows = _as_rows(rows)
    if len(rows) == 0:
        return rows.copy()
    return _distinct_runs(rows)[0]


def merge_batches(batches: Sequence[np.ndarray]) -> np.ndarray:
    """The deduplicated union of one or more row batches, canonically
    ordered -- how every fragment and output merge in the package is done.

    Rows already canonical come back without a sort: one batch as the
    same object, several as their concatenation.  Callers must not write
    to the result.
    """
    rows = batches[0] if len(batches) == 1 else np.concatenate(batches, axis=0)
    return rows if is_canonical(rows) else unique_rows(rows)


def unique_rows_with_counts(
    rows: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows plus multiplicities, in lexicographic order.

    With ``weights`` (one int per row) a row counts ``weights[i]`` times
    instead of once, which merges partial ``(rows, counts)`` scans.
    """
    rows = _as_rows(rows)
    if len(rows) == 0:
        return rows.copy(), np.empty(0, dtype=np.int64)
    if weights is None:
        distinct, starts = _distinct_runs(rows)
        return distinct, np.diff(starts, append=len(rows))
    order, starts = _ordered_runs(rows, _layout(rows))
    return rows[order[starts]], np.add.reduceat(np.asarray(weights)[order], starts)


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
    keys = np.asarray(rows)[:, list(positions)]
    return unique_rows_with_counts(keys, weights)


def encode_rows(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Dictionary-encode rows: ``(ids, num_distinct)``.

    Equal rows receive equal ids in ``[0, num_distinct)``; ids follow
    the rows' lexicographic rank.  Equivalent to the ``return_inverse``
    of ``np.unique(axis=0)`` without materializing the distinct rows.
    """
    rows = _as_rows(rows)
    ids = np.empty(len(rows), dtype=np.int64)
    if len(rows) == 0:
        return ids, 0
    order, starts = _ordered_runs(rows, _layout(rows))
    ids[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(rows)))
    return ids, len(starts)
