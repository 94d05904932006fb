"""Vectorized multiway join over columnar (ndarray) fragments.

Every server's local computation phase: evaluate a full conjunctive
query over ``(n, arity)`` integer arrays keyed by relation name,
entirely with NumPy primitives.  The plan is a greedy left-deep
sequence of binary joins -- each step joins the running intermediate
with the next atom sharing a variable, falling back to a cross product
(a join on one constant key) only when the residual query is
disconnected from the atoms joined so far.

The intermediate is materialised late.  It keeps, per joined atom, the
atom's rows and a vector of row ids, one per intermediate row; a join
step returns ``(left_ids, right_ids)`` and only composes id vectors.
Join keys are packed per atom on its own rows, then gathered through
its ids; the head is gathered once, straight into the ``(n, k)``
result.

One step, :func:`join_step`, serves every join.  The composite keys of
both sides live in one non-negative int64 id space -- columns offset by
their minimum and packed, or dense lexicographic ranks when the packed
key would exceed 62 bits (:func:`repro.data.arrays.row_keys`).  How the
step groups keys depends only on the data:

* a key span of at most ``4 * (n_left + n_right)`` is *dense*: the
  right side's group start and size per key come from ``bincount`` and
  ``cumsum``, and each left row looks its group up directly, unsorted;
* a wider span takes a sort-merge: both sides sorted by key, one
  sorted ``searchsorted`` finds each left row's group;
* an atom that binds no new variable (the triangle's closing atom)
  only *filters* the intermediate: a multiplicative-hash bitmap admits
  candidates, each then checked exactly against the sorted right keys
  (a slot collision costs time, never correctness).

Pairs are enumerated with ``cumsum`` offset arithmetic.  A natural
join of sets has distinct answers, and the dense join and the filter
keep the left side's order and emit each left row's right matches in
stable order; so when the first atom is canonical the answers mostly
come out canonical too.  One linear check
(:func:`repro.data.arrays.is_canonical`) proves it, and only answers it
rejects take the final row-wise ``unique``.  Join keys already sorted,
such as a prefix of a canonical atom, skip their sort the same way.  No
Python work per tuple, and inputs are never written to (spill chunks
arrive as read-only memmaps).

Queries with isolated variables have no join plan and raise
:class:`~repro.core.query.UnsupportedQueryError`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.query import Atom, ConjunctiveQuery
from repro.data.arrays import (
    group_order,
    int64_rows,
    is_canonical,
    is_nondecreasing,
    key_layout,
    repeated_binding_filter,
    row_keys,
    stable_order,
    unique_rows,
)

#: Fibonacci hashing multiplier: ``2**64`` over the golden ratio.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def atom_projection(atom: Atom, rows: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Consistent rows of ``rows`` projected to the atom's distinct variables.

    Rows that bind a repeated variable to two different values (e.g.
    ``S(x, x)`` with row ``(1, 2)``) match nothing and are dropped; the
    surviving rows keep one column per distinct variable, in first
    occurrence order.  An int64 fragment of an atom with no repeated
    variable comes back as is, not copied.  Raises ``TypeError`` for a
    non-integer fragment and ``ValueError`` for a value int64 cannot hold.
    """
    if rows.ndim != 2 or rows.shape[1] != atom.arity:
        raise ValueError(
            f"fragment for {atom.relation} has shape {rows.shape}, "
            f"expected (n, {atom.arity})"
        )
    rows = int64_rows(rows, f"fragment for {atom.relation}")
    first_position, mask = repeated_binding_filter(atom.variables, rows)
    schema = tuple(first_position)
    if mask is None:
        return rows, schema
    # Dropping repeated columns can introduce duplicate rows; later joins
    # assume duplicate-free inputs (natural join of sets).
    return unique_rows(rows[mask][:, [first_position[v] for v in schema]]), schema


# ------------------------------------------------------------------ the step


def _pairs(
    left_rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray, right_order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of left row ``left_rows[i]`` with each right row of
    ``right_order[starts[i]:starts[i] + sizes[i]]``."""
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if len(ends) else 0
    # Pair t (counted over all pairs) of left row i takes the right row
    # at right_order[starts[i] + t - (ends[i] - sizes[i])].
    positions = np.repeat(starts - ends + sizes, sizes)
    positions += np.arange(total)
    right_ids = right_order[positions]
    del positions
    return np.repeat(left_rows, sizes), right_ids


def _dense_join(
    left_keys: np.ndarray, right_keys: np.ndarray, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """Direct addressing: per key, its right group's start and size."""
    sizes = np.bincount(right_keys, minlength=span)
    starts = np.cumsum(sizes)
    starts -= sizes
    return _pairs(
        np.arange(len(left_keys)), starts[left_keys], sizes[left_keys],
        stable_order(right_keys),
    )


def _merge_join(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort-merge: one sorted search finds each left row's group."""
    right_order, group_starts = group_order(right_keys)
    group_keys = right_keys[right_order[group_starts]]
    left_order = stable_order(left_keys)
    sorted_left = left_keys[left_order]
    group = np.minimum(np.searchsorted(group_keys, sorted_left), len(group_keys) - 1)
    matched = group_keys[group] == sorted_left
    group = group[matched]
    sizes = np.diff(group_starts, append=len(right_keys))[group]
    return _pairs(left_order[matched], group_starts[group], sizes, right_order)


def _hash_slots(keys: np.ndarray, bits: int) -> np.ndarray:
    """Multiplicative hash of non-negative int64 ``keys`` into ``[0, 2**bits)``."""
    slots = np.multiply(keys.view(np.uint64), _HASH_MULTIPLIER)
    slots >>= np.uint64(64 - bits)
    return slots.view(np.int64)  # int64 indexes several times faster than uint64


def _hashed_filter(left_keys: np.ndarray, right_keys: np.ndarray) -> np.ndarray:
    """Semijoin: a hashed bitmap admits candidates, and only those are
    checked exactly against the sorted right keys (sorted here only if
    they are not already)."""
    bits = (4 * (len(left_keys) + len(right_keys)) - 1).bit_length()
    table = np.zeros(1 << bits, dtype=bool)
    table[_hash_slots(right_keys, bits)] = True
    candidates = np.flatnonzero(table[_hash_slots(left_keys, bits)])
    if len(candidates) == 0:
        return candidates
    wanted = left_keys[candidates]
    right_sorted = right_keys if is_nondecreasing(right_keys) else np.sort(right_keys)
    found = np.minimum(np.searchsorted(right_sorted, wanted), len(right_sorted) - 1)
    return candidates[right_sorted[found] == wanted]


def join_step(
    left_keys: np.ndarray, right_keys: np.ndarray, binds_new: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """One equi-join step on non-negative int64 keys: ``(left_ids, right_ids)``.

    Returns the row ids of every matching (left row, right row) pair.
    When the right side binds no new variable (``binds_new`` false) the
    step is a semijoin: ``left_ids`` lists each matching left row once,
    in input order, and ``right_ids`` is ``None``.
    """
    n_left, n_right = len(left_keys), len(right_keys)
    if n_left == 0 or n_right == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, (empty if binds_new else None)
    if not binds_new:
        return _hashed_filter(left_keys, right_keys), None
    span = int(max(left_keys.max(), right_keys.max())) + 1
    if span <= 4 * (n_left + n_right):
        return _dense_join(left_keys, right_keys, span)
    return _merge_join(left_keys, right_keys)


# ---------------------------------------------------------- the intermediate


class _Intermediate:
    """Late-materialised join rows.

    ``sources`` holds, per joined atom, its rows and a row-id vector
    (``None``: every row, in order); ``where`` maps each bound variable
    to ``(source, column)``.
    """

    def __init__(self, rows: np.ndarray, schema: tuple[str, ...]):
        self.sources: list[tuple[np.ndarray, np.ndarray | None]] = [(rows, None)]
        self.where = {v: (0, column) for column, v in enumerate(schema)}
        self.size = len(rows)

    def _column(self, variable: str) -> np.ndarray:
        source, column = self.where[variable]
        rows, ids = self.sources[source]
        return rows[:, column] if ids is None else rows[ids, column]

    def _keys(
        self, rows: np.ndarray, schema: tuple[str, ...], shared: list[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Join keys on ``shared`` of the intermediate and of ``rows``.

        Each source's part of the packed key is computed on its own rows
        and gathered once through its ids; keys too wide to pack are
        ranked on the gathered columns instead.  Without shared variables,
        or with an empty side, every key is 0.
        """
        if not shared or self.size == 0 or len(rows) == 0:
            return np.zeros(self.size, dtype=np.int64), np.zeros(len(rows), dtype=np.int64)
        owners = [self.where[v] for v in shared]
        bases = [self.sources[source][0][:, column] for source, column in owners]
        right = [rows[:, schema.index(v)] for v in shared]
        layout = key_layout(zip(bases, right))
        if layout is None:
            left_keys, right_keys = row_keys(
                np.column_stack([self._column(v) for v in shared]), np.column_stack(right)
            )
            return left_keys, right_keys
        lows, widths = layout
        shift = sum(widths)
        parts: dict[int, np.ndarray] = {}
        right_keys = np.zeros(len(rows), dtype=np.int64)
        for (source, _), base, column, low, width in zip(owners, bases, right, lows, widths):
            shift -= width
            part = base - low
            part <<= shift
            parts[source] = part if source not in parts else (parts[source] | part)
            column = column - low
            column <<= shift
            right_keys |= column
        left_keys = np.zeros(self.size, dtype=np.int64)
        for source, part in parts.items():
            ids = self.sources[source][1]
            left_keys |= part if ids is None else part[ids]
        return left_keys, right_keys

    def join(self, rows: np.ndarray, schema: tuple[str, ...]) -> None:
        """Join with an atom's ``rows``; only the id vectors change."""
        shared = [v for v in schema if v in self.where]
        new = [(v, column) for column, v in enumerate(schema) if v not in self.where]
        left_ids, right_ids = join_step(*self._keys(rows, schema, shared), bool(new))
        self.sources = [
            (base, left_ids if ids is None else ids[left_ids]) for base, ids in self.sources
        ]
        if new:
            self.sources.append((rows, right_ids))
            self.where.update((v, (len(self.sources) - 1, column)) for v, column in new)
        self.size = len(left_ids)

    def gather(self, variables: Sequence[str]) -> np.ndarray:
        """The ``(n, len(variables))`` rows, gathered straight into the
        result.  Each id vector is released once its columns are out, so
        the intermediate is spent afterwards."""
        out = np.empty((self.size, len(variables)), dtype=np.int64, order="F")
        sources, self.sources = self.sources, []
        for source in range(len(sources)):
            rows, ids = sources[source]
            sources[source] = (rows, None)
            for j, v in enumerate(variables):
                owner, column = self.where[v]
                if owner == source and ids is None:
                    out[:, j] = rows[:, column]
                elif owner == source:
                    # The ids are in range; "clip" lets take write into
                    # out directly instead of through a buffer.
                    np.take(rows[:, column], ids, out=out[:, j], mode="clip")
        return out


def join_arrays(
    left: np.ndarray,
    left_schema: tuple[str, ...],
    right: np.ndarray,
    right_schema: tuple[str, ...],
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Natural join of two schema-tagged integer arrays on their shared variables.

    Returns ``(rows, schema)`` with the left schema followed by the
    right's new variables: :func:`join_step`, materialised.  A right
    side that binds no new variable filters the left rows; with no
    shared variables the join is the cross product.
    """
    left_schema, right_schema = tuple(left_schema), tuple(right_schema)
    out_schema = left_schema + tuple(v for v in right_schema if v not in left_schema)
    joined = _Intermediate(int64_rows(np.asarray(left), "left side"), left_schema)
    joined.join(int64_rows(np.asarray(right), "right side"), right_schema)
    return joined.gather(out_schema), out_schema


def evaluate_arrays(
    query: ConjunctiveQuery, fragments: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Evaluate ``query`` over array fragments keyed by relation name.

    Returns the distinct answers as a ``(n, k)`` int64 array whose
    columns follow ``query.variables`` (the head order).  Missing
    relations are treated as empty.  Raises
    :class:`~repro.core.query.UnsupportedQueryError` for queries with
    isolated variables, which no join plan can bind, and
    :func:`atom_projection`'s errors for a fragment that is not integer.
    The result is always a new array, never one of the fragments.
    """
    query.require_executable()
    head = query.variables
    if query.num_atoms == 0:
        return np.empty((1, 0), dtype=np.int64)

    prepared: list[tuple[np.ndarray, tuple[str, ...]]] = []
    for atom in query.atoms:
        rows = fragments.get(atom.relation)
        if rows is None:
            rows = np.empty((0, atom.arity), dtype=np.int64)
        prepared.append(atom_projection(atom, np.asarray(rows)))

    # Greedy left-deep order: always prefer an atom sharing a variable
    # with the current schema (connected growth avoids mid-join
    # Cartesian blowup); fall back to a cross product between
    # components.
    remaining = list(range(len(prepared)))
    joined = _Intermediate(*prepared[remaining.pop(0)])
    while remaining:
        choice = next(
            (idx for idx in remaining if any(v in joined.where for v in prepared[idx][1])),
            remaining[0],
        )
        remaining.remove(choice)
        joined.join(*prepared[choice])
        if joined.size == 0:
            return np.empty((0, len(head)), dtype=np.int64)
    answers = joined.gather(head)
    return answers if is_canonical(answers) else unique_rows(answers)
