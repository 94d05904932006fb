"""Vectorized multiway join over columnar (ndarray) fragments.

Every server's local computation phase: evaluate a
full conjunctive query over ``(n, arity)`` integer arrays keyed by
relation name, entirely with NumPy primitives.  The plan is a greedy
left-deep sequence of binary joins -- each step joins the running
intermediate (an array plus its variable schema) with the next atom
sharing a variable, falling back to a cross product only when the
residual query is disconnected from the atoms joined so far.

Equality joins are sort-merge joins on packed keys: the composite join
keys of both sides are packed into one int64 id space
(:func:`repro.data.arrays.row_keys`), both sides are sorted by key, one
sorted ``searchsorted`` finds each left row's group of matching right
rows, and the pairs are enumerated with ``cumsum`` offset arithmetic.
An atom that binds no new variable (the triangle's closing atom) only
*filters* the running intermediate -- a semijoin, no pairs enumerated.
Set semantics are restored with a final row-wise ``unique``.
O(n log n), no Python-level per-tuple work.

Queries with isolated variables have no join plan and raise
:class:`~repro.core.query.UnsupportedQueryError`.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.query import Atom, ConjunctiveQuery
from repro.data.arrays import (
    group_order,
    repeated_binding_filter,
    row_keys,
    stable_order,
    unique_rows,
)


def atom_projection(atom: Atom, rows: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Consistent rows of ``rows`` projected to the atom's distinct variables.

    Rows that bind a repeated variable to two different values (e.g.
    ``S(x, x)`` with row ``(1, 2)``) match nothing and are dropped; the
    surviving rows keep one column per distinct variable, in first
    occurrence order.
    """
    if rows.ndim != 2 or rows.shape[1] != atom.arity:
        raise ValueError(
            f"fragment for {atom.relation} has shape {rows.shape}, "
            f"expected (n, {atom.arity})"
        )
    first_position, mask = repeated_binding_filter(atom.variables, rows)
    if mask is not None:
        rows = rows[mask]
    schema = tuple(first_position)
    projected = rows[:, [first_position[v] for v in schema]]
    if len(schema) < atom.arity:
        # Dropping repeated columns can introduce duplicate rows; later
        # joins assume duplicate-free inputs (natural join of sets).
        projected = unique_rows(projected)
    return np.ascontiguousarray(projected.astype(np.int64, copy=False)), schema


def join_arrays(
    left: np.ndarray,
    left_schema: tuple[str, ...],
    right: np.ndarray,
    right_schema: tuple[str, ...],
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Natural join of two schema-tagged arrays on their shared variables.

    Returns ``(rows, schema)`` with the left schema followed by the
    right's new variables (the vectorized analogue of a textbook hash
    join).  With no shared variables this degenerates to the cross
    product.
    """
    shared = [v for v in left_schema if v in set(right_schema)]
    right_new = [i for i, v in enumerate(right_schema) if v not in set(left_schema)]
    out_schema = tuple(left_schema) + tuple(right_schema[i] for i in right_new)
    width = len(out_schema)

    if len(left) == 0 or len(right) == 0:
        return np.empty((0, width), dtype=np.int64), out_schema

    if not shared:
        rows = np.hstack(
            [
                np.repeat(left, len(right), axis=0),
                np.tile(right[:, right_new], (len(left), 1)),
            ]
        )
        return rows, out_schema

    left_keys, right_keys = row_keys(
        left[:, [left_schema.index(v) for v in shared]],
        right[:, [right_schema.index(v) for v in shared]],
    )
    # Sort both sides by key, then merge: one sorted search finds each
    # left row's group of matching right rows.
    right_order, group_starts = group_order(right_keys)
    group_keys = right_keys[right_order[group_starts]]
    left_order = stable_order(left_keys)
    left_keys = left_keys[left_order]
    group = np.minimum(np.searchsorted(group_keys, left_keys), len(group_keys) - 1)
    matched = group_keys[group] == left_keys
    left_order, group = left_order[matched], group[matched]
    if not right_new:
        # The right atom binds no new variable (e.g. the triangle's
        # closing atom): it filters the left rows, no pairs to enumerate.
        return left[left_order], out_schema

    # Enumerate every (left row, matching right row) pair with pure
    # offset arithmetic.
    group_sizes = np.diff(group_starts, append=len(right))
    matches_per_left = group_sizes[group]
    total = int(matches_per_left.sum())
    pair_ends = np.cumsum(matches_per_left)
    within = np.arange(total) - np.repeat(pair_ends - matches_per_left, matches_per_left)
    right_rows = right_order[np.repeat(group_starts[group], matches_per_left) + within]
    rows = np.hstack(
        [left[np.repeat(left_order, matches_per_left)], right[right_rows][:, right_new]]
    )
    return rows, out_schema


def evaluate_arrays(
    query: ConjunctiveQuery, fragments: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Evaluate ``query`` over array fragments keyed by relation name.

    Returns the distinct answers as a ``(n, k)`` int64 array whose
    columns follow ``query.variables`` (the head order).  Missing
    relations are treated as empty.  Raises
    :class:`~repro.core.query.UnsupportedQueryError` for queries with
    isolated variables, which no join plan can bind.
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
    current, schema = prepared[remaining.pop(0)]
    while remaining:
        bound = set(schema)
        choice = next(
            (
                idx
                for idx in remaining
                if bound & set(prepared[idx][1])
            ),
            remaining[0],
        )
        remaining.remove(choice)
        current, schema = join_arrays(current, schema, *prepared[choice])
        if len(current) == 0:
            return np.empty((0, len(head)), dtype=np.int64)

    answers = current[:, [schema.index(v) for v in head]]
    return unique_rows(answers)
