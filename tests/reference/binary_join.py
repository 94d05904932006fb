"""Textbook tuple hash joins: the oracle for the array join.

:func:`hash_join` joins two schema-tagged tuple sets on their shared
variables, one dictionary probe per tuple; ``tests/data/test_row_kernel.py``
checks :func:`repro.join.vectorized.join_arrays` against it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

TupleSet = set[tuple[int, ...]]
Schema = tuple[str, ...]


def merge_schemas(left: Schema, right: Schema) -> Schema:
    """Left schema followed by the right's new variables."""
    seen = set(left)
    return tuple(left) + tuple(v for v in right if v not in seen)


def hash_join(
    left: Iterable[tuple[int, ...]],
    left_schema: Sequence[str],
    right: Iterable[tuple[int, ...]],
    right_schema: Sequence[str],
) -> tuple[TupleSet, Schema]:
    """Natural join of two tagged tuple sets on their shared variables.

    Returns ``(tuples, schema)`` where the schema is
    :func:`merge_schemas` of the inputs.  With no shared variables this
    degenerates to the Cartesian product.
    """
    left_schema = tuple(left_schema)
    right_schema = tuple(right_schema)
    shared = [v for v in left_schema if v in set(right_schema)]
    left_key = [left_schema.index(v) for v in shared]
    right_key = [right_schema.index(v) for v in shared]
    right_extra = [
        i for i, v in enumerate(right_schema) if v not in set(left_schema)
    ]

    index: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for t in right:
        key = tuple(t[i] for i in right_key)
        index.setdefault(key, []).append(t)

    out: TupleSet = set()
    for t in left:
        key = tuple(t[i] for i in left_key)
        for match in index.get(key, ()):
            out.add(tuple(t) + tuple(match[i] for i in right_extra))
    return out, merge_schemas(left_schema, right_schema)


def project(
    tuples: Iterable[tuple[int, ...]],
    schema: Sequence[str],
    onto: Sequence[str],
) -> TupleSet:
    """Project tagged tuples onto a sub-schema (set semantics)."""
    schema = tuple(schema)
    positions = [schema.index(v) for v in onto]
    return {tuple(t[i] for i in positions) for t in tuples}


def reorder(
    tuples: Iterable[tuple[int, ...]],
    schema: Sequence[str],
    target: Sequence[str],
) -> TupleSet:
    """Rewrite tuples from one column order to another (same variables)."""
    schema = tuple(schema)
    if set(schema) != set(target) or len(schema) != len(target):
        raise ValueError(f"schemas {schema} and {tuple(target)} differ")
    positions = [schema.index(v) for v in target]
    return {tuple(t[i] for i in positions) for t in tuples}
