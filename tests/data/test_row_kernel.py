"""The packed-key row-order kernel against its references.

``repro.data.arrays`` orders rows by packing them into one int64 key
when they fit 62 bits and by ``lexsort`` when they do not; both must
agree with each other and with ``np.unique(axis=0)`` on rows, order,
inverse ids and counts.  On top of the kernel, ``join_arrays`` must
equal the tuple ``hash_join`` as sets, and the router's grouping must
reproduce the stable order batch for batch (capacity-drop truncation
cuts each server's batch by row position).  The canonical-order fast
paths (``is_canonical``, ``merge_batches`` returning canonical input,
``stable_order`` on sorted keys) must agree with the same references on
input that is already ordered, nearly ordered and reversed.

Hypothesis draws the case shape and a case seed; the rows themselves
come from a numpy generator seeded with ``derive_seed``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.data import arrays
from repro.data.arrays import (
    column_counts,
    encode_rows,
    group_order,
    is_canonical,
    is_nondecreasing,
    merge_batches,
    row_keys,
    stable_order,
    unique_rows,
    unique_rows_with_counts,
)
from repro.hashing.family import GridPartitioner, HashFamily, derive_seed
from repro.hypercube.algorithm import route_relation_arrays
from repro.join.vectorized import join_arrays
from repro.storage import StorageManager

from tests.reference.binary_join import hash_join
from tests.reference.tuple_kernel import route_relation

INT64 = np.iinfo(np.int64)

#: Value regimes: ``(low, high)`` inclusive.  The last three cannot pack
#: into 62 bits at 2+ columns (or at all) and exercise the fallback.
REGIMES = {
    "tiny": (0, 3),
    "negative": (-50, 50),
    "medium": (-(2**20), 2**20),
    "wide": (-(2**40), 2**40),
    "huge": (-(2**61), 2**61),
    "extreme": (INT64.min, INT64.max),
}


def draw_rows(case_seed: int, salt: int, n: int, arity: int, regime: str) -> np.ndarray:
    low, high = REGIMES[regime]
    rng = np.random.default_rng(derive_seed(case_seed, salt))
    rows = rng.integers(low, high, size=(n, arity), dtype=np.int64, endpoint=True)
    if n >= 2:
        # Duplicates and the regime's end points are the interesting rows.
        rows[n // 2] = rows[0]
        rows[-1, 0], rows[0, -1] = low, high
    return rows


def fits_62_bits(rows: np.ndarray) -> bool:
    """The packing condition, recomputed in Python ints."""
    spans = [max(col) - min(col) for col in rows.T.tolist()]
    return sum(span.bit_length() for span in spans) <= 62


def lexsort_reference(rows: np.ndarray):
    """The pre-kernel implementation: ``(distinct, counts, ids)``."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    starts = np.flatnonzero(new)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ordered[starts], np.diff(np.append(starts, len(rows))), ids


row_cases = st.tuples(
    st.integers(0, 2**32),
    st.integers(0, 60),
    st.integers(1, 5),
    st.sampled_from(sorted(REGIMES)),
)


# ------------------------------------------------------------ rows kernel

@seed(derive_seed(20, 1))
@settings(max_examples=150, deadline=None)
@given(row_cases)
def test_packed_path_equals_lexsort_and_numpy_unique(case):
    case_seed, n, arity, regime = case
    rows = draw_rows(case_seed, 1, n, arity, regime)
    frozen = rows.copy()

    distinct, counts = unique_rows_with_counts(rows)
    ids, num_distinct = encode_rows(rows)
    assert np.array_equal(unique_rows(rows), distinct)
    assert distinct.dtype == rows.dtype and distinct.shape[1] == arity
    assert num_distinct == len(distinct)
    assert np.array_equal(rows, frozen)  # inputs are never written to

    if n:
        ref_rows, ref_counts, ref_ids = lexsort_reference(rows)
        np_rows, np_ids, np_counts = np.unique(
            rows, axis=0, return_inverse=True, return_counts=True
        )
        for expected in (ref_rows, np_rows):
            assert np.array_equal(distinct, expected)
        for expected in (ref_counts, np_counts):
            assert np.array_equal(counts, expected)
        for expected in (ref_ids, np_ids.reshape(-1)):
            assert np.array_equal(ids, expected)
        assert (arrays._layout(rows) is not None) == fits_62_bits(rows)
    else:
        assert distinct.shape == (0, arity) and len(counts) == 0 and len(ids) == 0


@seed(derive_seed(20, 2))
@settings(max_examples=80, deadline=None)
@given(row_cases)
def test_weighted_counts_merge_partial_scans(case):
    case_seed, n, arity, regime = case
    rows = draw_rows(case_seed, 2, n, arity, regime)
    weights = np.random.default_rng(derive_seed(case_seed, 3)).integers(1, 9, size=n)
    distinct, counts = unique_rows_with_counts(rows, weights)
    expected: dict[tuple[int, ...], int] = {}
    for row, weight in zip(map(tuple, rows.tolist()), weights.tolist()):
        expected[row] = expected.get(row, 0) + weight
    assert [tuple(r) for r in distinct.tolist()] == sorted(expected)
    assert counts.tolist() == [expected[k] for k in sorted(expected)]


def test_fallback_path_is_reached_and_agrees():
    # Two columns spanning the whole int64 range: 128 bits, cannot pack,
    # and ``max - min`` itself overflows int64 -- spans are Python ints.
    rows = np.array(
        [[INT64.max, INT64.min], [INT64.min, INT64.max], [0, 0],
         [INT64.max, INT64.min], [INT64.min, INT64.min]],
        dtype=np.int64,
    )
    assert arrays._layout(rows) is None
    distinct, counts = unique_rows_with_counts(rows)
    assert [tuple(r) for r in distinct.tolist()] == sorted(set(map(tuple, rows.tolist())))
    assert counts.tolist() == [1, 1, 1, 2]
    assert encode_rows(rows)[0].tolist() == [3, 1, 2, 3, 0]
    # One column wider than 62 bits falls back too; 62 bits exactly packs.
    assert arrays._layout(np.array([[0], [2**62]])) is None
    assert arrays._layout(np.array([[-(2**61)], [2**61 - 1]])) is not None
    assert unique_rows(np.array([[2**62], [0], [2**62]])).tolist() == [[0], [2**62]]


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint32, np.uint64, np.bool_])
def test_non_int64_inputs_keep_dtype_and_order(dtype):
    info = None if dtype is np.bool_ else np.iinfo(dtype)
    ends = [False, True] if info is None else [info.min, info.max]
    rows = np.array([[ends[1], ends[0]], [ends[0], ends[1]], [ends[1], ends[0]]], dtype=dtype)
    distinct, counts = unique_rows_with_counts(rows)
    assert distinct.dtype == rows.dtype
    assert np.array_equal(distinct, np.unique(rows, axis=0))
    assert counts.tolist() == [1, 2]
    ids, num_distinct = encode_rows(rows)
    assert ids.tolist() == [1, 0, 1] and num_distinct == 2


def test_read_only_and_memmap_inputs(tmp_path):
    rows = draw_rows(7, 4, 40, 3, "negative")
    expected = np.unique(rows, axis=0)
    frozen = rows.copy()
    frozen.flags.writeable = False
    with StorageManager(root=tmp_path / "spill", chunk_rows=len(rows)) as storage:
        spool = storage.spool("chunk", rows.shape[1])
        spool.append(rows)
        (mapped,) = spool.chunks()  # how spill chunks arrive
        assert isinstance(mapped, np.memmap)
        for source in (frozen, mapped, mapped[:, :1], frozen[:, 1:]):
            reference = np.unique(np.asarray(source), axis=0)
            assert np.array_equal(unique_rows(source), reference)
            assert encode_rows(source)[1] == len(reference)
        assert np.array_equal(merge_batches([mapped, frozen]), expected)
        assert np.array_equal(np.asarray(mapped), rows)


def test_zero_column_and_tiny_arrays():
    for n in (0, 1, 4):
        empty_key = np.empty((n, 0), dtype=np.int64)
        distinct, counts = unique_rows_with_counts(empty_key)
        # The empty row matches every row: one distinct row counted n times.
        assert distinct.shape == (min(n, 1), 0)
        assert counts.tolist() == ([n] if n else [])
        ids, num_distinct = encode_rows(empty_key)
        assert ids.tolist() == [0] * n and num_distinct == min(n, 1)
    keys, counts = column_counts(np.arange(8).reshape(4, 2), (), weights=np.array([1, 2, 3, 4]))
    assert keys.shape == (1, 0) and counts.tolist() == [10]
    one = np.array([[5, -7, 9]])
    assert unique_rows(one).tolist() == [[5, -7, 9]]
    assert unique_rows(one) is not one
    assert unique_rows(np.empty((0, 3), dtype=np.int64)).shape == (0, 3)
    with pytest.raises(ValueError, match="2-D"):
        unique_rows(np.arange(5))


# ------------------------------------------------------- canonical order

def canonical_reference(rows: np.ndarray) -> bool:
    """Strictly increasing as Python tuples (sorted and distinct)."""
    as_tuples = list(map(tuple, rows.tolist()))
    return all(a < b for a, b in zip(as_tuples, as_tuples[1:]))


def arranged(rows: np.ndarray, arrangement: str) -> np.ndarray:
    """``rows`` as drawn, canonical, canonical with one row repeated next
    to itself, or canonical reversed."""
    if arrangement == "drawn":
        return rows
    ordered = np.unique(rows, axis=0)
    if arrangement == "duplicate" and len(ordered):
        return np.insert(ordered, len(ordered) // 2, ordered[len(ordered) // 2], axis=0)
    return ordered[::-1] if arrangement == "reversed" else ordered


def check_fast_paths(batches: list[np.ndarray]) -> None:
    """``is_canonical``, ``merge_batches`` and ``stable_order`` against
    ``np.unique(axis=0)`` and the stable ``argsort``."""
    frozen = [np.array(b) for b in batches]
    rows = np.concatenate(frozen, axis=0)
    assert is_canonical(rows) == canonical_reference(rows)
    merged = merge_batches(batches)
    expected = np.unique(rows, axis=0)
    assert merged.dtype == expected.dtype
    assert np.array_equal(merged, expected)
    # The input comes back as is exactly when one batch is canonical.
    assert (merged is batches[0]) == (len(batches) == 1 and canonical_reference(rows))
    for batch, before in zip(batches, frozen):
        assert np.array_equal(batch, before)  # never written to
    if rows.shape[1]:
        keys = rows[:, 0]
        assert np.array_equal(stable_order(keys), np.argsort(keys, kind="stable"))


@seed(derive_seed(20, 7))
@settings(max_examples=150, deadline=None)
@given(row_cases, st.sampled_from(["drawn", "sorted", "duplicate", "reversed"]),
       st.integers(1, 3))
def test_canonical_fast_paths_equal_references(case, arrangement, parts):
    case_seed, n, arity, regime = case
    rows = arranged(draw_rows(case_seed, 12, n, arity, regime), arrangement)
    check_fast_paths([rows])
    cuts = np.random.default_rng(derive_seed(case_seed, 13)).integers(0, len(rows) + 1, parts - 1)
    check_fast_paths(np.split(rows, np.sort(cuts)))


def forced_cases() -> dict[str, np.ndarray]:
    sorted_rows = np.unique(draw_rows(3, 14, 40, 3, "negative"), axis=0)
    extreme = np.unique(draw_rows(3, 15, 30, 2, "extreme"), axis=0)
    cases = {
        "sorted": sorted_rows,
        "sorted+duplicate": np.insert(sorted_rows, 5, sorted_rows[5], axis=0),
        "reversed": sorted_rows[::-1],
        "empty": np.empty((0, 3), dtype=np.int64),
        "one row": sorted_rows[:1],
        "extreme sorted": extreme,
        "extreme swapped": extreme[[1, 0, *range(2, len(extreme))]],
        "last column ties": np.array([[1, 2, 3], [1, 2, 3]]),
        "first column decides": np.array([[1, 9, 9], [2, 0, 0]]),
        "bool": np.array([[False, True], [True, False], [True, True]]),
        "bool duplicate": np.array([[False, True], [False, True]]),
        "uint64": np.array([[0, 2**64 - 1], [2**63, 0], [2**64 - 1, 1]], dtype=np.uint64),
        "uint64 descending": np.array([[2**64 - 1], [2**63]], dtype=np.uint64),
    }
    for n in (0, 1, 2):
        cases[f"zero columns n={n}"] = np.empty((n, 0), dtype=np.int64)
    return cases


@pytest.mark.parametrize("name", sorted(forced_cases()))
def test_canonical_fast_paths_forced_cases(name):
    rows = forced_cases()[name]
    check_fast_paths([rows])
    check_fast_paths([rows[: len(rows) // 2], rows[len(rows) // 2:]])
    if name.endswith("n=2") or name in ("sorted+duplicate", "reversed", "bool duplicate"):
        assert not is_canonical(rows)


def test_canonical_fast_paths_on_read_only_and_memmap(tmp_path):
    rows = np.unique(draw_rows(9, 16, 50, 2, "wide"), axis=0)
    frozen = rows.copy()
    frozen.flags.writeable = False
    with StorageManager(root=tmp_path / "spill", chunk_rows=len(rows)) as storage:
        spool = storage.spool("chunk", rows.shape[1])
        spool.append(rows)
        (mapped,) = spool.chunks()
        assert isinstance(mapped, np.memmap) and not mapped.flags.writeable
        for source in (frozen, mapped, frozen[::-1], mapped[::-1]):
            check_fast_paths([source])
        check_fast_paths([mapped, frozen])
        assert merge_batches([mapped]) is mapped
        assert np.array_equal(np.asarray(mapped), rows)


# ------------------------------------------------------- keys and ordering

@seed(derive_seed(20, 3))
@settings(max_examples=80, deadline=None)
@given(row_cases, st.integers(1, 30))
def test_row_keys_compare_like_the_rows_across_arrays(case, other_n):
    case_seed, n, arity, regime = case
    left = draw_rows(case_seed, 5, max(n, 1), arity, regime)
    right = draw_rows(case_seed, 6, other_n, arity, regime)
    right[0] = left[0]  # at least one equal pair
    left_keys, right_keys = row_keys(left, right)
    assert left_keys.dtype == right_keys.dtype == np.int64
    assert min(left_keys.min(), right_keys.min()) >= 0
    for i, row in enumerate(map(tuple, left.tolist())):
        for j, other in enumerate(map(tuple, right.tolist())):
            assert (left_keys[i] < right_keys[j]) == (row < other)
            assert (left_keys[i] == right_keys[j]) == (row == other)


@seed(derive_seed(20, 4))
@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32), st.integers(0, 200),
    st.sampled_from([(0, 3), (0, 63), (-5, 5), (0, 2**61), (2**61, 2**62)]),
)
def test_group_order_equals_stable_argsort(case_seed, n, bounds):
    rng = np.random.default_rng(derive_seed(case_seed, 7))
    keys = rng.integers(bounds[0], bounds[1], size=n, dtype=np.int64, endpoint=True)
    reference = np.argsort(keys, kind="stable")
    assert np.array_equal(stable_order(keys), reference)
    order, starts = group_order(keys)
    assert np.array_equal(order, reference)
    ordered = keys[reference]
    assert starts.tolist() == [
        i for i in range(n) if i == 0 or ordered[i] != ordered[i - 1]
    ]
    assert np.array_equal(stable_order(keys.astype(np.int32, casting="unsafe")),
                          np.argsort(keys.astype(np.int32, casting="unsafe"), kind="stable"))


@pytest.mark.parametrize("n", [0, 1, 2, 64, 65, 66, 200])
def test_order_checks_look_past_their_prefix_probe(n):
    keys = np.arange(n, dtype=np.int64) // 2  # sorted, with ties
    rows = np.column_stack([keys, np.arange(n) % 2])  # canonical
    assert is_nondecreasing(keys) and is_canonical(rows)
    assert np.array_equal(stable_order(keys), np.arange(n))
    if n >= 2:
        late = keys.copy()
        late[-1] = -1  # out of order only at the very end
        assert not is_nondecreasing(late)
        assert np.array_equal(stable_order(late), np.argsort(late, kind="stable"))
        tied = rows.copy()
        tied[-1] = tied[-2]  # one duplicate, at the very end
        assert not is_canonical(tied)
        assert np.array_equal(merge_batches([tied]), np.unique(tied, axis=0))


# ------------------------------------------------------------------- joins

VARIABLES = ("a", "b", "c", "d")
schemas = st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=3, unique=True).map(tuple)


@seed(derive_seed(20, 5))
@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32), schemas, schemas,
    st.integers(0, 25), st.integers(0, 25),
    st.sampled_from(["tiny", "negative", "huge", "extreme"]),
)
def test_join_arrays_equals_hash_join(case_seed, left_schema, right_schema, n_left, n_right, regime):
    """All shapes: equi-join, closing-atom filter (right schema inside the
    left's), cross product (disjoint schemas), empty sides, a right side
    with duplicate rows, and key columns too wide to pack."""
    left = unique_rows(draw_rows(case_seed, 8, n_left, len(left_schema), regime))
    right = draw_rows(case_seed, 9, n_right, len(right_schema), regime)
    shared = [v for v in left_schema if v in right_schema]
    if shared and len(left) and n_right:
        # Plant matches: copy left key values into some right rows.
        for j in range(0, n_right, 2):
            for v in shared:
                right[j, right_schema.index(v)] = left[j % len(left), left_schema.index(v)]
    rows, schema = join_arrays(left, left_schema, right, right_schema)
    expected, expected_schema = hash_join(
        map(tuple, left.tolist()), left_schema, map(tuple, right.tolist()), right_schema
    )
    assert schema == tuple(expected_schema)
    assert rows.shape[1] == len(schema)
    assert set(map(tuple, rows.tolist())) == set(expected)
    if set(right_schema) <= set(left_schema):
        # The filter branch never multiplies left rows, duplicates or not.
        assert len(rows) == len(expected)


def test_closing_atom_filters_with_duplicate_right_rows():
    left = np.array([[1, 2, 3], [1, 2, 4], [5, 6, 7], [8, 9, 1]])
    right = np.array([[3, 1], [3, 1], [7, 5], [7, 5], [7, 5], [2, 2]])  # T(z, x), duplicated
    rows, schema = join_arrays(left, ("x", "y", "z"), right, ("z", "x"))
    assert schema == ("x", "y", "z")
    assert sorted(map(tuple, rows.tolist())) == [(1, 2, 3), (5, 6, 7)]


# ------------------------------------------------------------------ router

@seed(derive_seed(20, 6))
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.lists(st.integers(1, 4), min_size=3, max_size=3),
    st.sampled_from([("x", "y"), ("y", "z"), ("z", "x"), ("x",), ("y", "y"), ("x", "y", "z")]),
    st.integers(0, 80),
)
def test_router_batches_keep_stable_row_order(case_seed, shares, atom_variables, n):
    """Batch for batch, in row order, the array router equals the
    tuple-at-a-time router -- what a stable ``argsort`` over the
    destination servers produced -- so ``on_overflow="drop"`` truncates
    the same rows."""
    dimensions = ("x", "y", "z")
    partitioner = GridPartitioner(shares, HashFamily(derive_seed(case_seed, 10)))
    rows = draw_rows(case_seed, 11, n, len(atom_variables), "tiny")
    expected: dict[int, list[tuple[int, ...]]] = {}
    for server, row in route_relation(
        partitioner, dimensions, atom_variables, map(tuple, rows.tolist())
    ):
        expected.setdefault(server, []).append(row)
    batches = list(route_relation_arrays(partitioner, dimensions, atom_variables, rows))
    assert [server for server, _ in batches] == sorted(expected)
    for server, batch in batches:
        assert [tuple(r) for r in batch.tolist()] == expected[server]
    # Canonical in, canonical out: each server's batch is a subsequence.
    canonical = unique_rows(rows)
    for _, batch in route_relation_arrays(partitioner, dimensions, atom_variables, canonical):
        assert is_canonical(batch)
