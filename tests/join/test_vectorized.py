"""Tests for the library's one local join, ``evaluate_arrays``.

Every engine's computation phase and every CLI self-check runs
:func:`repro.join.evaluate_arrays`, so it is checked here against the
backtracking oracle (``tests/reference/multiway_join.py``), which
shares no code with it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.families import chain_query, simple_join_query, triangle_query
from repro.core.query import Atom, ConjunctiveQuery, UnsupportedQueryError
from repro.data.arrays import unique_rows
from repro.join import evaluate_arrays, join_arrays
from repro.join.vectorized import evaluate_arrays as evaluate_arrays_by_path
from tests.conftest import random_queries
from tests.reference.multiway_join import evaluate_on_fragments


def as_rows(tuples, arity: int) -> np.ndarray:
    return np.array(list(tuples), dtype=np.int64).reshape(len(tuples), arity)


def check_output_contract(query: ConjunctiveQuery, answers: np.ndarray) -> None:
    """int64, one column per head variable, sorted distinct rows."""
    assert answers.dtype == np.int64
    assert answers.ndim == 2 and answers.shape[1] == query.num_variables
    rows = [tuple(row) for row in answers.tolist()]
    assert rows == sorted(set(rows))


INT64 = np.iinfo(np.int64)

#: Value regimes ``(low, high)``: ``tiny`` keeps every key span dense,
#: ``wide`` and ``negative`` spread a few values so spans are sparse, and
#: ``beyond62`` spans more than 62 bits, so keys are ranked, not packed.
REGIMES = {
    "tiny": (0, 3),
    "negative": (-(2**20), -1),
    "wide": (-(2**40), 2**40),
    "beyond62": (INT64.min, INT64.max),
}


@st.composite
def instances(draw):
    """A random query with one small fragment per atom.

    Each fragment is empty, a single row, or up to 12 rows (duplicates
    allowed) over a domain of at most 4 values drawn from one value
    regime, so joins match while the kernel's key paths all run.
    """
    query = draw(random_queries(max_variables=5, max_atoms=5))
    low, high = REGIMES[draw(st.sampled_from(sorted(REGIMES)))]
    domain = draw(
        st.lists(st.integers(low, high), min_size=1, max_size=4, unique=True)
    )
    fragments = {}
    for atom in query.atoms:
        size = draw(st.sampled_from(("empty", "one", "any")))
        row = st.tuples(*[st.sampled_from(domain)] * atom.arity)
        if size == "empty":
            rows = []
        elif size == "one":
            rows = [draw(row)]
        else:
            rows = draw(st.lists(row, max_size=12))
        fragments[atom.relation] = rows
    return query, fragments


def check_against_oracle(query: ConjunctiveQuery, arrays: dict) -> np.ndarray:
    """``evaluate_arrays`` equals the backtracking join; returns the answers."""
    answers = evaluate_arrays(query, arrays)
    check_output_contract(query, answers)
    assert not any(np.shares_memory(answers, rows) for rows in arrays.values())
    expected = evaluate_on_fragments(
        query, {name: set(map(tuple, rows.tolist())) for name, rows in arrays.items()}
    )
    assert answers.tolist() == [list(t) for t in sorted(expected)]
    return answers


class TestAgainstBacktrackingJoin:
    @given(instances())
    @settings(max_examples=300, deadline=None)
    def test_random_queries(self, instance):
        query, fragments = instance
        check_against_oracle(query, {
            atom.relation: as_rows(fragments[atom.relation], atom.arity)
            for atom in query.atoms
        })

    @pytest.mark.parametrize(
        "query", [triangle_query(), chain_query(3), simple_join_query()],
        ids=lambda q: q.name,
    )
    def test_missing_relation_is_empty(self, query):
        first = query.atoms[0]
        arrays = {first.relation: as_rows([(1,) * first.arity], first.arity)}
        answers = evaluate_arrays(query, arrays)
        assert answers.shape == (0, query.num_variables)
        assert evaluate_on_fragments(
            query, {first.relation: {(1,) * first.arity}}
        ) == set()


class TestExplicitCases:
    def test_repeated_variable_atom(self):
        q = ConjunctiveQuery((Atom("S", ("x", "x")),))
        answers = evaluate_arrays(q, {"S": as_rows([(1, 1), (1, 2), (3, 3)], 2)})
        assert answers.tolist() == [[1], [3]]

    def test_repeated_variable_joined(self):
        q = ConjunctiveQuery((Atom("S", ("x", "x")), Atom("R", ("x", "y"))))
        arrays = {
            "S": as_rows([(1, 1), (2, 3), (4, 4)], 2),
            "R": as_rows([(1, 7), (2, 8), (4, 9), (4, 5)], 2),
        }
        assert evaluate_arrays(q, arrays).tolist() == [[1, 7], [4, 5], [4, 9]]

    def test_disconnected_query_is_a_cross_product(self):
        q = ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("y",))))
        arrays = {"R": as_rows([(2,), (1,)], 1), "S": as_rows([(5,)], 1)}
        assert evaluate_arrays(q, arrays).tolist() == [[1, 5], [2, 5]]

    def test_isolated_variable_rejected(self):
        q = ConjunctiveQuery(
            (Atom("S", ("x",)),), isolated_variables=frozenset({"w"})
        )
        with pytest.raises(UnsupportedQueryError, match="isolated"):
            evaluate_arrays(q, {"S": as_rows([(1,)], 1)})


class TestOutputContract:
    def test_empty_answer_has_head_width(self):
        q = chain_query(2)
        arrays = {"S1": as_rows([(0, 1)], 2), "S2": as_rows([(5, 6)], 2)}
        answers = evaluate_arrays(q, arrays)
        assert answers.shape == (0, 3)
        assert answers.dtype == np.int64

    def test_empty_input_has_head_width(self):
        q = triangle_query()
        answers = evaluate_arrays(q, {})
        assert answers.shape == (0, 3)
        assert answers.dtype == np.int64

    def test_rows_sorted_unique_in_head_order(self):
        q = simple_join_query()  # S1(x, z), S2(y, z): head (x, z, y)
        assert q.variables == ("x", "z", "y")
        arrays = {
            "S1": as_rows([(3, 9), (1, 9), (1, 9)], 2),
            "S2": as_rows([(2, 9), (0, 9), (7, 8)], 2),
        }
        answers = evaluate_arrays(q, arrays)
        assert answers.tolist() == [[1, 9, 0], [1, 9, 2], [3, 9, 0], [3, 9, 2]]
        check_output_contract(q, answers)

    def test_narrow_input_dtype_widened(self):
        q = chain_query(1)
        answers = evaluate_arrays(q, {"S1": np.array([[2, 1], [0, 3]], np.int32)})
        assert answers.dtype == np.int64
        assert answers.tolist() == [[0, 3], [2, 1]]

    def test_no_atoms_yields_one_empty_row(self):
        answers = evaluate_arrays(ConjunctiveQuery(()), {})
        assert answers.shape == (1, 0)
        assert evaluate_on_fragments(ConjunctiveQuery(()), {}) == {()}

    def test_package_exports_the_one_join(self):
        import repro.join

        assert repro.join.__all__ == ["evaluate_arrays", "join_arrays"]
        assert evaluate_arrays_by_path is evaluate_arrays


# ------------------------------------------------------------ kernel paths

KERNEL_PATHS = ("_dense_join", "_merge_join", "_hashed_filter", "row_keys")


@pytest.fixture
def paths(monkeypatch):
    """The names of the kernel paths that ran, in call order."""
    import repro.join.vectorized as vectorized

    ran: list[str] = []

    def spy(name):
        real = getattr(vectorized, name)

        def wrapper(*args, **kwargs):
            ran.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in KERNEL_PATHS:
        monkeypatch.setattr(vectorized, name, spy(name))
    return ran


R_XY, S_YZ, T_ZX = Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))
PATH = ConjunctiveQuery((R_XY, S_YZ))
TRIANGLE = ConjunctiveQuery((R_XY, S_YZ, T_ZX))


def path_arrays(scale: int, shift: int = 0) -> dict[str, np.ndarray]:
    r = [(1, 2), (3, 2), (4, 5), (6, 9)]
    s = [(2, 7), (2, 8), (5, 9), (5, 1), (0, 3)]
    return {
        "R": as_rows(r, 2) * scale + shift,
        "S": as_rows(s, 2) * scale + shift,
    }


def triangle_arrays(scale: int, shift: int = 0) -> dict[str, np.ndarray]:
    arrays = path_arrays(scale, shift)
    t = [(7, 1), (9, 4), (8, 5), (1, 4)]
    arrays["T"] = as_rows(t, 2) * scale + shift
    return arrays


class TestKernelPaths:
    """Spans built to force each path; every result equals the oracle."""

    def test_dense_span_groups_by_direct_addressing(self, paths):
        answers = check_against_oracle(PATH, path_arrays(1))
        assert len(answers) == 6
        assert paths == ["_dense_join"]

    def test_wide_span_sort_merges(self, paths):
        answers = check_against_oracle(PATH, path_arrays(2**30, -(2**35)))
        assert len(answers) == 6
        assert paths == ["_merge_join"]

    def test_dense_closing_atom_filters_through_a_hashed_bitmap(self, paths):
        arrays = {
            "R": as_rows([(0, 1), (1, 1), (2, 3), (3, 0)], 2),
            "S": as_rows([(1, 2), (1, 3), (3, 0), (0, 1)], 2),
            "T": as_rows([(2, 0), (3, 1), (0, 2), (1, 3)], 2),
        }
        answers = check_against_oracle(TRIANGLE, arrays)
        assert answers.tolist() == [[0, 1, 2], [1, 1, 3], [2, 3, 0], [3, 0, 1]]
        assert paths == ["_dense_join", "_hashed_filter"]

    def test_wide_closing_atom_filters_through_a_hashed_bitmap(self, paths):
        answers = check_against_oracle(TRIANGLE, triangle_arrays(2**20))
        assert len(answers) == 3
        assert paths == ["_merge_join", "_hashed_filter"]

    @pytest.mark.parametrize("query", [PATH, TRIANGLE], ids=["join", "filter"])
    def test_keys_beyond_62_bits_are_ranked(self, paths, query):
        arrays = triangle_arrays(2**58, INT64.min // 2)
        arrays["R"][0] = (INT64.min, INT64.max)
        arrays["S"][0] = (INT64.max, INT64.min)
        check_against_oracle(query, {a.relation: arrays[a.relation] for a in query.atoms})
        assert "row_keys" in paths

    @pytest.mark.parametrize("shared", [False, True], ids=["cross-product", "one-value"])
    def test_one_key_value_pairs_every_row(self, paths, shared):
        """A cross product is a join on one constant key; a real key with
        a single value takes the same direct-addressed path."""
        s_atom = Atom("S", ("y", "z")) if shared else Atom("S", ("z",))
        q = ConjunctiveQuery((Atom("R", ("x", "y")), s_atom))
        s_rows = [(5, 7), (5, 2**60), (5, -3)] if shared else [(7,), (2**60,), (-3,)]
        arrays = {"R": as_rows([(2, 5), (1, 5)], 2), "S": as_rows(s_rows, s_atom.arity)}
        assert len(check_against_oracle(q, arrays)) == 6
        assert paths == ["_dense_join"]

    def test_hash_slot_collisions_without_a_match_admit_nothing(self, paths):
        """Left keys that share the right key's bitmap slot are candidates,
        and the exact check against the sorted right keys rejects them."""
        from repro.join.vectorized import _hash_slots

        n_left = 3
        bits = (4 * (n_left + 1) - 1).bit_length()
        keys = np.arange(1000, 5000, dtype=np.int64)
        colliding = keys[_hash_slots(keys, bits) == _hash_slots(np.zeros(1, np.int64), bits)]
        assert len(colliding) >= n_left
        q = ConjunctiveQuery((R_XY, Atom("T", ("x",))))
        arrays = {
            "R": np.column_stack([colliding[:n_left], np.arange(n_left)]),
            "T": as_rows([(0,)], 1),
        }
        assert check_against_oracle(q, arrays).shape == (0, 2)
        assert paths == ["_hashed_filter"]

    def test_hashed_filter_keeps_exactly_the_true_matches(self):
        from repro.join.vectorized import _hash_slots, join_step

        bits = (4 * (6 + 2) - 1).bit_length()
        keys = np.arange(10**6, 10**6 + 4000, dtype=np.int64)
        right = np.array([10**6 + 1, 7], dtype=np.int64)
        colliding = keys[(_hash_slots(keys, bits) == _hash_slots(right[:1], bits))
                         & (keys != right[0])]
        left = np.concatenate([colliding[:4], right[:1], [10**6 + 1]])
        left_ids, right_ids = join_step(left, right, binds_new=False)
        assert right_ids is None
        assert left_ids.tolist() == [4, 5]


def canonical_arrays(scale: int = 1) -> dict[str, np.ndarray]:
    return {name: unique_rows(rows) for name, rows in triangle_arrays(scale).items()}


class TestCanonicalAnswers:
    """The final dedup runs only when the answers are not already
    canonical; either way the result is a new array."""

    @pytest.mark.parametrize(
        "atoms, arrays, dedup",
        [
            ((R_XY,), canonical_arrays(), False),
            ((R_XY, S_YZ), canonical_arrays(), False),
            ((S_YZ, R_XY), canonical_arrays(), False),
            ((R_XY, S_YZ, T_ZX), canonical_arrays(), False),
            ((R_XY, S_YZ, T_ZX), canonical_arrays(2**20), False),
            # A first atom out of order gives answers out of order.
            ((R_XY, S_YZ), {**canonical_arrays(), "R": canonical_arrays()["R"][::-1]}, True),
            # The sort-merge join emits left rows in key order, here not
            # the order of R's rows.
            ((R_XY, S_YZ), {
                "R": as_rows([(1, 5), (3, 2)], 2) * 2**20,
                "S": as_rows([(2, 7), (5, 9)], 2) * 2**20,
            }, True),
        ],
        ids=["R", "path", "path from S", "triangle", "triangle wide", "R reversed",
             "merge reorders"],
    )
    def test_final_dedup_only_when_needed(self, atoms, arrays, dedup, monkeypatch):
        import repro.join.vectorized as vectorized

        deduped: list[int] = []

        def spy(rows):
            deduped.append(len(rows))
            return unique_rows(rows)

        monkeypatch.setattr(vectorized, "unique_rows", spy)
        answers = check_against_oracle(ConjunctiveQuery(atoms), arrays)
        assert len(answers)
        assert deduped == ([len(answers)] if dedup else [])


# ------------------------------------------------------------------ inputs


class TestInputs:
    def test_float_fragment_rejected(self):
        """Floats used to be truncated silently: [[1.7, 2.2]] joined as (1, 2)."""
        fragments = {"S1": np.array([[1.7, 2.2]]), "S2": np.array([[2.9, 2.0]])}
        with pytest.raises(TypeError, match="S1 needs an integer array"):
            evaluate_arrays(simple_join_query(), fragments)

    def test_float_join_arrays_side_rejected(self):
        with pytest.raises(TypeError, match="integer"):
            join_arrays(np.array([[1.5]]), ("x",), as_rows([(1,)], 1), ("x",))

    def test_uint64_above_int64_max_rejected(self):
        rows = np.array([[2**64 - 1, 3]], dtype=np.uint64)
        with pytest.raises(ValueError, match="int64 maximum"):
            evaluate_arrays(chain_query(1), {"S1": rows})

    def test_uint64_within_int64_kept(self):
        rows = np.array([[INT64.max, 0], [5, 2]], dtype=np.uint64)
        answers = evaluate_arrays(chain_query(1), {"S1": rows})
        assert answers.tolist() == [[5, 2], [INT64.max, 0]]

    @pytest.mark.parametrize("scale", [1, 2**20], ids=["dense", "wide"])
    def test_read_only_fragments_unchanged(self, scale):
        arrays = triangle_arrays(scale)
        before = {name: rows.copy() for name, rows in arrays.items()}
        for rows in arrays.values():
            rows.setflags(write=False)
        check_against_oracle(TRIANGLE, arrays)
        rows, schema = join_arrays(arrays["R"], ("x", "y"), arrays["S"], ("y", "z"))
        assert schema == ("x", "y", "z") and len(rows) == 6
        rows, schema = join_arrays(rows, schema, arrays["T"], ("z", "x"))
        assert len(rows) == 3
        for name, rows in arrays.items():
            assert np.array_equal(rows, before[name])

    def test_spilled_memmap_fragments(self, tmp_path):
        from repro.storage import SegmentSlice, StorageManager

        arrays = triangle_arrays(3, 1)
        with StorageManager(root=tmp_path / "spill", chunk_rows=2) as storage:
            mapped = {}
            for name, rows in arrays.items():
                spool = storage.spool(name, 2)
                spool.append(rows[:4])
                (handle,) = [h for h in spool.segment_handles() if isinstance(h, SegmentSlice)]
                mapped[name] = handle.load()
                assert not mapped[name].flags.writeable
            answers = check_against_oracle(TRIANGLE, mapped)
            assert len(answers) == 3
            for name, rows in mapped.items():
                assert np.array_equal(rows, arrays[name][:4])
