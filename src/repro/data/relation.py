"""Set-semantics relations over integer domains.

A :class:`Relation` is an immutable set of equal-arity integer tuples.
It exposes exactly the operations the paper's algorithms and analyses
need:

* degrees ``d_J(R) = |sigma_{J}(R)|`` for a tuple ``J`` over a subset of
  positions (Section 3.1's analysis of the HyperCube algorithm),
* heavy-hitter extraction for a frequency threshold (Section 4),
* the canonical ``(n, arity)`` int64 array (:meth:`Relation.to_array`)
  that every engine routes and joins; relational operators (joins,
  semijoins, projections) run on those arrays, in :mod:`repro.join`
  and the executors, not here.

Values are plain Python ints drawn from ``[0, n)``.  Relations are
hashable and comparable, which makes test assertions cheap.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.arrays import column_counts, int64_rows, unique_rows


class Relation:
    """An immutable, set-semantics relation of fixed arity.

    Internally the tuple set and the columnar array (see
    :meth:`to_array`) are two interchangeable encodings; each is
    materialized lazily from the other, so array-born relations
    (:meth:`from_array`) pay the Python-tuple cost only if a set-style
    API is actually used.
    """

    __slots__ = ("name", "arity", "_tuples_cache", "_hash", "_array")

    def __init__(self, name: str, arity: int, tuples: Iterable[tuple[int, ...]]):
        if arity < 1:
            raise ValueError("relation arity must be >= 1")
        frozen = frozenset(tuple(t) for t in tuples)
        for t in frozen:
            if len(t) != arity:
                raise ValueError(
                    f"tuple {t} has arity {len(t)}, expected {arity} in {name}"
                )
        self.name = name
        self.arity = arity
        self._tuples_cache: frozenset[tuple[int, ...]] | None = frozen
        self._hash: int | None = None
        self._array: np.ndarray | None = None

    @property
    def _tuples(self) -> frozenset[tuple[int, ...]]:
        if self._tuples_cache is None:
            self._tuples_cache = frozenset(map(tuple, self._array.tolist()))
        return self._tuples_cache

    # ------------------------------------------------------------- container

    def __len__(self) -> int:
        if self._tuples_cache is None:
            return len(self._array)  # canonical array is already deduplicated
        return len(self._tuples_cache)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._tuples)

    def __contains__(self, item: tuple[int, ...]) -> bool:
        return tuple(item) in self._tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.name != other.name or self.arity != other.arity:
            return False
        if self._array is not None and other._array is not None:
            return bool(np.array_equal(self._array, other._array))
        return self._tuples == other._tuples

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.name, self.arity, self._tuples))
        return self._hash

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, arity={self.arity}, size={len(self)})"

    @property
    def tuples(self) -> frozenset[tuple[int, ...]]:
        return self._tuples

    # ------------------------------------------------------------- columnar

    def to_array(self) -> np.ndarray:
        """The relation as a read-only ``(len, arity)`` int64 array.

        Rows are lexicographically sorted, so the array is a canonical
        encoding of the tuple set.  The array is computed once and
        cached on the relation; repeated calls are free, and callers
        share the same buffer (it is marked non-writeable).
        """
        if self._array is None:
            arr = np.fromiter(
                (v for t in self._tuples for v in t),
                dtype=np.int64,
                count=len(self._tuples) * self.arity,
            ).reshape(len(self._tuples), self.arity)
            arr = unique_rows(arr)
            arr.flags.writeable = False
            self._array = arr
        return self._array

    @classmethod
    def from_array(cls, name: str, array: np.ndarray) -> "Relation":
        """Build a relation from a ``(n, arity)`` integer array.

        Duplicate rows collapse (set semantics).  The canonical sorted
        array is cached on the result, so a subsequent
        :meth:`to_array` does not re-convert.  Raises ``TypeError`` for a
        non-integer array and ``ValueError`` for a value above the int64
        maximum, which would otherwise wrap.
        """
        array = np.asarray(array)
        if array.ndim != 2:
            raise ValueError(f"need a 2-D (n, arity) array, got shape {array.shape}")
        if array.shape[1] < 1:
            raise ValueError("relation arity must be >= 1")
        canonical = unique_rows(int64_rows(array, f"relation {name}"))
        canonical.flags.writeable = False
        relation = cls.__new__(cls)
        relation.name = name
        relation.arity = array.shape[1]
        relation._tuples_cache = None  # materialized on first set-API use
        relation._hash = None
        relation._array = canonical
        return relation

    # ------------------------------------------------------------ statistics

    def key_counts(
        self, positions: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct keys over ``positions`` with their degrees, as arrays.

        ``(keys, counts)`` of :func:`repro.data.arrays.column_counts`
        over the canonical array: the one frequency scan every method
        below reads from, so only the results a caller asks for ever
        become Python objects.
        """
        positions = tuple(positions)
        for p in positions:
            self._check_position(p)
        return column_counts(self.to_array(), positions)

    def degree(self, positions: Sequence[int], values: Sequence[int]) -> int:
        """``d_J(R)``: tuples agreeing with ``values`` on ``positions``."""
        keys, counts = self.key_counts(positions)
        wanted = np.asarray(tuple(values), dtype=np.int64)
        if wanted.shape != keys.shape[1:]:
            raise ValueError("need exactly one value per position")
        return int(counts[(keys == wanted).all(axis=1)].sum())

    def degrees(self, positions: Sequence[int]) -> Counter:
        """Histogram of ``d_J`` for every ``J`` over ``positions``."""
        keys, counts = self.key_counts(positions)
        return Counter(dict(zip(map(tuple, keys.tolist()), counts.tolist())))

    def degrees_of(self, position: int, values: Sequence[int]) -> list[int]:
        """``d_h(R)`` at ``position`` for each ``h`` in ``values``.

        One scan answers every lookup (0 for absent values) -- the
        per-hitter sizes ``m_j(h)`` the skew-aware executors need.
        """
        keys, counts = self.key_counts((position,))
        wanted = np.asarray(tuple(values), dtype=np.int64)
        if len(keys) == 0:
            return [0] * len(wanted)
        column = keys[:, 0]
        slot = np.minimum(np.searchsorted(column, wanted), len(column) - 1)
        return np.where(column[slot] == wanted, counts[slot], 0).tolist()

    def max_degree(self, positions: Sequence[int]) -> int:
        """The largest degree over ``positions`` (0 for empty relations)."""
        _, counts = self.key_counts(positions)
        return int(counts.max()) if len(counts) else 0

    def heavy_hitters(
        self, position: int, threshold: float
    ) -> dict[int, int]:
        """Values whose frequency at ``position`` is >= ``threshold``.

        Section 4: a value is a heavy hitter when its frequency exceeds
        a threshold such as ``m_j / p``.  Returns ``value -> frequency``.
        """
        keys, counts = self.key_counts((position,))
        heavy = counts >= threshold
        return dict(zip(keys[heavy, 0].tolist(), counts[heavy].tolist()))

    # ------------------------------------------------------------- operators

    def renamed(self, name: str) -> "Relation":
        return Relation(name, self.arity, self._tuples)

    # ------------------------------------------------------------- invariants

    def validate_domain(self, domain_size: int) -> None:
        """Raise ``ValueError`` when any value falls outside ``[0, n)``.

        Array-born relations check vectorized; chunked relations
        (:class:`repro.storage.chunked.ChunkedRelation`) override this
        to check one chunk at a time without materializing.
        """
        arr = self._array
        if arr is not None:
            validate_array_domain(arr, self.name, domain_size)
            return
        for t in self._tuples:
            for v in t:
                if not 0 <= v < domain_size:
                    raise ValueError(
                        f"value {v} in {self.name} outside domain "
                        f"[0, {domain_size})"
                    )

    def is_matching(self) -> bool:
        """True when every value has degree exactly 1 in every column.

        This is the paper's *matching database* condition (Section 3):
        each column of the relation is an injection.
        """
        return all(
            self.max_degree((p,)) <= 1 for p in range(self.arity)
        )

    def _check_position(self, position: int) -> None:
        if not 0 <= position < self.arity:
            raise IndexError(
                f"position {position} out of range for arity {self.arity}"
            )


def validate_array_domain(
    arr: np.ndarray, name: str, domain_size: int
) -> None:
    """Vectorized ``[0, n)`` bounds check for one relation-shaped array."""
    if len(arr) and (arr.min() < 0 or arr.max() >= domain_size):
        bad = int(arr[(arr < 0) | (arr >= domain_size)].flat[0])
        raise ValueError(
            f"value {bad} in {name} outside domain [0, {domain_size})"
        )


def relation_from_pairs(name: str, pairs: Iterable[tuple[int, int]]) -> Relation:
    """Convenience constructor for binary relations."""
    return Relation(name, 2, pairs)
