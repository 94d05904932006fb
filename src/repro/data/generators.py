"""Seeded synthetic data generators for every distribution in the paper.

* :func:`matching_relation` / :func:`matching_database` -- the *matching
  probability space* of Section 3.2 (every column an injection, all
  degrees exactly 1).  These are the skew-free inputs for which the
  HyperCube algorithm is optimal.
* :func:`uniform_relation` -- uniform random distinct tuples (low skew
  with high probability; exercises the Corollary 3.3 degree condition).
* :func:`zipf_relation` -- Zipf-distributed column values: the standard
  skewed workload (Section 4's motivation).
* :func:`planted_heavy_hitter_database` -- adversarial skew: a chosen
  fraction of tuples share one value, as in Example 4.1 where *all*
  tuples agree on the join variable ``z``.
* :func:`degree_sequence_relation` -- exact frequency vectors
  ``m_j(h)``, i.e. the x-statistics of Section 4.2.
* :func:`layered_path_graph` / :func:`layered_path_database` -- the
  Theorem 5.20 graph family whose connected components are the answers
  of a chain query ``L_k``.
* :func:`random_graph_edges` / :func:`triangle_database_from_edges` --
  graphs for the triangle-query examples.

Every generator takes an explicit integer ``seed`` (or an already-seeded
``random.Random``), so all experiments replay deterministically.

The matching and zipf generators draw from a vectorized
``numpy.random.Generator`` stream and build relations column-wise
(array-born via :meth:`Relation.from_array`, no Python tuples), which
is what makes ``n = 10^7`` planner/skew benchmark setups take seconds
instead of minutes.  The other generators draw from a
``random.Random`` stream and are array-born too.  The uniform and
random-graph generators replay that stream in numpy: CPython's
``randrange(n)`` is ``getrandbits(n.bit_length())`` with rejection,
i.e. one 32-bit Mersenne Twister word per candidate (two above 32
bits), and numpy's ``MT19937`` loads ``random.Random.getstate()``
as is.  Batches of words are drawn and filtered there, and the caller's
``rng`` is then advanced by exactly the words a ``randrange`` loop would
have used, so every seed gives the tuples and the final ``rng`` state
of the tuple-at-a-time loop (``tests/reference/generators.py``).  The
degree-sequence and planted-hitter generators keep ``rng.sample`` (its
pool branch redraws with a shrinking bound) and build rows with array
operations.

The matching and zipf generators also take ``storage=`` (a
:class:`~repro.storage.manager.StorageManager`) and ``chunk_rows=``:
they then build :class:`~repro.storage.chunked.ChunkedRelation`\\ s,
writing ``(chunk_rows, arity)`` chunks straight to spill files.  The
matching generator is fully streaming -- each column is a keyed Feistel
permutation of ``[0, n)`` (:mod:`repro.hashing.permutation`) evaluated
chunk-by-chunk, so ``n = 10^8`` relations materialize without ever
holding ``n`` rows (``rng.choice(n, m, replace=False)`` would allocate
the length-``n`` permutation the out-of-core path exists to avoid).
The storage variants are their own deterministic per-seed streams,
distinct from the in-memory stream: for equal seeds they produce
different (equally distributed) instances.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.query import ConjunctiveQuery
from repro.data.arrays import encode_rows
from repro.data.database import Database
from repro.data.relation import Relation
from repro.hashing.permutation import PseudorandomPermutation
from repro.storage.chunked import ChunkedRelation
from repro.storage.manager import StorageManager

#: Zipf generation stops after this many draws per requested tuple.
ZIPF_MAX_ATTEMPTS_FACTOR = 50


def _rng(seed_or_rng: int | random.Random) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


#: Mersenne Twister words drawn (or skipped) per call of :class:`_Randbelow`.
_REPLAY_CHUNK_WORDS = 1 << 20


class _Randbelow:
    """Accepted ``rng.randrange(n)`` draws of a ``random.Random``, in numpy.

    CPython draws ``randrange(n)`` as ``getrandbits(k)``, ``k =
    n.bit_length()``, until the candidate is below ``n``; a candidate is
    the top ``k`` bits of one 32-bit MT19937 word (``k <= 32``) or the
    first word plus the top ``k - 32`` bits of the second as its high
    half.  The words come from a numpy ``MT19937`` loaded with a copy
    of ``rng``'s state; ``rng`` itself moves only on :meth:`commit`.
    """

    def __init__(self, rng: random.Random, n: int):
        cls = type(rng)
        if (cls.getrandbits, cls._randbelow) != (
            random.Random.getrandbits, random.Random._randbelow
        ):
            raise TypeError(
                f"{cls.__name__} changes how randrange draws; only "
                "random.Random's own Mersenne Twister stream is replayed"
            )
        if not 0 < n <= 1 << 63:
            raise ValueError(f"randrange replay needs 0 < n <= 2**63 (got {n})")
        self.rng = rng
        self.n = n
        self.bits = n.bit_length()
        self.word_size = 1 if self.bits <= 32 else 2
        _, internal, _ = rng.getstate()
        self._generator = np.random.MT19937(0)
        self._generator.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": np.array(internal[:-1], dtype=np.uint32),
                "pos": internal[-1],
            },
        }
        self.words = 0  # words drawn so far

    def draw(self, words: int) -> tuple[np.ndarray, np.ndarray]:
        """The accepted draws among the next ``>= words`` words.

        Returns ``(values, ends)``: int64 values below ``n`` in draw
        order, and per value the number of words drawn (since the
        helper was made) once it is accepted.
        """
        values, ends = [], []
        target = self.words + max(words, self.word_size)
        while self.words < target:
            count = min(_REPLAY_CHUNK_WORDS, target - self.words)
            count += -count % self.word_size
            raw = self._generator.random_raw(count)
            if self.word_size == 1:
                candidates = raw >> (32 - self.bits)
            else:
                pairs = raw.reshape(-1, 2)
                candidates = pairs[:, 0] | (
                    (pairs[:, 1] >> (64 - self.bits)) << 32
                )
            accepted = np.flatnonzero(candidates < self.n)
            values.append(candidates[accepted].astype(np.int64))
            ends.append(self.words + (accepted + 1) * self.word_size)
            self.words += count
        return np.concatenate(values), np.concatenate(ends)

    def commit(self, words: int) -> None:
        """Advance ``rng`` past exactly the first ``words`` words drawn.

        ``getrandbits(32 * w)`` consumes exactly ``w`` whole words.
        """
        for start in range(0, words, _REPLAY_CHUNK_WORDS):
            self.rng.getrandbits(32 * min(_REPLAY_CHUNK_WORDS, words - start))


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """The index of each distinct row's first occurrence, ascending."""
    ids, _ = encode_rows(rows)
    _, first = np.unique(ids, return_index=True)
    first.sort()
    return first


def _first_distinct_draws(
    rng: random.Random,
    n: int,
    width: int,
    count: int,
    keep: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """The first ``count`` distinct rows of ``width`` ``randrange(n)`` draws.

    Exactly what a loop adding rows of ``width`` draws to a set until it
    holds ``count`` would keep, in draw order.  ``keep`` maps a block of
    drawn rows to ``(rows, mask)``: the rows as that loop adds them and
    which of them it adds at all.  ``rng`` then stands where the loop
    leaves it, just after the last word of the ``count``-th distinct row.
    """
    rows = np.empty((0, width), dtype=np.int64)
    if count == 0:
        return rows
    draws = _Randbelow(rng, n)
    ends = np.empty(0, dtype=np.int64)
    pending = np.empty(0, dtype=np.int64)  # a partial row's values
    pending_ends = np.empty(0, dtype=np.int64)
    rate = 1.0  # distinct rows kept per row drawn, last batch
    while len(rows) < count:
        wanted = int((count - len(rows)) / max(rate, 1e-3) * 1.05) + 64
        wanted = min(wanted, 4 * count + 1024)
        words = math.ceil(
            wanted * width * draws.word_size * (1 << draws.bits) / n
        )
        values, value_ends = draws.draw(words)
        values = np.concatenate([pending, values])
        value_ends = np.concatenate([pending_ends, value_ends])
        whole = len(values) - len(values) % width
        pending, pending_ends = values[whole:], value_ends[whole:]
        block = values[:whole].reshape(-1, width)
        block_ends = value_ends[width - 1:whole:width]
        if keep is not None:
            block, mask = keep(block)
            block, block_ends = block[mask], block_ends[mask]
        merged = np.concatenate([rows, block])
        merged_ends = np.concatenate([ends, block_ends])
        # ``rows`` are distinct and precede the block, so first
        # occurrences keep them (and the block's new rows) in draw order.
        first = _first_occurrences(merged)
        found = len(first) - len(rows)
        rate = found / max(whole // width, 1)
        rows, ends = merged[first], merged_ends[first]
    draws.commit(int(ends[count - 1]))
    return rows[:count]


def _np_rng(
    seed_or_rng: int | random.Random | np.random.Generator,
) -> np.random.Generator:
    """A seeded ``numpy`` generator from any accepted seed form."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if isinstance(seed_or_rng, random.Random):
        return np.random.default_rng(seed_or_rng.getrandbits(64))
    return np.random.default_rng(seed_or_rng)


# --------------------------------------------------------------------------
# Matching databases (Section 3.2's probability space)
# --------------------------------------------------------------------------


def matching_relation(
    name: str,
    arity: int,
    m: int,
    n: int,
    seed: int | random.Random | np.random.Generator = 0,
    storage: StorageManager | None = None,
    chunk_rows: int | None = None,
) -> Relation:
    """A uniform random ``arity``-dimensional matching of size ``m``.

    Every column is a random injection ``[m] -> [n]``, so every value
    has degree exactly 1 in every column -- the paper's matching
    condition.  Requires ``m <= n``.  The columns are drawn vectorized
    into an array-born relation.

    With ``storage`` the relation is born chunked: each column is a
    keyed Feistel permutation of ``[0, n)`` restricted to ``[0, m)``
    (still an injection, hence still a matching) evaluated one
    ``chunk_rows`` block at a time and written straight to spill files,
    so peak memory is one chunk no matter how large ``m`` is.  The
    storage stream is deterministic per seed but distinct from the
    in-memory stream.
    """
    if m > n:
        raise ValueError(f"matching needs m <= n (got m={m}, n={n})")
    if storage is not None:
        return _matching_relation_storage(
            name, arity, m, n, _np_rng(seed), storage, chunk_rows
        )
    rng = _np_rng(seed)
    if m == 0:
        return Relation.from_array(name, np.empty((0, arity), dtype=np.int64))
    columns = [
        rng.choice(n, size=m, replace=False).astype(np.int64)
        for _ in range(arity)
    ]
    return Relation.from_array(name, np.stack(columns, axis=1))


def _matching_relation_storage(
    name: str,
    arity: int,
    m: int,
    n: int,
    rng: np.random.Generator,
    storage: StorageManager,
    chunk_rows: int | None,
) -> ChunkedRelation:
    """Streaming matching generation: O(chunk) memory for any ``m``."""
    out = ChunkedRelation(name, arity, storage=storage, chunk_rows=chunk_rows)
    permutations = [
        PseudorandomPermutation.from_rng(n, rng) for _ in range(arity)
    ]
    step = out.chunk_rows
    for start in range(0, m, step):
        index = np.arange(start, min(start + step, m), dtype=np.int64)
        out.append(
            np.stack(
                [perm.apply_array(index) for perm in permutations], axis=1
            )
        )
    return out


def matching_database(
    query: ConjunctiveQuery,
    m: int | Mapping[str, int],
    n: int,
    seed: int | random.Random = 0,
    storage: StorageManager | None = None,
    chunk_rows: int | None = None,
) -> Database:
    """A matching database for ``query`` with cardinalities ``m``.

    With ``storage`` every relation is generated streaming into
    disk-backed chunks (see :func:`matching_relation`).
    """
    rng = _np_rng(seed)
    sizes = _size_map(query, m)
    relations = [
        matching_relation(
            atom.relation, atom.arity, sizes[atom.relation], n, rng,
            storage=storage, chunk_rows=chunk_rows,
        )
        for atom in query.atoms
    ]
    return Database(relations, n)


# --------------------------------------------------------------------------
# Uniform random databases
# --------------------------------------------------------------------------


def uniform_relation(
    name: str, arity: int, m: int, n: int, seed: int | random.Random = 0
) -> Relation:
    """``m`` distinct tuples drawn uniformly from ``[n]^arity``.

    The tuples are those of the loop that adds ``tuple(rng.randrange(n)
    for _ in range(arity))`` to a set until it holds ``m``, drawn from
    the same ``random.Random`` stream but in numpy batches (see the
    module docstring), and a shared ``rng`` is left where that loop
    would leave it.
    """
    if m > n**arity:
        raise ValueError(f"cannot draw {m} distinct tuples from [{n}]^{arity}")
    rows = _first_distinct_draws(_rng(seed), n, arity, m)
    return Relation.from_array(name, rows)


def uniform_database(
    query: ConjunctiveQuery,
    m: int | Mapping[str, int],
    n: int,
    seed: int | random.Random = 0,
) -> Database:
    rng = _rng(seed)
    sizes = _size_map(query, m)
    relations = [
        uniform_relation(atom.relation, atom.arity, sizes[atom.relation], n, rng)
        for atom in query.atoms
    ]
    return Database(relations, n)


# --------------------------------------------------------------------------
# Skewed databases
# --------------------------------------------------------------------------


def zipf_relation(
    name: str,
    arity: int,
    m: int,
    n: int,
    skew: float = 1.0,
    seed: int | random.Random | np.random.Generator = 0,
    skew_positions: Sequence[int] | None = None,
    storage: StorageManager | None = None,
    chunk_rows: int | None = None,
) -> Relation:
    """Up to ``m`` distinct tuples with Zipf(``skew``)-distributed values.

    Positions in ``skew_positions`` (default: all) draw values with
    probability proportional to ``1/rank^skew``; other positions are
    uniform.  Because tuples are deduplicated, extremely skewed
    configurations may saturate below ``m`` distinct tuples; generation
    stops after ``ZIPF_MAX_ATTEMPTS_FACTOR * m`` draws.  Whole batches
    are drawn vectorized (inverse-CDF via ``searchsorted``) and the
    first ``m`` distinct rows are kept in draw order.

    With ``storage`` accepted rows stream to disk-backed chunks as they
    are drawn; when a whole row packs into 63 bits the global dedup
    holds only one ``int64`` key per distinct row instead of the rows
    themselves.  (Unlike the matching generator, zipf draws are
    inherently O(m) in dedup state and O(n) in the CDF table.)
    """
    if storage is not None:
        return _zipf_relation_storage(
            name, arity, m, n, skew, _np_rng(seed), skew_positions,
            storage, chunk_rows,
        )
    return _zipf_relation_numpy(
        name, arity, m, n, skew, _np_rng(seed), skew_positions
    )


def _zipf_cdf(n: int, skew: float) -> tuple[np.ndarray, float]:
    """The cumulative Zipf(``skew``) weights over ``[0, n)``."""
    cumulative = np.cumsum(1.0 / np.arange(1, n + 1, dtype=np.float64) ** skew)
    return cumulative, float(cumulative[-1])


def _zipf_batch_size(accepted: int, attempts: int, m: int, budget: int) -> int:
    """How many rows to draw next, sized by the acceptance rate.

    Under heavy skew most draws repeat, so sizing by the observed rate
    instead of the optimistic ``m - accepted`` (which shrinks to O(1)
    near saturation) keeps the draw loop linear.
    """
    rate = accepted / attempts if attempts else 1.0
    need = m - accepted
    batch = int(need / max(rate, 0.01)) + 1
    return min(batch, max(4 * m, 1), budget - attempts)


def _zipf_draw_block(
    rng: np.random.Generator,
    batch: int,
    arity: int,
    positions: set[int],
    cumulative: np.ndarray,
    total: float,
    n: int,
) -> np.ndarray:
    """One ``(batch, arity)`` block: inverse-CDF on skewed positions."""
    block = np.empty((batch, arity), dtype=np.int64)
    for pos in range(arity):
        if pos in positions:
            block[:, pos] = np.searchsorted(
                cumulative, rng.random(batch) * total
            )
        else:
            block[:, pos] = rng.integers(0, n, size=batch)
    return block


def _zipf_relation_numpy(
    name: str,
    arity: int,
    m: int,
    n: int,
    skew: float,
    rng: np.random.Generator,
    skew_positions: Sequence[int] | None,
) -> Relation:
    """Vectorized zipf draws: batched inverse-CDF, incremental dedup."""
    positions = set(range(arity) if skew_positions is None else skew_positions)
    cumulative, total = _zipf_cdf(n, skew)

    # ``drawn`` always holds only the distinct rows seen so far, in draw
    # order (generation stops once m distinct tuples exist), so each merge touches O(m + batch) rows no matter
    # how many draws the skewed head forces us to discard.
    drawn = np.empty((0, arity), dtype=np.int64)
    attempts = 0
    budget = ZIPF_MAX_ATTEMPTS_FACTOR * m
    while len(drawn) < m and attempts < budget:
        batch = _zipf_batch_size(len(drawn), attempts, m, budget)
        attempts += batch
        block = _zipf_draw_block(
            rng, batch, arity, positions, cumulative, total, n
        )
        merged = np.concatenate([drawn, block], axis=0)
        # Rows of ``drawn`` are distinct and precede the block, so first
        # occurrences keep them (and fresh block rows) in draw order.
        drawn = merged[_first_occurrences(merged)]
    return Relation.from_array(name, drawn[:m])


def _zipf_relation_storage(
    name: str,
    arity: int,
    m: int,
    n: int,
    skew: float,
    rng: np.random.Generator,
    skew_positions: Sequence[int] | None,
    storage: StorageManager,
    chunk_rows: int | None,
) -> ChunkedRelation:
    """Spooled zipf draws: batched inverse-CDF, compact global dedup.

    Accepted rows go straight to the chunked spool in draw order.  The
    distinct-row check keeps packed 63-bit keys when the row width
    allows (8 bytes per distinct row), falling back to the full
    in-memory drawn-rows array otherwise.
    """
    positions = set(range(arity) if skew_positions is None else skew_positions)
    cumulative, total = _zipf_cdf(n, skew)
    out = ChunkedRelation(name, arity, storage=storage, chunk_rows=chunk_rows)

    value_bits = max(1, (n - 1).bit_length()) if n > 1 else 1
    if arity * value_bits > 63:
        # Rows do not pack exactly; reuse the in-memory dedup stream
        # and spool its result (correctness over footprint here).
        dense = _zipf_relation_numpy(
            name, arity, m, n, skew, rng, skew_positions
        )
        out.append(dense.to_array())
        return out

    shifts = np.array(
        [(arity - 1 - pos) * value_bits for pos in range(arity)],
        dtype=np.int64,
    )
    seen = np.empty(0, dtype=np.int64)  # sorted packed keys
    attempts = 0
    budget = ZIPF_MAX_ATTEMPTS_FACTOR * m
    while len(out) < m and attempts < budget:
        batch = _zipf_batch_size(len(out), attempts, m, budget)
        attempts += batch
        block = _zipf_draw_block(
            rng, batch, arity, positions, cumulative, total, n
        )
        keys = (block << shifts[None, :]).sum(axis=1)
        # First occurrence of each key within the batch, in draw order.
        _, first_index = np.unique(keys, return_index=True)
        first_index.sort()
        fresh = first_index[
            ~np.isin(keys[first_index], seen, assume_unique=False)
        ]
        fresh = fresh[: m - len(out)]
        if len(fresh):
            out.append(block[fresh])
            seen = np.union1d(seen, keys[fresh])
    return out


def zipf_database(
    query: ConjunctiveQuery,
    m: int | Mapping[str, int],
    n: int,
    skew: float = 1.0,
    seed: int | random.Random = 0,
    storage: StorageManager | None = None,
    chunk_rows: int | None = None,
) -> Database:
    rng = _np_rng(seed)
    sizes = _size_map(query, m)
    relations = [
        zipf_relation(
            atom.relation, atom.arity, sizes[atom.relation], n, skew, rng,
            storage=storage, chunk_rows=chunk_rows,
        )
        for atom in query.atoms
    ]
    return Database(relations, n)


def planted_heavy_hitter_database(
    query: ConjunctiveQuery,
    m: int | Mapping[str, int],
    n: int,
    variable: str,
    hitter_fraction: float = 1.0,
    hitter_value: int = 0,
    seed: int | random.Random = 0,
) -> Database:
    """Plant a single heavy hitter on ``variable`` in every atom using it.

    A ``hitter_fraction`` of each affected relation's tuples take
    ``hitter_value`` at the variable's position(s); the remaining
    attributes (and the remaining tuples) follow the matching
    construction, so all *other* values stay light.  With
    ``hitter_fraction=1.0`` this reproduces Example 4.1: every tuple of
    every relation joins on the same value.
    """
    if not 0.0 <= hitter_fraction <= 1.0:
        raise ValueError("hitter_fraction must be in [0, 1]")
    rng = _rng(seed)
    sizes = _size_map(query, m)
    relations = []
    for atom in query.atoms:
        size = sizes[atom.relation]
        positions = [
            i for i, v in enumerate(atom.variables) if v == variable
        ]
        # Distinct values for all non-planted coordinates.
        rows = np.stack(
            [
                np.array(rng.sample(range(n), size), dtype=np.int64)
                for _ in range(atom.arity)
            ],
            axis=1,
        )
        heavy_count = int(round(size * hitter_fraction))
        light = np.arange(heavy_count, size)
        for pos in positions:
            rows[:heavy_count, pos] = hitter_value
            # Keep light tuples off the planted value.
            planted = light[rows[heavy_count:, pos] == hitter_value]
            rows[planted, pos] = (hitter_value + 1 + planted) % n
        relations.append(Relation.from_array(atom.relation, rows))
    return Database(relations, n)


def degree_sequence_relation(
    name: str,
    arity: int,
    position: int,
    frequencies: Mapping[int, int],
    n: int,
    seed: int | random.Random = 0,
) -> Relation:
    """A relation realizing exact frequencies ``m_j(h)`` at ``position``.

    For each value ``h``, exactly ``frequencies[h]`` tuples carry ``h``
    at ``position``; every other attribute position is an injection
    across the whole relation (all other values have degree 1).  This
    realizes the x-statistics of Section 4.2 exactly.
    """
    if not 0 <= position < arity:
        raise IndexError("position out of range")
    total = sum(frequencies.values())
    if total > n:
        raise ValueError(
            f"degree sequence needs sum of frequencies <= n ({total} > {n})"
        )
    rng = _rng(seed)
    other_positions = [p for p in range(arity) if p != position]
    fresh = {p: rng.sample(range(n), total) for p in other_positions}
    values = sorted(frequencies)
    for value in values:
        if not 0 <= value < n:
            raise ValueError(f"value {value} outside domain [0, {n})")
    rows = np.empty((total, arity), dtype=np.int64)
    rows[:, position] = np.repeat(
        np.array(values, dtype=np.int64),
        [frequencies[value] for value in values],
    )
    for p in other_positions:
        rows[:, p] = fresh[p]
    return Relation.from_array(name, rows)


def degree_sequence_database(
    query: ConjunctiveQuery,
    variable: str,
    frequencies: Mapping[str, Mapping[int, int]],
    n: int,
    seed: int | random.Random = 0,
) -> Database:
    """A database realizing per-relation frequency vectors on ``variable``.

    Relations not mentioning ``variable`` must not appear in
    ``frequencies``; they are not generated (the star queries of
    Section 4.2 mention ``z`` in every atom).
    """
    rng = _rng(seed)
    relations = []
    for atom in query.atoms:
        if atom.relation not in frequencies:
            raise KeyError(f"no frequencies for relation {atom.relation!r}")
        if variable not in atom.variable_set:
            raise ValueError(
                f"atom {atom.relation} does not mention variable {variable!r}"
            )
        position = atom.variables.index(variable)
        relations.append(
            degree_sequence_relation(
                atom.relation,
                atom.arity,
                position,
                frequencies[atom.relation],
                n,
                rng,
            )
        )
    return Database(relations, n)


# --------------------------------------------------------------------------
# Graph families
# --------------------------------------------------------------------------


def layered_path_graph(
    num_layers: int, layer_size: int, seed: int | random.Random = 0
) -> tuple[list[tuple[int, int]], int]:
    """The Theorem 5.20 family: ``num_layers`` matchings between layers.

    Vertices are partitioned into ``num_layers + 1`` layers of
    ``layer_size`` vertices; consecutive layers are joined by a uniform
    random perfect matching.  The connected components are exactly
    ``layer_size`` vertex-disjoint paths, one per output tuple of the
    chain query ``L_{num_layers}``.  Returns ``(edges, num_vertices)``
    with vertex ids ``layer * layer_size + offset``.
    """
    if num_layers < 1 or layer_size < 1:
        raise ValueError("need at least one layer pair and one vertex per layer")
    rng = _rng(seed)
    edges: list[tuple[int, int]] = []
    for layer in range(num_layers):
        permutation = list(range(layer_size))
        rng.shuffle(permutation)
        base_left = layer * layer_size
        base_right = (layer + 1) * layer_size
        for offset, target in enumerate(permutation):
            edges.append((base_left + offset, base_right + target))
    return edges, (num_layers + 1) * layer_size


def layered_path_database(
    num_layers: int, layer_size: int, seed: int | random.Random = 0
) -> Database:
    """The layered graph packaged as an ``L_k`` chain-query database.

    Relation ``Sj`` holds the matching between layers ``j-1`` and ``j``,
    which is exactly how Theorem 5.20's reduction distributes the edges
    ("each server is given edges only from one relation").
    """
    edges, num_vertices = layered_path_graph(num_layers, layer_size, seed)
    per_layer: dict[int, list[tuple[int, int]]] = {}
    for u, v in edges:
        per_layer.setdefault(u // layer_size, []).append((u, v))
    relations = [
        Relation(f"S{layer + 1}", 2, per_layer[layer])
        for layer in range(num_layers)
    ]
    return Database(relations, num_vertices)


def random_graph_edges(
    num_vertices: int, num_edges: int, seed: int | random.Random = 0
) -> set[tuple[int, int]]:
    """A simple undirected graph as a set of ``(u, v)`` pairs with u < v.

    Endpoints are ``rng.randrange(num_vertices)`` pairs, loops skipped,
    replayed in numpy like :func:`uniform_relation`.
    """
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise ValueError(f"at most {max_edges} simple edges on {num_vertices} vertices")
    pairs = _first_distinct_draws(
        _rng(seed), num_vertices, 2, num_edges,
        keep=lambda block: (np.sort(block, axis=1), block[:, 0] != block[:, 1]),
    )
    return set(map(tuple, pairs.tolist()))


def triangle_database_from_edges(
    edges: Iterable[tuple[int, int]], num_vertices: int
) -> Database:
    """Package an undirected graph for the triangle query ``C3``.

    All three relations hold the symmetric closure of the edge set, so
    each undirected triangle ``{a, b, c}`` appears as six directed
    answers of ``C3`` (all rotations and reflections).
    """
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    symmetric = np.concatenate([pairs, pairs[:, ::-1]])
    relations = [Relation.from_array(f"S{j}", symmetric) for j in (1, 2, 3)]
    return Database(relations, num_vertices)


def _size_map(
    query: ConjunctiveQuery, m: int | Mapping[str, int]
) -> dict[str, int]:
    if isinstance(m, int):
        return {r: m for r in query.relation_names}
    missing = set(query.relation_names) - set(m)
    if missing:
        raise ValueError(f"missing sizes for {sorted(missing)}")
    return {r: int(m[r]) for r in query.relation_names}
