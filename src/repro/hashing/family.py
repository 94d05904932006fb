"""Seeded PRF hash functions standing in for perfectly random hashing.

A :class:`HashFunction` maps integers to ``[0, buckets)``.  Two
interchangeable implementations share the same ``(seed, salt, buckets)``
determinism contract:

* ``"splitmix64"`` (the default): a keyed splitmix64 finalizer over
  64-bit arithmetic.  It is a strong statistical mixer, cheap to compute
  scalar-at-a-time, and -- crucially for the array round kernel --
  vectorizes over whole ``uint64`` columns via
  :meth:`HashFunction.hash_array`.
* ``"blake2b"``: the original keyed BLAKE2b digest, kept behind the
  ``method`` flag as a cryptographic-strength cross-check.  Its
  vectorized path hashes each *distinct* value once and scatters the
  results, so it remains usable (if slower) from the array kernel.

Distinct ``(seed, salt)`` pairs give (for all statistical purposes)
independent functions, matching the paper's assumption of independent
perfectly random hash functions ``h_i``.  Scalar calls may memoize
results in a bounded per-function cache (``cache_size``; the vectorized
path never populates it).

:class:`GridPartitioner` composes one hash function per dimension into
the HyperCube destination map: a tuple ``(a_1, ..., a_r)`` lands in bin
``(h_1(a_1), ..., h_r(a_r))`` of the share grid ``[p_1] x ... x [p_r]``
(Lemma 3.2 / Eq. 9).

Heterogeneous clusters (per-server speeds, :class:`repro.config.MachineSpec`)
use *weighted* buckets: instead of ``mix(value) % buckets``, the raw
64-bit mix is mapped through non-uniform cumulative thresholds, so a
bucket with twice the weight owns twice the hash range and receives (in
expectation) twice the keys.  ``weights=None`` -- and any all-equal
weight vector -- keeps the exact historical modulo mapping, so the
uniform cluster is bit-identical to the unweighted code path.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from typing import Literal, Sequence

import numpy as np

_TWO64 = 1 << 64

HashMethod = Literal["splitmix64", "blake2b"]

DEFAULT_CACHE_SIZE = 65_536

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(x: int) -> int:
    """The splitmix64 finalizer on a Python int (mod 2**64)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a ``uint64`` array (wraps mod 2**64)."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def derive_seed(seed: int, salt: int) -> int:
    """Mix a ``(seed, salt)`` pair into one 64-bit family seed.

    Affine schemes like ``seed * K + salt`` are hazardous: ``seed=0``
    collapses onto the bare salt, and distinct ``(seed, salt)`` pairs
    collide whenever their affine combinations coincide.  Here each
    component passes through its own splitmix64 round before being
    folded in, so distinct pairs produce independent-looking seeds
    (collisions only at the 2^-64 level of the mixer itself).
    """
    acc = _mix64((seed & _MASK64) ^ _GOLDEN)
    return _mix64(acc ^ (salt & _MASK64))


def bucket_boundaries(weights: Sequence[float]) -> tuple[int, ...]:
    """Integer cumulative thresholds splitting ``[0, 2^64)`` by weight.

    Bucket ``b`` owns the half-open range ``[t_{b-1}, t_b)`` with
    ``t_b = floor(2^64 * cum_b / W)`` -- exact integer arithmetic via
    :class:`~fractions.Fraction`-free cross-multiplication, so the
    scalar (:func:`bisect.bisect_right`) and vectorized
    (``np.searchsorted(..., side="right")``) lookups agree bit-for-bit.
    Returns the ``len(weights) - 1`` interior boundaries.
    """
    if any(not (w > 0.0) for w in weights):
        raise ValueError("bucket weights must be positive")
    # Scale to integers once so cumulative sums are exact.
    scaled = [int(round(w * (1 << 32))) for w in weights]
    if any(s <= 0 for s in scaled):
        raise ValueError("bucket weights too small to resolve")
    total = sum(scaled)
    boundaries = []
    cum = 0
    for s in scaled[:-1]:
        cum += s
        boundaries.append((_TWO64 * cum) // total)
    return tuple(boundaries)


class HashFunction:
    """A deterministic pseudo-random function ``int -> [0, buckets)``.

    ``weights`` (optional, one positive weight per bucket) makes the
    buckets non-uniform: the raw 64-bit mix is mapped through
    :func:`bucket_boundaries` instead of ``% buckets``, so bucket ``b``
    receives a ``weights[b] / sum(weights)`` fraction of keys in
    expectation.  ``None`` -- or an all-equal vector, which is
    normalized away -- keeps the historical modulo mapping exactly.
    """

    __slots__ = ("seed", "salt", "buckets", "method", "cache_size", "weights",
                 "_key", "_mixkey", "_cache", "_boundaries",
                 "_boundaries_array")

    def __init__(
        self,
        seed: int,
        salt: int,
        buckets: int,
        method: HashMethod = "splitmix64",
        cache_size: int = DEFAULT_CACHE_SIZE,
        weights: Sequence[float] | None = None,
    ):
        if buckets < 1:
            raise ValueError("need at least one bucket")
        if method not in ("splitmix64", "blake2b"):
            raise ValueError(f"unknown hash method {method!r}")
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if weights is not None:
            weights = tuple(float(w) for w in weights)
            if len(weights) != buckets:
                raise ValueError(
                    f"{len(weights)} weights for {buckets} buckets"
                )
            if min(weights) == max(weights):
                weights = None  # uniform: keep the exact modulo path
        self.seed = seed
        self.salt = salt
        self.buckets = buckets
        self.method = method
        self.cache_size = cache_size
        self.weights = weights
        self._key = struct.pack(">qq", seed & 0x7FFFFFFFFFFFFFFF, salt)
        # Two mixing rounds decorrelate (seed, salt) pairs before the
        # per-value round, so nearby seeds give independent functions.
        self._mixkey = _mix64(_mix64(seed & _MASK64) ^ ((salt * _GOLDEN) & _MASK64))
        self._cache: dict[int, int] = {}
        if weights is None:
            self._boundaries = None
            self._boundaries_array = None
        else:
            self._boundaries = bucket_boundaries(weights)
            self._boundaries_array = np.asarray(
                self._boundaries, dtype=np.uint64
            )

    def _bucket_of_u64(self, mixed: int) -> int:
        """Map a raw 64-bit hash to its (possibly weighted) bucket."""
        if self._boundaries is None:
            return mixed % self.buckets
        return bisect_right(self._boundaries, mixed)

    # ------------------------------------------------------------ scalar path

    def __call__(self, value: int) -> int:
        if self.method == "splitmix64":
            # Pure arithmetic; a dict probe costs as much as the mix,
            # so the scalar splitmix path does not use the cache.
            mixed = _mix64((value & _MASK64) ^ self._mixkey)
            if self._boundaries is None:
                return mixed % self.buckets
            return bisect_right(self._boundaries, mixed)
        cached = self._cache.get(value)
        if cached is not None:
            return cached
        out = self._blake2b_raw(value)
        if len(self._cache) < self.cache_size:
            self._cache[value] = out
        return out

    def _blake2b_u64(self, value: int) -> int:
        """The raw keyed BLAKE2b 64-bit digest of a value."""
        length = max(1, (value.bit_length() + 8) // 8)
        digest = hashlib.blake2b(
            value.to_bytes(length, "big", signed=True),
            key=self._key,
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big")

    def _blake2b_raw(self, value: int) -> int:
        """One keyed BLAKE2b evaluation, bypassing the cache."""
        return self._bucket_of_u64(self._blake2b_u64(value))

    # -------------------------------------------------------- vectorized path

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        """Hash a whole column at once; never populates the scalar cache.

        Agrees elementwise with :meth:`__call__` for both methods (the
        property tests cross-check this), including the weighted-bucket
        mapping (``searchsorted(..., side="right")`` matches the scalar
        ``bisect_right`` exactly).  Accepts any integer dtype; returns
        ``int64`` bucket indices.
        """
        values = np.ascontiguousarray(values)
        if values.dtype.kind not in "iu":
            raise TypeError(f"hash_array needs an integer array, got {values.dtype}")
        if self.method == "splitmix64":
            # int64 -> uint64 wraps two's-complement, matching `& _MASK64`.
            x = values.astype(np.uint64) ^ np.uint64(self._mixkey)
            mixed = _mix64_array(x)
            if self._boundaries_array is None:
                return (mixed % np.uint64(self.buckets)).astype(np.int64)
            return np.searchsorted(
                self._boundaries_array, mixed, side="right"
            ).astype(np.int64)
        # blake2b: hash each distinct value once, scatter via the inverse.
        uniq, inverse = np.unique(values, return_inverse=True)
        table = np.fromiter(
            (self._blake2b_raw(int(v)) for v in uniq),
            dtype=np.int64,
            count=len(uniq),
        )
        return table[inverse.reshape(values.shape)]

    def __repr__(self) -> str:
        weighted = "" if self.weights is None else ", weighted"
        return (
            f"HashFunction(seed={self.seed}, salt={self.salt}, "
            f"buckets={self.buckets}, method={self.method!r}{weighted})"
        )


class HashFamily:
    """A seeded factory of independent hash functions.

    ``family.function(salt, buckets)`` returns the same function for the
    same arguments, and statistically independent functions for
    different salts -- the shared-randomness model of Section 2.1
    ("random bits are available to all servers").  ``method`` selects the
    implementation for every function produced by this family;
    ``cache_size`` bounds the per-function scalar memoization cache.
    """

    def __init__(
        self,
        seed: int = 0,
        method: HashMethod = "splitmix64",
        cache_size: int = DEFAULT_CACHE_SIZE,
    ):
        self.seed = seed
        self.method = method
        self.cache_size = cache_size

    def function(
        self,
        salt: int,
        buckets: int,
        weights: Sequence[float] | None = None,
    ) -> HashFunction:
        return HashFunction(
            self.seed, salt, buckets, method=self.method,
            cache_size=self.cache_size, weights=weights,
        )

    def functions(
        self,
        count: int,
        buckets: Sequence[int],
        weights: Sequence[Sequence[float] | None] | None = None,
    ) -> list[HashFunction]:
        """``count`` independent functions with per-index bucket counts.

        ``weights`` optionally supplies per-function bucket weights
        (``None`` entries keep that function uniform).
        """
        if len(buckets) != count:
            raise ValueError("need one bucket count per function")
        if weights is None:
            weights = [None] * count
        if len(weights) != count:
            raise ValueError("need one weight vector (or None) per function")
        return [
            self.function(i, b, w)
            for i, (b, w) in enumerate(zip(buckets, weights))
        ]


class GridPartitioner:
    """HyperCube partitioning of tuples onto a share grid.

    Dimension ``i`` has ``shares[i]`` buckets and its own independent
    hash function.  ``bin_of`` maps a full tuple to its grid cell;
    ``destinations`` maps a *partial* tuple (some dimensions unknown) to
    all cells it must reach -- Eq. (9)'s destination subcube ``D(t)``.
    """

    def __init__(
        self,
        shares: Sequence[int],
        family: HashFamily | None = None,
        weights: Sequence[Sequence[float] | None] | None = None,
    ):
        if any(s < 1 for s in shares):
            raise ValueError("shares must be >= 1")
        self.shares = tuple(int(s) for s in shares)
        if weights is not None:
            if len(weights) != len(self.shares):
                raise ValueError("need one weight vector (or None) per dimension")
            # All-equal vectors are uniform; canonicalize them to None so
            # ``grid.weights is None`` iff routing is unweighted (the
            # HashFunction applies the same normalization internally).
            normalized = []
            for w in weights:
                if w is not None:
                    w = tuple(float(x) for x in w)
                    if min(w) == max(w):
                        w = None
                normalized.append(w)
            weights = tuple(normalized)
            if all(w is None for w in weights):
                weights = None
        self.weights = weights
        family = family or HashFamily(0)
        self.functions = family.functions(
            len(self.shares), self.shares, weights
        )

    @property
    def num_bins(self) -> int:
        out = 1
        for s in self.shares:
            out *= s
        return out

    @property
    def strides(self) -> tuple[int, ...]:
        """Row-major strides: ``linear_index(cell) = sum_i cell[i] * strides[i]``."""
        out = [1] * len(self.shares)
        for i in range(len(self.shares) - 2, -1, -1):
            out[i] = out[i + 1] * self.shares[i + 1]
        return tuple(out)

    def bin_of(self, values: Sequence[int]) -> tuple[int, ...]:
        if len(values) != len(self.shares):
            raise ValueError("tuple arity does not match grid dimension")
        return tuple(h(v) for h, v in zip(self.functions, values))

    def destinations(
        self, values: Sequence[int | None]
    ) -> list[tuple[int, ...]]:
        """All grid cells consistent with the known coordinates.

        ``None`` marks an unconstrained dimension; the result enumerates
        the destination subcube, of size ``prod of shares over unknown
        dimensions`` (the replication factor of the tuple).
        """
        # (weighted grids replicate over the same subcube: weights skew
        # where *hashed* coordinates land, not which cells exist)
        if len(values) != len(self.shares):
            raise ValueError("tuple arity does not match grid dimension")
        cells: list[tuple[int, ...]] = [()]
        for dim, value in enumerate(values):
            if value is None:
                cells = [c + (b,) for c in cells for b in range(self.shares[dim])]
            else:
                h = self.functions[dim](value)
                cells = [c + (h,) for c in cells]
        return cells

    def linear_index(self, cell: Sequence[int]) -> int:
        """Row-major linearization of a grid cell to a server id."""
        out = 0
        for share, coordinate in zip(self.shares, cell):
            if not 0 <= coordinate < share:
                raise ValueError(f"cell {tuple(cell)} outside grid {self.shares}")
            out = out * share + coordinate
        return out


def grid_dimension_weights(
    shares: Sequence[int], machines: object | None
) -> tuple[tuple[float, ...] | None, ...] | None:
    """Per-dimension routing weights marginalizing a machine spec.

    For a row-major share grid, dimension ``i``'s bucket ``b`` covers
    the servers whose ``i``-th grid coordinate is ``b``; its weight is
    the total speed of those servers (``machines`` is a
    :class:`repro.config.MachineSpec`, duck-typed via ``speed()`` to
    keep this module a leaf).  Dimensions whose marginal comes out
    uniform (and the whole result, when every dimension does) collapse
    to ``None`` so uniform clusters keep the exact unweighted path.

    Exact load balancing for effectively one-dimensional grids (a star
    query's center axis); for genuine product grids it is the natural
    rank-1 approximation -- each dimension is balanced against the
    speed mass of its slices.
    """
    if machines is None:
        return None
    shares = tuple(int(s) for s in shares)
    num_bins = 1
    for s in shares:
        num_bins *= s
    strides = [1] * len(shares)
    for i in range(len(shares) - 2, -1, -1):
        strides[i] = strides[i + 1] * shares[i + 1]
    weights: list[tuple[float, ...] | None] = []
    for i, share in enumerate(shares):
        if share == 1:
            weights.append(None)
            continue
        marginal = [0.0] * share
        for server in range(num_bins):
            marginal[(server // strides[i]) % share] += machines.speed(server)
        if min(marginal) == max(marginal):
            weights.append(None)
        else:
            total = sum(marginal)
            weights.append(tuple(w / total for w in marginal))
    if all(w is None for w in weights):
        return None
    return tuple(weights)
