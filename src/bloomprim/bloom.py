"""Seeded Bloom filter over 64-bit integer keys.

A Bloom filter answers set-membership queries with possible false
positives and no false negatives.  Sizing follows the standard optima
for a target false-positive rate ``epsilon`` at ``capacity`` insertions:

    bit_count  = ceil(-capacity * ln(epsilon) / ln(2)^2)
    hash_count = round_half_up(bit_count * ln(2) / capacity)   (at least 1)

The ``hash_count`` probe positions for a key are derived by double
hashing,

    index_i = (h1 + i * h2) mod bit_count        for i in [0, hash_count),

where ``(h1, h2)`` are the two 64-bit halves of a seeded 128-bit hash of
the key.  The hash interprets the key through its 8-byte little-endian
encoding (equivalently ``key mod 2**64``) and applies the splitmix64
finalizer to the key xored with two seed-derived tweak words:

    h1 = mix64(key ^ mix64(seed ^ 0x9E3779B97F4A7C15))
    h2 = mix64(key ^ mix64(seed ^ 0xC2B2AE3D27D4EB4F))

The hash arithmetic is modulo 2**64, but the probe index is exact: its
sum and product are not wrapped, so a port with 64-bit words must reduce
before it multiplies,

    index_i = (h1 mod bit_count + i * (h2 mod bit_count)) mod bit_count,

which gives the same bits and stays below ``hash_count * bit_count``.
Filters are then bit-identical across platforms and languages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bitset import BitArray

_MASK64 = (1 << 64) - 1
# tweak constants: golden-ratio gamma and the second xxhash64 prime
_SEED_TWEAK_LOW = 0x9E3779B97F4A7C15
_SEED_TWEAK_HIGH = 0xC2B2AE3D27D4EB4F


def _mix64(z: int) -> int:
    # splitmix64 finalizer (Stafford mix 13): a full-avalanche permutation of 64-bit words
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _seed_words(seed: int) -> tuple[int, int]:
    s = seed & _MASK64
    return _mix64(s ^ _SEED_TWEAK_LOW), _mix64(s ^ _SEED_TWEAK_HIGH)


def hash_pair(key: int, seed: int = 0) -> tuple[int, int]:
    """Return the two 64-bit halves ``(h1, h2)`` of the seeded key hash."""
    k = key & _MASK64
    low, high = _seed_words(seed)
    return _mix64(k ^ low), _mix64(k ^ high)


@dataclass(frozen=True)
class BloomParams:
    """Derived sizing of a Bloom filter.

    Attributes
    ----------
    capacity:
        Number of insertions the filter is sized for.
    epsilon:
        Target false-positive rate at capacity, in (0, 1).
    bit_count:
        Length of the bit array (``m``).
    hash_count:
        Number of probe positions per key (``k``).
    """

    capacity: int
    epsilon: float
    bit_count: int
    hash_count: int

    @classmethod
    def for_capacity(cls, capacity: int, epsilon: float = 0.01) -> "BloomParams":
        """Compute optimal parameters for ``capacity`` keys at rate ``epsilon``."""
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        bit_count = max(1, math.ceil(-capacity * math.log(epsilon) / math.log(2) ** 2))
        # round half up; never below one hash function
        hash_count = max(1, math.floor(bit_count * math.log(2) / capacity + 0.5))
        return cls(capacity, epsilon, bit_count, hash_count)

    @property
    def payload_bytes(self) -> int:
        """Bytes needed for the bit array: ``ceil(bit_count / 8)``."""
        return (self.bit_count + 7) // 8


class BloomFilter:
    """Probabilistic visited-set over integer keys.

    ``contains`` may return true for a key that was never added (a false
    positive) but never returns false for an added key.  ``inserted_count``
    counts ``add`` calls; callers that re-add keys should not rely on it
    as a distinct-key count.

    Single-writer: no internal locking; share across threads only after
    all writes complete.
    """

    __slots__ = ("params", "bits", "inserted_count", "hash_seed", "_seed_low", "_seed_high")

    def __init__(self, params: BloomParams, hash_seed: int = 0):
        self.params = params
        self.hash_seed = hash_seed
        self.bits = BitArray(params.bit_count)
        self.inserted_count = 0
        self._seed_low, self._seed_high = _seed_words(hash_seed)

    @classmethod
    def for_capacity(
        cls, capacity: int, epsilon: float = 0.01, hash_seed: int = 0
    ) -> "BloomFilter":
        """Construct a filter sized by :meth:`BloomParams.for_capacity`."""
        return cls(BloomParams.for_capacity(capacity, epsilon), hash_seed)

    def add(self, key: int) -> None:
        """Insert ``key``: set its probe bits and bump ``inserted_count``."""
        k = key & _MASK64
        h1 = _mix64(k ^ self._seed_low)
        h2 = _mix64(k ^ self._seed_high)
        m = self.params.bit_count
        buf = self.bits._buf
        for i in range(self.params.hash_count):
            idx = (h1 + i * h2) % m
            buf[idx >> 3] |= 1 << (idx & 7)
        self.inserted_count += 1

    def contains(self, key: int) -> bool:
        """True if all probe bits for ``key`` are set (may be a false positive)."""
        k = key & _MASK64
        h1 = _mix64(k ^ self._seed_low)
        h2 = _mix64(k ^ self._seed_high)
        m = self.params.bit_count
        buf = self.bits._buf
        for i in range(self.params.hash_count):
            idx = (h1 + i * h2) % m
            if not buf[idx >> 3] & (1 << (idx & 7)):
                return False
        return True

    __contains__ = contains

    @property
    def payload_bytes(self) -> int:
        """Bytes occupied by the bit array."""
        return self.bits.payload_bytes
