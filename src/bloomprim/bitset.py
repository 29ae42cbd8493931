"""Compact fixed-length bit arrays backed by a byte buffer.

A :class:`BitArray` decodes its own bits: :meth:`BitArray.indices` is
the one reader of its set bits, as one int64 array in ascending order,
unpacked LSB first by numpy, so no caller re-derives the bit order.
"""

from __future__ import annotations

import numpy as np


class BitArray:
    """Array of ``nbits`` bits stored in exactly ``ceil(nbits / 8)`` bytes.

    Bit ``i`` lives in byte ``i // 8`` at position ``i % 8``, least
    significant bit first.
    """

    __slots__ = ("_buf", "_nbits")

    def __init__(self, nbits: int):
        if nbits < 0:
            raise ValueError(f"bit count must be >= 0, got {nbits}")
        self._nbits = nbits
        self._buf = bytearray((nbits + 7) // 8)

    def __len__(self) -> int:
        return self._nbits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._nbits == other._nbits and self._buf == other._buf

    def __repr__(self) -> str:
        return f"BitArray(nbits={self._nbits}, set={self.popcount()})"

    def set(self, i: int) -> None:
        """Set bit ``i``."""
        if not 0 <= i < self._nbits:
            raise IndexError(f"bit {i} out of range [0, {self._nbits})")
        self._buf[i >> 3] |= 1 << (i & 7)

    def popcount(self) -> int:
        """Number of set bits."""
        return int.from_bytes(self._buf, "little").bit_count()

    def indices(self) -> np.ndarray:
        """Ascending int64 indices of the set bits; pad bits past ``nbits`` never count."""
        packed = np.frombuffer(self._buf, np.uint8)
        return np.flatnonzero(np.unpackbits(packed, count=self._nbits, bitorder="little"))

    def tobytes(self) -> bytes:
        """Copy of the backing buffer (LSB-first bit packing)."""
        return bytes(self._buf)

    @property
    def payload_bytes(self) -> int:
        """Size of the backing buffer in bytes."""
        return len(self._buf)
