"""Fixed-size bitmap used as LearnedFTL's bitmap filter (Section III-B).

Each GTD-entry model carries one bit per LPN it covers; the bit says whether
the model's prediction for that LPN is exact.  The bits are plain bytes (bit
``i`` in byte ``i >> 3`` under mask ``1 << (i & 7)``) so the memory accounting
matches the paper's 512-bit (64-byte) figure per model.  A bitmap owns its
bytes, or is a view of one row of a larger buffer: LearnedFTL keeps every
model's bits in one fleet column (see
:func:`repro.core.learned.inplace_model.model_fleet`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["Bitmap"]


class Bitmap:
    """A fixed-length bitmap with constant-time set/clear/test."""

    __slots__ = ("_bits", "_size", "_popcount")

    def __init__(self, size: int, bits: "bytearray | memoryview | None" = None) -> None:
        """A bitmap of ``size`` bits, all clear, in fresh bytes or in ``bits``.

        ``bits`` is a writable buffer of exactly ``(size + 7) // 8`` bytes,
        usually a ``memoryview`` row of a larger column; it is used in place
        and its set bits are counted.
        """
        if size <= 0:
            raise ValueError("bitmap size must be positive")
        self._size = size
        if bits is None:
            self._bits = bytearray((size + 7) // 8)
            self._popcount = 0
        else:
            if len(bits) != (size + 7) // 8:
                raise ValueError(
                    f"a {size}-bit bitmap needs {(size + 7) // 8} bytes, got {len(bits)}"
                )
            self._bits = bits
            self._popcount = int.from_bytes(bits, "little").bit_count()

    def __len__(self) -> int:
        return self._size

    def _check(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise IndexError(f"bit index {index} out of range [0, {self._size})")

    def test(self, index: int) -> bool:
        """Return True when the bit at ``index`` is set."""
        self._check(index)
        return bool(self._bits[index >> 3] & (1 << (index & 7)))

    def set(self, index: int) -> None:
        """Set the bit at ``index``."""
        self._check(index)
        byte = index >> 3
        mask = 1 << (index & 7)
        if not self._bits[byte] & mask:
            self._bits[byte] |= mask
            self._popcount += 1

    def clear(self, index: int) -> None:
        """Clear the bit at ``index``.

        ``LearnedFTL._write_pages`` inlines this body (byte/bit layout and
        popcount) for every page a host write overwrites.
        """
        self._check(index)
        byte = index >> 3
        mask = 1 << (index & 7)
        if self._bits[byte] & mask:
            self._bits[byte] &= ~mask
            self._popcount -= 1

    def clear_all(self) -> None:
        """Clear every bit."""
        self._bits[:] = bytes(len(self._bits))
        self._popcount = 0

    def assign(self, flags: "np.ndarray") -> None:
        """Replace the whole bitmap from a boolean column (bit ``i`` = ``flags[i]``).

        ``bitorder="little"`` is the layout :meth:`test` reads: bit ``i`` lives
        in byte ``i >> 3`` under mask ``1 << (i & 7)``.
        """
        if flags.shape != (self._size,):
            raise ValueError(f"expected {self._size} flags, got shape {flags.shape}")
        self._bits[:] = np.packbits(flags, bitorder="little").tobytes()
        self._popcount = int(np.count_nonzero(flags))

    def clear_many(self, indices: "np.ndarray") -> None:
        """Clear the bits at every index of a column (duplicates allowed)."""
        if len(indices) == 0:
            return
        if indices.min() < 0 or indices.max() >= self._size:
            raise IndexError(f"bit indices out of range [0, {self._size})")
        flags = np.unpackbits(
            np.frombuffer(self._bits, dtype=np.uint8), count=self._size, bitorder="little"
        )
        flags[indices] = 0
        self.assign(flags)

    def count(self) -> int:
        """Number of set bits (the 'length' of the model per Section III-E1)."""
        return self._popcount

    def iter_set(self) -> Iterator[int]:
        """Yield the indices of all set bits in increasing order."""
        for index in range(self._size):
            if self.test(index):
                yield index

    def memory_bytes(self) -> int:
        """Bytes of DRAM consumed by the bitmap."""
        return len(self._bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bitmap(size={self._size}, set={self._popcount})"
