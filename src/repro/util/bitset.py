"""Bitmask set primitives.

Switch sets throughout the library are represented as Python ``int``
bitmasks (arbitrary precision, so universes larger than 64 switches are
fine) with NumPy ``uint64`` lanes used on vectorized hot paths such as
the genetic-algorithm fitness evaluation.  This module collects the
shared primitives: popcounts, mask construction, and enumeration.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

__all__ = [
    "bit_count",
    "bit_indices",
    "mask_of",
    "popcount_u64",
    "random_mask",
    "symmetric_difference_size",
]


def bit_count(mask: int) -> int:
    """Number of set bits in ``mask`` (non-negative int)."""
    if mask < 0:
        raise ValueError("bitmask must be non-negative")
    return mask.bit_count()


def mask_of(indices: Iterable[int]) -> int:
    """Build a bitmask with the given bit positions set.

    >>> mask_of([0, 3])
    9
    """
    mask = 0
    for i in indices:
        if i < 0:
            raise ValueError(f"bit index must be non-negative, got {i}")
        mask |= 1 << i
    return mask


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order.

    >>> list(bit_indices(9))
    [0, 3]
    """
    if mask < 0:
        raise ValueError("bitmask must be non-negative")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def symmetric_difference_size(a: int, b: int) -> int:
    """``|a XOR b|`` — the changeover distance between two switch sets."""
    return bit_count(a ^ b)


def random_mask(rng: np.random.Generator, nbits: int, density: float = 0.5) -> int:
    """Random bitmask over ``nbits`` positions; each bit set with ``density``."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be within [0, 1]")
    bits = rng.random(nbits) < density
    mask = 0
    for i in np.flatnonzero(bits):
        mask |= 1 << int(i)
    return mask


# ---------------------------------------------------------------------------
# NumPy uint64 lane helpers (used by the vectorized GA fitness kernel).
# ---------------------------------------------------------------------------

# SWAR (SIMD-within-a-register) popcount constants for 64-bit lanes.
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)
_SHIFT56 = np.uint64(56)
_HAS_NATIVE_POPCOUNT = hasattr(np, "bitwise_count")


def popcount_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount for an array of ``uint64`` lanes.

    One :func:`numpy.bitwise_count` ufunc call on NumPy ≥ 2.0 (an
    order of magnitude cheaper than the nine-op SWAR pipeline, which
    matters on the streaming hot paths that popcount tiny arrays per
    segment); the classic SWAR bit-slicing fallback keeps older NumPy
    working.  Returns an array of the same shape; counts fit any
    integer dtype — callers reduce with an explicit ``dtype``.
    """
    x = np.asarray(x, dtype=np.uint64)
    if _HAS_NATIVE_POPCOUNT:
        return np.bitwise_count(x)
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    with np.errstate(over="ignore"):  # the SWAR multiply wraps by design
        return (x * _H01) >> _SHIFT56
