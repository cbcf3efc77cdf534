"""Bit-packing helpers.

Several compressors produce elements that need far fewer than 32 bits
(signs need 1 bit, ternary values 2 bits, QSGD code-words ``ceil(log2 s)``
bits).  The GRACE paper's ``pack``/``unpack`` helpers encode several
lower-bit values into one higher-bit word so that the transmitted volume
reflects the true entropy of the compressed representation.

All functions operate on flat ``numpy`` arrays of non-negative integer
code-words and round-trip exactly.  The wire layout is a little-endian
bit stream: code-word ``i`` occupies stream bits ``[i*bits, (i+1)*bits)``,
least significant bit first, and stream bit ``j`` is bit ``j % 8`` of
byte ``j // 8``; the last byte is zero-padded.

Compressors call these once per tensor on tensors as small as one
element, so each call is a handful of whole-array NumPy operations on
the narrowest dtype that holds a code-word (``uint8`` up to 8 bits,
``uint16`` above); per-call overhead, not bandwidth, is what they cost.
"""

from __future__ import annotations

import numpy as np

_WORD_BITS = 8  # we pack into uint8 words, the natural unit for bytes-on-wire

# Narrowest little-endian container for a ``bits``-wide code-word.
_CODE_DTYPES = {
    bits: np.dtype("<u1" if bits <= 8 else "<u2") for bits in range(1, 17)
}
# Place values 1, 2, 4, ... of each code-word's bits, LSB first.
_PLACE_VALUES = {
    bits: (1 << np.arange(bits)).astype(_CODE_DTYPES[bits])
    for bits in range(1, 17)
}
# unpack_signs lookup: stream bit 0 -> -1.0, 1 -> +1.0.
_SIGN_VALUES = np.array([-1.0, 1.0], dtype=np.float32)
_SIGN_VALUES.setflags(write=False)


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")


def _check_stream(buffer: np.ndarray, needed: int) -> None:
    """Raise unless ``buffer`` holds at least ``needed`` stream bits."""
    if needed < 0:
        raise ValueError("count must be non-negative")
    held = buffer.size * _WORD_BITS
    if held < needed:
        raise ValueError(f"buffer holds {held} bits but {needed} are required")


def pack_bits(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack an array of integer code-words into a dense ``uint8`` buffer.

    Each code-word must fit in ``bits`` bits; a negative one (including
    the ``INT64_MIN`` a NaN casts to) does not.  The output buffer holds
    ``ceil(n * bits / 8)`` bytes.

    >>> pack_bits(np.array([1, 0, 1, 1]), bits=1)
    array([13], dtype=uint8)
    """
    _check_bits(bits)
    # Widened to uint64, a negative code-word sign-extends to a value no
    # width accepts, so the range check rejects it before the narrow cast
    # below could wrap it silently.
    unsigned = np.ravel(codes).astype(np.uint64)
    if unsigned.size and int(unsigned.max()) >> bits:
        raise ValueError(
            f"code-word {int(unsigned.max())} does not fit in {bits} bits"
        )
    narrow = unsigned.astype(_CODE_DTYPES[bits])
    # (n, bits) matrix of each code's bits, LSB first, then one flat pack.
    code_bits = np.unpackbits(
        narrow.view(np.uint8).reshape(narrow.size, narrow.itemsize),
        axis=1,
        count=bits,
        bitorder="little",
    )
    return np.packbits(code_bits, bitorder="little")


def unpack_bits(buffer: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns ``count`` code-words as int64."""
    _check_bits(bits)
    buffer = np.asarray(buffer, dtype=np.uint8)
    needed = count * bits
    _check_stream(buffer, needed)
    code_bits = np.unpackbits(buffer, count=needed, bitorder="little")
    codes = code_bits.reshape(count, bits) @ _PLACE_VALUES[bits]
    return codes.astype(np.int64)


def pack_signs(values: np.ndarray) -> np.ndarray:
    """Pack the signs of ``values`` (non-negative -> 1, negative -> 0)."""
    return np.packbits(np.ravel(values) >= 0, bitorder="little")


def unpack_signs(buffer: np.ndarray, count: int) -> np.ndarray:
    """Unpack a sign buffer into a float ±1 vector of length ``count``."""
    buffer = np.asarray(buffer, dtype=np.uint8)
    _check_stream(buffer, count)
    return _SIGN_VALUES[np.unpackbits(buffer, count=count, bitorder="little")]


def packed_nbytes(count: int, bits: int) -> int:
    """Number of bytes :func:`pack_bits` uses for ``count`` ``bits``-wide codes."""
    _check_bits(bits)
    if count < 0:
        raise ValueError("count must be non-negative")
    return (count * bits + _WORD_BITS - 1) // _WORD_BITS
