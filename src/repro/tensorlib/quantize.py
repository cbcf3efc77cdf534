"""Quantization helper kernels.

These are the numeric primitives that the quantization-family compressors
(§III-A of the paper) are assembled from: uniform codebooks with either
deterministic or stochastic rounding, the Dettmers float8 format used by
8-bit quantization, and power-of-two rounding for Natural compression.
"""

from __future__ import annotations

import numpy as np

# --------------------------------------------------------------------------
# Uniform codebook quantization (QSGD-style levels).
# --------------------------------------------------------------------------


def quantize_uniform(
    values: np.ndarray,
    levels: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Map ``values`` in [0, 1] to integer code-words in [0, levels].

    With ``rng`` given, uses stochastic (unbiased) rounding: a value between
    two adjacent code-words is rounded up with probability equal to its
    fractional position, exactly the QSGD rule.  Without ``rng`` the rounding
    is deterministic (nearest level).
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    # The same clamp as np.clip (NaN passes through), minus its
    # Python-level wrapper, which costs more than the arithmetic on the
    # small per-tensor arrays compressors pass in.
    scaled = np.minimum(np.maximum(values, 0.0), 1.0) * levels
    if rng is None:
        return np.rint(scaled).astype(np.int64)
    lower = np.floor(scaled)
    up = rng.random(size=scaled.shape) < scaled - lower
    return (lower + up).astype(np.int64)


def dequantize_uniform(codes: np.ndarray, levels: int) -> np.ndarray:
    """Inverse of :func:`quantize_uniform`; returns floats in [0, 1]."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    return codes.astype(np.float64) / float(levels)


def quantize_stochastic_levels(
    magnitudes: np.ndarray,
    norm: float,
    levels: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """QSGD stochastic quantization of ``|g[i]| / ||g||`` onto ``levels`` bins.

    Returns integer code-words ``l`` in ``[0, levels]`` such that the
    estimator ``norm * l / levels`` is unbiased for each magnitude.
    """
    if norm <= 0:
        return np.zeros(magnitudes.shape, dtype=np.int64)
    return quantize_uniform(magnitudes / norm, levels, rng=rng)


# --------------------------------------------------------------------------
# Dettmers-style float8 (1 sign, 3 exponent, 4 mantissa bits).
# --------------------------------------------------------------------------

_F8_MANTISSA_BITS = 4
_F8_EXP_BITS = 3
_F8_EXP_BIAS = 4  # exponents cover 2^-4 .. 2^3 relative to the dynamic scale


def quantize_float8(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Quantize float32 values to an 8-bit float format (1-3-4 split).

    Follows Dettmers' dynamic scheme: values are first normalized by the
    maximum absolute value (the dynamic scale carried in ``ctx``), then
    encoded as sign / exponent / mantissa.  Returns ``(codes, scale)`` where
    ``codes`` is ``uint8``.
    """
    flat = np.ravel(values).astype(np.float64)
    scale = float(np.max(np.abs(flat))) if flat.size else 0.0
    if scale == 0.0:
        return np.zeros(flat.shape, dtype=np.uint8), 0.0
    normalized = flat / scale
    sign = (normalized < 0).astype(np.uint8)
    mag = np.abs(normalized)
    # Decompose into exponent & mantissa. Magnitudes are in (0, 1]; exponent
    # e satisfies mag = m * 2^(e - bias) with m in [1, 2).
    with np.errstate(divide="ignore"):
        exp = np.floor(np.log2(np.maximum(mag, np.finfo(np.float64).tiny)))
    exp = np.clip(exp + _F8_EXP_BIAS, 0, (1 << _F8_EXP_BITS) - 1)
    mantissa_scale = np.exp2(exp - _F8_EXP_BIAS)
    mantissa = mag / mantissa_scale - 1.0
    mantissa_codes = np.clip(
        np.rint(mantissa * (1 << _F8_MANTISSA_BITS)),
        0,
        (1 << _F8_MANTISSA_BITS) - 1,
    )
    zero = mag < np.exp2(-_F8_EXP_BIAS - 1)
    codes = (
        (sign << 7)
        | (exp.astype(np.uint64) << _F8_MANTISSA_BITS)
        | mantissa_codes.astype(np.uint64)
    ).astype(np.uint8)
    # 0x00 is the zero sentinel; the legitimate code for the smallest
    # positive value (+, exp 0, mantissa 0) collides with it, so bump
    # such values to mantissa 1 (a ~6% perturbation at the format's
    # smallest magnitude) instead of silently flushing them to zero.
    codes[(codes == 0) & ~zero] = 1
    codes[zero] = 0
    return codes, scale


def dequantize_float8(codes: np.ndarray, scale: float) -> np.ndarray:
    """Inverse of :func:`quantize_float8` (lossy; returns float32)."""
    codes = codes.astype(np.uint64)
    sign = np.where((codes >> 7) & 1, -1.0, 1.0)
    exp = ((codes >> _F8_MANTISSA_BITS) & ((1 << _F8_EXP_BITS) - 1)).astype(
        np.float64
    )
    mantissa = (codes & ((1 << _F8_MANTISSA_BITS) - 1)).astype(np.float64)
    mag = (1.0 + mantissa / (1 << _F8_MANTISSA_BITS)) * np.exp2(exp - _F8_EXP_BIAS)
    out = sign * mag * scale
    out[codes == 0] = 0.0
    return out.astype(np.float32)


# --------------------------------------------------------------------------
# Power-of-two rounding (Natural compression).
# --------------------------------------------------------------------------


def nearest_power_of_two(values: np.ndarray) -> np.ndarray:
    """Deterministically round each value to the closest power of two."""
    out = np.zeros_like(values, dtype=np.float64)
    nonzero = values != 0
    mag = np.abs(values[nonzero]).astype(np.float64)
    exp = np.round(np.log2(mag))
    out[nonzero] = np.sign(values[nonzero]) * np.exp2(exp)
    return out


def stochastic_power_of_two(
    values: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Natural compression: round to one of the two nearest powers of two.

    The rounding probabilities make the operator unbiased:
    a magnitude ``m`` in ``[2^e, 2^(e+1)]`` maps to ``2^(e+1)`` with
    probability ``(m - 2^e) / 2^e`` and to ``2^e`` otherwise.
    """
    out = np.zeros_like(values, dtype=np.float64)
    nonzero = values != 0
    if not np.any(nonzero):
        return out
    mag = np.abs(values[nonzero]).astype(np.float64)
    exp_low = np.floor(np.log2(mag))
    low = np.exp2(exp_low)
    p_up = (mag - low) / low  # in [0, 1): distance within the binade
    up = rng.random(size=mag.shape) < p_up
    out[nonzero] = np.sign(values[nonzero]) * np.where(up, 2.0 * low, low)
    return out
