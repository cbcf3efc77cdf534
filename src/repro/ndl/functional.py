"""Functional ops beyond the elementwise/linear-algebra core.

Convolution uses the im2col lowering (the standard GEMM formulation that
GPU libraries use), max/avg pooling support the stride==kernel case every
benchmark model needs, embedding is a row-gather with scatter-add
backward, and ``concat`` / ``pad`` / ``upsample_nearest`` serve U-Net's
encoder-decoder skips.
"""

from __future__ import annotations

import numpy as np

from repro.ndl.tensor import Tensor, _as_tensor, _bw_add, grad_enabled

# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------


def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"convolution output collapsed: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def _tap_windows(
    size: int, kernel: int, stride: int, padding: int
) -> tuple[int, list[tuple[slice, slice]]]:
    """Output size along one axis, and per kernel tap the output positions
    whose tap lands inside the unpadded input plus the input it reads.

    Positions over the zero padding are skipped rather than copied, so
    the padded image is never materialised.
    """
    out = _conv_output_size(size, kernel, stride, padding)
    windows = []
    for tap in range(kernel):
        lo = max(0, -((tap - padding) // stride))  # ceil((pad - tap) / s)
        hi = min(out, (size - 1 + padding - tap) // stride + 1)
        start = stride * lo + tap - padding
        windows.append(
            (slice(lo, hi), slice(start, start + stride * (hi - lo), stride))
        )
    return out, windows


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Lower (N, C, H, W) into (N, C*K*K, OH*OW) patch columns."""
    n, c, h, w = x.shape
    oh, rows = _tap_windows(h, kernel, stride, padding)
    ow, columns = _tap_windows(w, kernel, stride, padding)
    cols = np.zeros((n, c, kernel, kernel, oh, ow), dtype=x.dtype)
    for i, (out_y, in_y) in enumerate(rows):
        for j, (out_x, in_x) in enumerate(columns):
            cols[:, :, i, j, out_y, out_x] = x[:, :, in_y, in_x]
    return cols.reshape(n, c * kernel * kernel, oh * ow), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add patch columns back into an (N, C, H, W) image."""
    n, c, h, w = x_shape
    oh, rows = _tap_windows(h, kernel, stride, padding)
    ow, columns = _tap_windows(w, kernel, stride, padding)
    cols = cols.reshape(n, c, kernel, kernel, oh, ow)
    image = np.zeros(x_shape, dtype=cols.dtype)
    for i, (out_y, in_y) in enumerate(rows):
        for j, (out_x, in_x) in enumerate(columns):
            image[:, :, in_y, in_x] += cols[:, :, i, j, out_y, out_x]
    return image


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution of (N, C, H, W) with (F, C, K, K) filters."""
    n = x.data.shape[0]
    f, c_in, kernel, kernel2 = weight.data.shape
    if kernel != kernel2:
        raise ValueError("only square kernels are supported")
    if x.data.shape[1] != c_in:
        raise ValueError(
            f"input has {x.data.shape[1]} channels, filters expect {c_in}"
        )
    cols, (oh, ow) = im2col(x.data, kernel, stride, padding)
    w2d = weight.data.reshape(f, -1)
    # All three products are batched GEMMs over N so that they run in
    # BLAS; ``np.einsum`` without ``optimize`` never calls BLAS.
    out = np.matmul(w2d, cols).reshape(n, f, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, f, 1, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad3 = grad.reshape(n, f, oh * ow)
        grad_w = np.matmul(grad3, cols.transpose(0, 2, 1)).sum(axis=0)
        _bw_add(weight, grad_w.reshape(weight.data.shape))
        if bias is not None:
            _bw_add(bias, grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_cols = np.matmul(w2d.T, grad3)
            _bw_add(x, col2im(grad_cols, x.data.shape, kernel, stride, padding))

    return Tensor._make(out, parents, backward)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def _check_pool_shape(h: int, w: int, kernel: int) -> None:
    if h % kernel or w % kernel:
        raise ValueError(
            f"pooling requires spatial dims divisible by kernel, got "
            f"({h}, {w}) with kernel {kernel}"
        )


def max_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pooling (stride == kernel)."""
    n, c, h, w = x.data.shape
    _check_pool_shape(h, w, kernel)
    oh, ow = h // kernel, w // kernel
    windows = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out = windows.max(axis=(3, 5))
    mask = windows == out[:, :, :, None, :, None]
    # Break ties toward a single winner so the gradient is well-defined.
    counts = mask.sum(axis=(3, 5), keepdims=True)

    def backward(grad: np.ndarray) -> None:
        expanded = grad[:, :, :, None, :, None] * mask / counts
        _bw_add(x, expanded.reshape(n, c, h, w))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping average pooling (stride == kernel)."""
    n, c, h, w = x.data.shape
    _check_pool_shape(h, w, kernel)
    oh, ow = h // kernel, w // kernel
    windows = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out = windows.mean(axis=(3, 5))
    scale = 1.0 / (kernel * kernel)

    def backward(grad: np.ndarray) -> None:
        expanded = np.broadcast_to(
            grad[:, :, :, None, :, None] * scale, (n, c, oh, kernel, ow, kernel)
        )
        _bw_add(x, expanded.reshape(n, c, h, w))

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------------
# Embedding, concat, pad, upsample, dropout
# ---------------------------------------------------------------------------


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather: (V, D) table x integer index array -> (*idx, D)."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"embedding indices must be integers, got {idx.dtype}")
    out = weight.data[idx]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(weight.data)
        np.add.at(full, idx, grad)
        _bw_add(weight, full)

    return Tensor._make(out, (weight,), backward)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    """Concatenate along ``axis`` (U-Net skip connections)."""
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray) -> None:
        for tensor, piece in zip(tensors, np.split(grad, splits, axis=axis)):
            _bw_add(tensor, piece)

    return Tensor._make(out, tuple(tensors), backward)


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the two trailing spatial dims."""
    if padding < 0:
        raise ValueError("padding must be non-negative")
    if padding == 0:
        return x
    out = np.pad(
        x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))
    )

    def backward(grad: np.ndarray) -> None:
        _bw_add(x, grad[:, :, padding:-padding, padding:-padding])

    return Tensor._make(out, (x,), backward)


def upsample_nearest2d(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling of (N, C, H, W) by an integer factor."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    out = x.data.repeat(scale, axis=2).repeat(scale, axis=3)
    n, c, h, w = x.data.shape

    def backward(grad: np.ndarray) -> None:
        folded = grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        _bw_add(x, folded)

    return Tensor._make(out, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) at train time."""
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0:
        return x
    mask = (rng.random(size=x.data.shape) >= p) / (1.0 - p)

    def backward(grad: np.ndarray) -> None:
        _bw_add(x, grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_norm
    softmax = np.exp(out)

    def backward(grad: np.ndarray) -> None:
        _bw_add(x, grad - softmax * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward)


def stack_rows(tensors: list[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis (LSTM outputs)."""
    tensors = [_as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors])

    def backward(grad: np.ndarray) -> None:
        for i, tensor in enumerate(tensors):
            _bw_add(tensor, grad[i])

    return Tensor._make(out, tuple(tensors), backward)


__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "embedding",
    "concat",
    "pad2d",
    "upsample_nearest2d",
    "dropout",
    "log_softmax",
    "stack_rows",
    "grad_enabled",
]
