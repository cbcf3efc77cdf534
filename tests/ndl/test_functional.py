"""Functional ops: convolution, pooling, embedding, shape ops."""

import numpy as np
import pytest

from repro.ndl import Tensor
from repro.ndl import functional as F


class TestIm2Col:
    def test_output_shape(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=np.float32).reshape(2, 3, 5, 5)
        cols, (oh, ow) = F.im2col(x, kernel=3, stride=1, padding=0)
        assert cols.shape == (2, 27, 9) and (oh, ow) == (3, 3)

    def test_stride_and_padding(self):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        cols, (oh, ow) = F.im2col(x, kernel=2, stride=2, padding=1)
        assert (oh, ow) == (3, 3)

    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity
        # that the conv backward pass relies on.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        cols, _ = F.im2col(x, kernel=3, stride=1, padding=1)
        y = rng.standard_normal(cols.shape).astype(np.float32)
        lhs = np.sum(cols * y)
        rhs = np.sum(x * F.col2im(y, x.shape, kernel=3, stride=1, padding=1))
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_rejects_collapsed_output(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="collapsed"):
            F.im2col(x, kernel=5, stride=1, padding=0)


# (kernel, stride, padding) of every conv the benchmark models build, plus
# one unpadded 3x3.
CONV_CONFIGS = [(3, 1, 1), (3, 2, 1), (1, 2, 0), (1, 1, 0), (3, 1, 0)]


def _conv_inputs(seed, kernel):
    """N=2, C_in=3 != C_out=4 and an odd 5x5 image, so a batch/channel
    mix-up or an off-by-one at stride 2 cannot pass."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
    w = rng.standard_normal((4, 3, kernel, kernel)).astype(np.float32)
    return x, w


def _direct_conv2d(x, w, b, stride, padding):
    """Textbook loop: every output pixel is a dot product with one window."""
    n, _, h, width = x.shape
    f, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (width + 2 * padding - k) // stride + 1
    out = np.zeros((n, f, oh, ow), dtype=np.float64)
    for s in range(n):
        for o in range(f):
            for i in range(oh):
                for j in range(ow):
                    window = xp[s, :, i * stride:i * stride + k,
                                j * stride:j * stride + k]
                    out[s, o, i, j] = np.sum(window * w[o]) + b[o]
    return out


def _projection(x, w, stride, padding):
    """A fixed random upstream gradient (``sum()`` would send all ones)."""
    shape = F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).shape
    return np.random.default_rng(7).standard_normal(shape).astype(np.float32)


def _projected_loss(x, w, proj, stride, padding):
    out = F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
    return float(np.sum(out.data.astype(np.float64) * proj))


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.random.default_rng(0).standard_normal(
            (1, 1, 4, 4)).astype(np.float32))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = F.conv2d(x, w)
        np.testing.assert_allclose(out.data, x.data)

    @pytest.mark.parametrize("kernel,stride,padding", CONV_CONFIGS)
    def test_matches_direct_convolution(self, kernel, stride, padding):
        x, w = _conv_inputs(1, kernel)
        b = np.random.default_rng(5).standard_normal(4).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
        np.testing.assert_allclose(
            out, _direct_conv2d(x, w, b, stride, padding), rtol=1e-4, atol=1e-5
        )

    @pytest.mark.parametrize("kernel,stride,padding", CONV_CONFIGS)
    def test_weight_gradient_numerical(self, numgrad, kernel, stride, padding):
        x, w = _conv_inputs(2, kernel)
        proj = _projection(x, w, stride, padding)
        wt = Tensor(w.copy(), requires_grad=True)
        (F.conv2d(Tensor(x), wt, stride=stride, padding=padding) * proj
         ).sum().backward()
        num = numgrad(lambda: _projected_loss(x, w, proj, stride, padding), w)
        np.testing.assert_allclose(wt.grad, num, atol=2e-2, rtol=2e-2)

    @pytest.mark.parametrize("kernel,stride,padding", CONV_CONFIGS)
    def test_input_gradient_numerical(self, numgrad, kernel, stride, padding):
        x, w = _conv_inputs(3, kernel)
        proj = _projection(x, w, stride, padding)
        xt = Tensor(x.copy(), requires_grad=True)
        (F.conv2d(xt, Tensor(w), stride=stride, padding=padding) * proj
         ).sum().backward()
        num = numgrad(lambda: _projected_loss(x, w, proj, stride, padding), x)
        np.testing.assert_allclose(xt.grad, num, atol=2e-2, rtol=2e-2)

    @pytest.mark.parametrize("kernel,stride,padding", CONV_CONFIGS)
    def test_float32_in_float32_out(self, kernel, stride, padding):
        x, w = _conv_inputs(4, kernel)
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        out = F.conv2d(xt, wt, stride=stride, padding=padding)
        out.sum().backward()
        assert out.data.dtype == np.float32
        assert xt.grad.dtype == np.float32 and wt.grad.dtype == np.float32

    def test_input_without_grad_skips_col2im(self, monkeypatch):
        # A stem conv reads the data batch: its gradient would be dropped.
        def fail(*args, **kwargs):
            raise AssertionError("col2im ran for an input without grad")

        monkeypatch.setattr(F, "col2im", fail)
        x, w = _conv_inputs(6, 3)
        wt = Tensor(w, requires_grad=True)
        F.conv2d(Tensor(x), wt, stride=2, padding=1).sum().backward()
        assert wt.grad is not None

    def test_bias_gradient(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 1, 3, 3)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 1, 1, 1)).astype(np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        F.conv2d(x, w, b).sum().backward()
        np.testing.assert_allclose(b.grad, [18.0, 18.0])

    def test_rejects_channel_mismatch(self):
        x = Tensor(np.ones((1, 3, 4, 4), np.float32))
        w = Tensor(np.ones((2, 4, 3, 3), np.float32))
        with pytest.raises(ValueError, match="channels"):
            F.conv2d(x, w)

    def test_rejects_non_square_kernel(self):
        x = Tensor(np.ones((1, 1, 4, 4), np.float32))
        w = Tensor(np.ones((1, 1, 2, 3), np.float32))
        with pytest.raises(ValueError, match="square"):
            F.conv2d(x, w)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.array([[[[1, 2], [3, 4]]]], dtype=np.float32))
        out = F.max_pool2d(x, 2)
        assert out.data.reshape(()) == 4.0

    def test_max_pool_gradient_goes_to_max(self):
        data = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
        x = Tensor(data, requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        np.testing.assert_array_equal(
            x.grad, [[[[0, 0], [0, 1]]]]
        )

    def test_avg_pool_values(self):
        x = Tensor(np.array([[[[1, 2], [3, 4]]]], dtype=np.float32))
        assert F.avg_pool2d(x, 2).data.reshape(()) == 2.5

    def test_avg_pool_gradient_uniform(self):
        x = Tensor(np.ones((1, 1, 2, 2), np.float32), requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, 0.25)

    def test_rejects_indivisible_shapes(self):
        x = Tensor(np.ones((1, 1, 5, 4), np.float32))
        with pytest.raises(ValueError, match="divisible"):
            F.max_pool2d(x, 2)

    def test_global_avg_pool_shape(self):
        x = Tensor(np.ones((2, 3, 4, 4), np.float32))
        assert F.global_avg_pool2d(x).shape == (2, 3)


class TestEmbeddingConcatPad:
    def test_embedding_gather(self):
        w = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = F.embedding(w, np.array([2, 0]))
        np.testing.assert_array_equal(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_embedding_scatter_add_backward(self):
        w = Tensor(np.zeros((4, 2), np.float32), requires_grad=True)
        F.embedding(w, np.array([1, 1, 3])).sum().backward()
        np.testing.assert_array_equal(
            w.grad, [[0, 0], [2, 2], [0, 0], [1, 1]]
        )

    def test_embedding_rejects_float_indices(self):
        w = Tensor(np.zeros((4, 2), np.float32))
        with pytest.raises(TypeError, match="integer"):
            F.embedding(w, np.array([0.5]))

    def test_concat_and_split_gradient(self):
        a = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        b = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        out = F.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * np.arange(5, dtype=np.float32)).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0, 1], [0, 1]])
        np.testing.assert_array_equal(b.grad, [[2, 3, 4], [2, 3, 4]])

    def test_pad2d_roundtrip_gradient(self):
        x = Tensor(np.ones((1, 1, 2, 2), np.float32), requires_grad=True)
        F.pad2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_pad2d_zero_is_identity(self):
        x = Tensor(np.ones((1, 1, 2, 2), np.float32))
        assert F.pad2d(x, 0) is x


class TestUpsampleDropout:
    def test_upsample_repeats(self):
        x = Tensor(np.array([[[[1.0, 2.0]]]], dtype=np.float32))
        out = F.upsample_nearest2d(x, 2)
        np.testing.assert_array_equal(
            out.data, [[[[1, 1, 2, 2], [1, 1, 2, 2]]]]
        )

    def test_upsample_gradient_folds(self):
        x = Tensor(np.ones((1, 1, 2, 2), np.float32), requires_grad=True)
        F.upsample_nearest2d(x, 3).sum().backward()
        np.testing.assert_allclose(x.grad, 9.0)

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones(100, np.float32))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_dropout_scales_kept_units(self):
        x = Tensor(np.ones(10000, np.float32))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=True)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert abs(kept.size / 10000 - 0.5) < 0.05

    def test_dropout_rejects_bad_p(self):
        x = Tensor(np.ones(4, np.float32))
        with pytest.raises(ValueError, match="probability"):
            F.dropout(x, 1.0, np.random.default_rng(0), training=True)


class TestLogSoftmaxStack:
    def test_log_softmax_normalizes(self):
        x = Tensor(np.random.default_rng(0).standard_normal(
            (4, 7)).astype(np.float32))
        out = F.log_softmax(x, axis=1)
        np.testing.assert_allclose(
            np.exp(out.data).sum(axis=1), 1.0, rtol=1e-5
        )

    def test_log_softmax_stable_for_huge_logits(self):
        x = Tensor(np.array([[1e4, 0.0]], dtype=np.float32))
        out = F.log_softmax(x, axis=1)
        assert np.all(np.isfinite(out.data))

    def test_log_softmax_gradient(self, numgrad):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        weights = rng.standard_normal((3, 4)).astype(np.float32)
        xt = Tensor(x.copy(), requires_grad=True)
        (F.log_softmax(xt, axis=1) * weights).sum().backward()
        num = numgrad(
            lambda: float((F.log_softmax(Tensor(x), axis=1).data
                           * weights).sum()),
            x,
        )
        np.testing.assert_allclose(xt.grad, num, atol=2e-2)

    def test_stack_rows(self):
        rows = [Tensor(np.full(3, float(i)), requires_grad=True)
                for i in range(4)]
        out = F.stack_rows(rows)
        assert out.shape == (4, 3)
        out.sum().backward()
        for row in rows:
            np.testing.assert_allclose(row.grad, 1.0)
