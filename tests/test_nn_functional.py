"""Tests for the numpy tensor operations (conv, pooling, softmax)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import correlate2d

from repro.nn import functional as F


def _naive_conv2d(x, weight, bias=None, stride=1, padding=0):
    """Reference convolution via scipy.signal.correlate2d."""
    n, c_in, h, w = x.shape
    c_out = weight.shape[0]
    x = F.pad2d(x, padding)
    h_out = (x.shape[2] - weight.shape[2]) // stride + 1
    w_out = (x.shape[3] - weight.shape[3]) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out))
    for i in range(n):
        for o in range(c_out):
            acc = np.zeros((x.shape[2] - weight.shape[2] + 1, x.shape[3] - weight.shape[3] + 1))
            for ci in range(c_in):
                acc += correlate2d(x[i, ci], weight[o, ci], mode="valid")
            out[i, o] = acc[::stride, ::stride]
            if bias is not None:
                out[i, o] += bias[o]
    return out


class TestPad2d:
    def test_zero_padding_noop(self):
        x = np.random.default_rng(0).random((1, 2, 4, 4))
        np.testing.assert_array_equal(F.pad2d(x, 0), x)

    def test_padding_shape_and_content(self):
        x = np.ones((1, 1, 2, 2))
        padded = F.pad2d(x, 2)
        assert padded.shape == (1, 1, 6, 6)
        assert padded.sum() == 4
        assert padded[0, 0, 0, 0] == 0

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError):
            F.pad2d(np.ones((1, 1, 2, 2)), -1)


class TestIm2col:
    def test_shape(self):
        x = np.random.default_rng(0).random((2, 3, 8, 8))
        patches = F.im2col(x, kernel=3, stride=1, padding=1)
        assert patches.shape == (2, 8, 8, 3, 3, 3)
        # One image's patches flatten to its (H_out*W_out, kh*kw*C) columns.
        assert np.ascontiguousarray(patches[0]).reshape(64, -1).shape == (64, 27)

    def test_values_match_patches(self):
        x = np.arange(32, dtype=np.float64).reshape(1, 2, 4, 4)
        patches = F.im2col(x, kernel=2, stride=2, padding=0)
        # First patch is the top-left 2x2 block, channels innermost.
        np.testing.assert_array_equal(patches[0, 0, 0].ravel(), [0, 16, 1, 17, 4, 20, 5, 21])
        np.testing.assert_array_equal(patches[0, 1, 1, :, :, 0].ravel(), [10, 11, 14, 15])

    def test_kernel_too_large(self):
        with pytest.raises(ValueError, match="does not fit"):
            F.im2col(np.ones((1, 1, 4, 4)), kernel=5)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_scipy_reference(self, stride, padding):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 9, 9))
        weight = rng.standard_normal((4, 3, 3, 3))
        bias = rng.standard_normal(4)
        reference = _naive_conv2d(x, weight, bias, stride=stride, padding=padding)
        # The same values stored channels-last, as every conv output is.
        channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        for values in (x, channels_last):
            ours = F.conv2d(values, weight, bias, stride=stride, padding=padding)
            np.testing.assert_allclose(ours, reference, atol=1e-10)
            assert ours.transpose(0, 2, 3, 1).flags.c_contiguous
        single = F.conv2d(
            x.astype(np.float32),
            weight.astype(np.float32),
            bias.astype(np.float32),
            stride=stride,
            padding=padding,
        )
        assert single.dtype == np.float32
        np.testing.assert_allclose(single, reference, atol=1e-4)

    def test_identity_kernel(self):
        x = np.random.default_rng(2).random((1, 1, 5, 5))
        weight = np.zeros((1, 1, 3, 3))
        weight[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, weight, padding=1)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            F.conv2d(np.ones((1, 2, 4, 4)), np.ones((1, 3, 3, 3)))

    def test_rectangular_kernel_rejected(self):
        with pytest.raises(ValueError, match="square"):
            F.conv2d(np.ones((1, 1, 4, 4)), np.ones((1, 1, 2, 3)))

    @given(st.integers(min_value=1, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_linearity(self, c_out):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 6, 6))
        y = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((c_out, 2, 3, 3))
        left = F.conv2d(x + y, w, padding=1)
        right = F.conv2d(x, w, padding=1) + F.conv2d(y, w, padding=1)
        np.testing.assert_allclose(left, right, atol=1e-10)


def _window_maxpool(x, kernel, stride):
    """Reference max pool: an ``as_strided`` window view reduced over its
    two window axes (the form ``F.maxpool2d`` replaced)."""
    n, c, h, w = x.shape
    h_out = (h - kernel) // stride + 1
    w_out = (w - kernel) // stride + 1
    s_n, s_c, s_h, s_w = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, h_out, w_out, kernel, kernel),
        strides=(s_n, s_c, s_h * stride, s_w * stride, s_h, s_w),
        writeable=False,
    )
    return windows.max(axis=(4, 5))


class TestPooling:
    @pytest.mark.parametrize("kernel, stride", [(2, 2), (3, 2), (2, 1)])
    @pytest.mark.parametrize("channels_last", [True, False])
    def test_maxpool_matches_window_reduction(self, kernel, stride, channels_last):
        """Same values and same memory layout as the window reduction,
        on odd H and W (a dropped last row and column at stride 2)."""
        rng = np.random.default_rng(10 * kernel + stride)
        x = rng.standard_normal((3, 9, 7, 5))  # (N, H, W, C)
        x = x.transpose(0, 3, 1, 2) if channels_last else np.ascontiguousarray(x.transpose(0, 3, 1, 2))
        for dtype in (np.float64, np.float32):
            xd = x.astype(dtype, order="K")
            out = F.maxpool2d(xd, kernel=kernel, stride=stride)
            expected = _window_maxpool(xd, kernel, stride)
            assert out.dtype == expected.dtype
            np.testing.assert_array_equal(out, expected)
            assert out.strides == expected.strides

    def test_maxpool_simple(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.maxpool2d(x, kernel=2)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_is_max_of_window(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 8, 8))
        out = F.maxpool2d(x, kernel=2)
        assert out.shape == (2, 3, 4, 4)
        assert out[0, 0, 0, 0] == x[0, 0, :2, :2].max()

    def test_maxpool_monotone(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 1, 8, 8))
        out1 = F.maxpool2d(x, kernel=2)
        out2 = F.maxpool2d(x + 1.0, kernel=2)
        np.testing.assert_allclose(out2, out1 + 1.0)

    def test_global_max_pool(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 5, 4, 4))
        out = F.global_max_pool(x)
        assert out.shape == (2, 5)
        assert out[1, 3] == x[1, 3].max()


class TestActivationsAndLinear:
    def test_relu(self):
        np.testing.assert_array_equal(F.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_idempotent(self):
        x = np.random.default_rng(7).standard_normal(20)
        np.testing.assert_array_equal(F.relu(F.relu(x)), F.relu(x))

    def test_linear(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([0.0, 1.0, -1.0])
        np.testing.assert_allclose(F.linear(x, w, b), [[1.0, 3.0, 2.0]])

    def test_flatten(self):
        x = np.zeros((2, 3, 4, 5))
        assert F.flatten(x).shape == (2, 60)


class TestSoftmax:
    def test_sums_to_one(self):
        x = np.random.default_rng(8).standard_normal((5, 7))
        np.testing.assert_allclose(F.softmax(x).sum(axis=1), 1.0)

    def test_shift_invariance(self):
        x = np.random.default_rng(9).standard_normal((3, 4))
        np.testing.assert_allclose(F.softmax(x), F.softmax(x + 100.0), atol=1e-12)

    def test_extreme_values_stable(self):
        x = np.array([[1000.0, -1000.0]])
        out = F.softmax(x)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(10).standard_normal((4, 6))
        np.testing.assert_allclose(F.log_softmax(x), np.log(F.softmax(x)), atol=1e-10)

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_softmax_preserves_argmax(self, k):
        x = np.random.default_rng(k).standard_normal((3, k))
        np.testing.assert_array_equal(F.softmax(x).argmax(axis=1), x.argmax(axis=1))
