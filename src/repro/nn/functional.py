"""Stateless tensor operations for the numpy CNN substrate.

These implement the forward-pass primitives needed by the VGG-16
feature extractor used for GOGGLES' affinity functions: 2-D convolution
(via im2col + matmul), ReLU, max pooling, linear layers, and softmax.
Every array *shape* is NCHW, but :func:`conv2d` reads and writes
channels-last *memory*: it returns an ``(N, C, H, W)`` view over an
``(N, H, W, C)`` buffer, and ReLU and max pooling preserve that layout,
so the next convolution's patch rows are contiguous runs of channels
and the conv stack never makes a transposing copy.  The convolution
GEMM runs one image at a time: one image's patch matrix stays
cache-resident between its gather and its matmul, where the stacked
patch matrices of a whole batch do not (75 MB at conv1_2 for 32
64×64 images at the default width).
All functions compute in the input's dtype: float32 on the affinity
engine's default path, float64 at ``precision="float64"`` (the layer
objects cast their parameters to match the activations).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pad2d",
    "im2col",
    "conv2d",
    "relu",
    "maxpool2d",
    "global_max_pool",
    "linear",
    "softmax",
    "log_softmax",
    "flatten",
]


def pad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes of ``x`` by ``padding``."""
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if padding == 0:
        return x
    pad_width = [(0, 0)] * (x.ndim - 2) + [(padding, padding), (padding, padding)]
    return np.pad(x, pad_width, mode="constant")


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"kernel {kernel} with stride {stride} and padding {padding} "
            f"does not fit input of size {size}"
        )
    return out


def im2col(x: np.ndarray, kernel: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Sliding ``kernel``x``kernel`` patches of ``x``, channels innermost.

    Input ``x`` has shape ``(N, C, H, W)`` in any memory layout.  It is
    zero-padded into one ``(N, H + 2p, W + 2p, C)`` buffer, and the
    result is a read-only ``(N, H_out, W_out, kernel, kernel, C)`` view
    of that buffer.  Copying one image's patches out and reshaping gives
    its ``(H_out * W_out, kernel * kernel * C)`` column matrix, with the
    patch axis ordered ``(kh, kw, C)``: each ``(kw, C)`` row of a patch
    is one contiguous run of the buffer.
    """
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    n, c, h, w = x.shape
    h_out = _out_size(h, kernel, stride, padding)
    w_out = _out_size(w, kernel, stride, padding)
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    padded[:, padding : padding + h, padding : padding + w] = x.transpose(0, 2, 3, 1)
    s_n, s_h, s_w, s_c = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, h_out, w_out, kernel, kernel, c),
        strides=(s_n, s_h * stride, s_w * stride, s_h, s_w, s_c),
        writeable=False,
    )


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-D cross-correlation (the deep-learning "convolution").

    ``x``: ``(N, C_in, H, W)``; ``weight``: ``(C_out, C_in, kh, kw)`` with
    ``kh == kw``; ``bias``: ``(C_out,)`` or None.  Returns
    ``(N, C_out, H_out, W_out)`` as a view over an ``(N, H_out, W_out,
    C_out)`` buffer (see the module docstring for why).
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input/weight, got {x.shape} / {weight.shape}")
    c_out, c_in, kh, kw = weight.shape
    if kh != kw:
        raise ValueError(f"only square kernels are supported, got {kh}x{kw}")
    if x.shape[1] != c_in:
        raise ValueError(f"input has {x.shape[1]} channels, weight expects {c_in}")
    patches = im2col(x, kh, stride=stride, padding=padding)  # (N, H_out, W_out, kh, kw, C_in)
    n, h_out, w_out = patches.shape[:3]
    # Kernels flattened in the patch order (kh, kw, C_in): (K, C_out).
    kernel_matrix = weight.transpose(0, 2, 3, 1).reshape(c_out, -1).T
    out = np.empty((n, h_out * w_out, c_out), dtype=np.result_type(x, weight))
    cols = np.empty(patches.shape[1:], dtype=patches.dtype)
    cols_2d = cols.reshape(h_out * w_out, -1)
    for i in range(n):
        cols[...] = patches[i]
        np.matmul(cols_2d, kernel_matrix, out=out[i])
    if bias is not None:
        out += bias
    return out.reshape(n, h_out, w_out, c_out).transpose(0, 3, 1, 2)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise rectified linear unit."""
    return np.maximum(x, 0.0)


def maxpool2d(x: np.ndarray, kernel: int = 2, stride: int | None = None) -> np.ndarray:
    """Max pooling over non-overlapping (by default) spatial windows.

    The window offsets ``(di, dj)`` each select one strided slice of
    ``x`` holding that offset of every window, and ``kernel² − 1``
    elementwise maxima fold those slices together.  Each call runs over
    long runs of the input's memory (whole channel vectors on a
    channels-last input), where a reduction over the window axes would
    loop over ``kernel`` elements at a time, and the output keeps the
    input's memory layout.
    """
    if stride is None:
        stride = kernel
    _, _, h, w = x.shape
    h_end = stride * (_out_size(h, kernel, stride, 0) - 1) + 1
    w_end = stride * (_out_size(w, kernel, stride, 0) - 1) + 1
    windows = [
        x[:, :, di : di + h_end : stride, dj : dj + w_end : stride]
        for di in range(kernel)
        for dj in range(kernel)
    ]
    if kernel == 1:
        return windows[0].copy(order="K")
    out = np.maximum(windows[0], windows[1])
    for window in windows[2:]:
        np.maximum(out, window, out=out)
    return out


def global_max_pool(x: np.ndarray) -> np.ndarray:
    """2-D global max pooling: ``(N, C, H, W)`` -> ``(N, C)``.

    This is the channel "activation" used by the paper's top-Z channel
    selection (§3.1): the activation of a channel is the maximum value of
    its ``H×W`` matrix.
    """
    return x.max(axis=(2, 3))


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map ``x @ weight.T + bias`` with ``weight``: ``(out, in)``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def flatten(x: np.ndarray) -> np.ndarray:
    """Flatten all axes but the first: ``(N, ...)`` -> ``(N, prod(...))``."""
    return x.reshape(x.shape[0], -1)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
