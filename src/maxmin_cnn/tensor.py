"""Dense array primitives used by every layer.

Tensors are plain numpy arrays indexed NCHW (2-D for matrices, 1-D for
vectors); a result may be a strided view of channel-major memory.
Operations here never mutate their inputs; the optimizer is the only
place parameters are updated in place.
"""
import functools

import numpy as np

from .errors import ConfigError, ShapeError


def conv_out_size(size, k, stride, pad):
    """Output extent of a convolution along one spatial axis."""
    if k < 1 or stride < 1 or pad < 0:
        raise ConfigError(f"invalid convolution geometry k={k} stride={stride} pad={pad}")
    span = size + 2 * pad - k
    if span < 0 or span % stride != 0:
        raise ConfigError(
            f"non-integral output size for input {size}, kernel {k}, stride {stride}, pad {pad}"
        )
    return span // stride + 1


def pool_out_size(size, window, stride):
    """Output extent of an edge-clamped pool: ceil((size - window) / stride) + 1."""
    if window > size:
        raise ConfigError(f"MaxPool: window {window} exceeds input extent {size}")
    return -((size - window) // -stride) + 1


def im2col(x, kh, kw, stride, pad):
    """Lower NCHW input to a (C*kh*kw, N*Ho*Wo) patch matrix.

    Column j holds the receptive field of output position j, where j
    enumerates (n, ho, wo) in row-major order; padding contributes zeros.
    """
    n, c, h, w = x.shape
    ho = conv_out_size(h, kh, stride, pad)
    wo = conv_out_size(w, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # N, C, Ho, Wo, kh, kw
    cols = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n * ho * wo)
    return np.ascontiguousarray(cols)


@functools.lru_cache(maxsize=None)
def conv_dft(h, w, pad, kernel, dtype):
    """Real 2-D DFT matrices for a stride-1 conv of an h x w input.

    The transform size is the padded input, P x Q = (h + 2*pad) x
    (w + 2*pad). On it the circular correlation of the input with the
    kernel equals the conv at the output positions, and the circular
    forms of its two gradients equal them at the kernel taps and at the
    input positions: nothing wraps. Only the half spectrum v <= Q // 2 of
    the last axis is kept, F = P * (Q//2 + 1) frequencies. A spectrum of m
    maps is planar, a (2F, m) matrix with one row per (frequency, re/im),
    so a transform is one GEMM.

    Returns ``(inputs, taps, outputs)``: for the input block at offset
    ``pad``, the k x k taps and the output block at offset 0, a pair
    ``(forward, inverse)`` of (2F, rows*cols) matrices. ``forward`` maps
    the block's values to their spectrum; ``inverse`` maps a Hermitian
    half spectrum, such as a product of two spectra, back to the real
    values at the block. The arrays are shared and read-only.
    """
    p, q = h + 2 * pad, w + 2 * pad
    half = q // 2 + 1
    v = np.arange(half)
    mirrored = np.where((v == 0) | (2 * v == q), 1.0, 2.0)  # column v also stands for Q - v
    scale = np.repeat(np.tile(mirrored, p), 2)[:, None] / (p * q)

    def block(offset, rows, cols):
        u = np.arange(p)[:, None, None, None]
        s = offset + np.arange(rows)[:, None]
        t = offset + np.arange(cols)
        turns = (u * s % p) / p + (v[:, None, None] * t % q) / q
        angle = 2.0 * np.pi * turns  # (P, half, rows, cols)
        forward = np.stack((np.cos(angle), -np.sin(angle)), axis=2).reshape(2 * p * half, -1)
        pair = (forward.astype(dtype), (scale * forward).astype(dtype))
        for a in pair:
            a.setflags(write=False)
        return pair

    out_h, out_w = p - kernel + 1, q - kernel + 1
    return block(pad, h, w), block(0, kernel, kernel), block(0, out_h, out_w)


def col2im(cols, x_shape, kh, kw, stride, pad):
    """Adjoint of im2col: scatter-add columns back onto an NCHW canvas.

    The canvas is channel-major, (C, N, Hp, Wp), so each tap adds one
    (C, N, Ho, Wo) block of ``cols`` without a transpose; the result is
    an NCHW view of it.
    """
    n, c, h, w = x_shape
    ho = conv_out_size(h, kh, stride, pad)
    wo = conv_out_size(w, kw, stride, pad)
    if cols.shape != (c * kh * kw, n * ho * wo):
        raise ShapeError(
            f"col2im: expected columns of shape {(c * kh * kw, n * ho * wo)}, got {cols.shape}"
        )
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    blocks = cols.reshape(c, kh, kw, n, ho, wo)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += blocks[:, i, j]
    return xp[:, :, pad:pad + h, pad:pad + w].transpose(1, 0, 2, 3)
