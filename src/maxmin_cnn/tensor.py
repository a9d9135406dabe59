"""Dense array primitives used by every layer.

Tensors are plain numpy arrays indexed NCHW (2-D for matrices, 1-D for
vectors); a result may be a strided view of channel-major memory.
Operations here never mutate their inputs; the optimizer is the only
place parameters are updated in place.
"""
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
    if window < 1 or stride < 1:
        raise ConfigError(f"MaxPool: invalid window {window} / stride {stride}")
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
