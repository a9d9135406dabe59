"""Dataset ingestion, splits, augmentation, and ZCA whitening.

Loaders read the canonical on-disk formats (MNIST IDX, CIFAR-10 binary
batches) and never download; see the README for fetch instructions.
All loading is bit-exact: the same files always produce the same arrays.
"""
import dataclasses
import os
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073
MNIST_SIDE = 28


@dataclasses.dataclass
class LabeledImages:
    """NCHW images scaled to [0, 1] with integer labels."""
    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise DataError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )

    def __len__(self):
        return len(self.labels)

    def subset(self, indices):
        return LabeledImages(self.images[indices], self.labels[indices])


def _read_idx_header(blob, path, magic, ndim):
    need = 4 * (1 + ndim)
    if len(blob) < need:
        raise DataError(f"{path}: truncated IDX header at byte {len(blob)}")
    fields = struct.unpack_from(f">{1 + ndim}I", blob, 0)
    if fields[0] != magic:
        raise DataError(f"{path}: bad IDX magic {fields[0]:#010x}, expected {magic:#010x}")
    return fields[1:], need


def load_mnist(images_path, labels_path):
    """Parse IDX files into 1x32x32 images (28x28 zero-padded by 2), /255."""
    with open(images_path, "rb") as fh:
        blob = fh.read()
    (n, rows, cols), off = _read_idx_header(blob, images_path, IDX_IMAGES_MAGIC, 3)
    if (rows, cols) != (MNIST_SIDE, MNIST_SIDE):
        raise DataError(f"{images_path}: images are {rows}x{cols}, "
                        f"expected {MNIST_SIDE}x{MNIST_SIDE}")
    if len(blob) - off < n * rows * cols:
        raise DataError(
            f"{images_path}: truncated image payload at byte {len(blob)}, "
            f"expected {off + n * rows * cols} bytes"
        )
    raw = np.frombuffer(blob, dtype=np.uint8, count=n * rows * cols, offset=off)
    # decode straight into the zero-padded result: no full-size temporaries
    images = np.zeros((n, 1, rows + 4, cols + 4))
    np.divide(raw.reshape(n, 1, rows, cols), 255.0, out=images[:, :, 2:-2, 2:-2])

    with open(labels_path, "rb") as fh:
        lblob = fh.read()
    (ln,), loff = _read_idx_header(lblob, labels_path, IDX_LABELS_MAGIC, 1)
    if ln != n:
        raise DataError(f"{labels_path}: {ln} labels for {n} images")
    if len(lblob) - loff < ln:
        raise DataError(f"{labels_path}: truncated label payload at byte {len(lblob)}")
    labels = np.frombuffer(lblob, dtype=np.uint8, count=ln, offset=loff)
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise DataError(f"{labels_path}: label {labels[bad[0]]} at byte {loff + bad[0]} "
                        "is out of range [0, 9]")
    return LabeledImages(images, labels.astype(np.int64))


def load_cifar10(batch_paths):
    """Load CIFAR-10 binary batches (1 label byte + 3072 planar RGB bytes).

    The batches decode one at a time into a single result sized from the
    file sizes, so no batch is held twice.
    """
    sizes = [os.path.getsize(path) for path in batch_paths]
    images = np.empty((sum(sizes) // CIFAR_RECORD_BYTES, 3, 32, 32))
    labels = np.empty(len(images), np.int64)
    start = 0
    for path, size in zip(batch_paths, sizes):
        with open(path, "rb") as fh:
            blob = fh.read(size)
        if len(blob) == 0 or len(blob) % CIFAR_RECORD_BYTES != 0:
            raise DataError(
                f"{path}: size {len(blob)} is not a multiple of {CIFAR_RECORD_BYTES}"
            )
        records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        if records[:, 0].max() > 9:
            raise DataError(f"{path}: label byte {records[:, 0].max()} out of range [0, 9]")
        batch = slice(start, start + len(records))
        labels[batch] = records[:, 0]
        np.divide(records[:, 1:].reshape(-1, 3, 32, 32), 255.0, out=images[batch])
        start = batch.stop
    return LabeledImages(images[:start], labels[:start])


def split_train_val(data, val_fraction, seed):
    """Deterministic shuffled split; disjoint and exhaustive."""
    if not 0.0 < val_fraction < 1.0:
        raise DataError(f"val_fraction must be in (0, 1), got {val_fraction}")
    perm = np.random.default_rng(seed).permutation(len(data))
    n_val = int(round(len(data) * val_fraction))
    return data.subset(perm[n_val:]), data.subset(perm[:n_val])


def augment(images, rng, hflip=True):
    """Random integer translation by up to 4 px with zero fill, then optional 50% h-flip."""
    n, c, h, w = images.shape
    m = 4
    padded = np.pad(images, ((0, 0), (0, 0), (m, m), (m, m)))
    # a shift of (dy, dx) reads the padded window whose corner is (m - dy, m - dx)
    top, left = (m - rng.integers(-m, m + 1, size=(n, 2))).T
    out = sliding_window_view(padded, (h, w), axis=(2, 3))[np.arange(n), :, top, left]
    if hflip:
        flip = rng.random(n) < 0.5
        out[flip] = out[flip][:, :, :, ::-1]
    return out


@dataclasses.dataclass
class ZcaTransform:
    """Per-pixel mean and symmetric whitening matrix U (L+eps)^-1/2 U^T."""
    mean: np.ndarray
    matrix: np.ndarray


def zca_fit(train_images, epsilon=0.1):
    """Fit ZCA whitening on training images only."""
    if epsilon <= 0:
        raise DataError(f"epsilon must be positive, got {epsilon}")
    n = train_images.shape[0]
    flat = train_images.reshape(n, -1)
    mean = flat.mean(axis=0)
    centered = flat - mean
    cov = centered.T @ centered / n
    del centered  # eigh's workspace is the peak; do not hold an image-sized copy under it
    if np.allclose(cov, 0.0):
        raise DataError("degenerate covariance: all training images are identical")
    dtype = cov.dtype
    # eigh works in float64 whatever it is given; converting here rather than
    # inside eigh lets a float32 covariance go before eigh allocates its workspace
    cov = cov.astype(np.float64, copy=False)
    eigvals, eigvecs = (a.astype(dtype, copy=False) for a in np.linalg.eigh(cov))
    eigvals = np.maximum(eigvals, 0.0)
    matrix = (eigvecs * (1.0 / np.sqrt(eigvals + epsilon))) @ eigvecs.T
    return ZcaTransform(mean=mean, matrix=matrix)


def zca_apply(transform, images):
    """Apply a fitted whitening transform; shape is preserved."""
    shape = images.shape
    flat = images.reshape(shape[0], -1)
    return ((flat - transform.mean) @ transform.matrix.T).reshape(shape)
