"""Seeded synthetic datasets in the canonical on-disk formats.

The files are read by ``maxmin_cnn.data.load_mnist`` / ``load_cifar10``
exactly as a user's downloaded files are, so loading, padding and
scaling run through the library's own code. Each class has its own
template (strokes for MNIST, coloured gratings for CIFAR-10) plus
per-image jitter and noise, so the labels are learnable. As in a real
dataset the classes are fixed: the templates come from CLASS_SEED, and
the seed a caller passes draws the labels, jitter and noise.

The layers care about two input properties, and both match the real data:
MNIST-like images are mostly exact zeros (ties in pooling windows and
exact-zero ReLU inputs); CIFAR-like images are dense RGB textures.
"""
import os
import struct

import numpy as np

NUM_CLASSES = 10
MNIST_SIDE = 28
MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
CIFAR_TRAIN_BATCHES = 5
# With templates drawn per seed, some seeds gave CIFAR classes that the
# boosted net did not separate within the benchmark's few training steps.
CLASS_SEED = 0


def _balanced_labels(rng, n):
    return rng.permutation(np.arange(n) % NUM_CLASSES).astype(np.uint8)


def _bezier_points(ctrl, steps=48):
    t = np.linspace(0.0, 1.0, steps)[:, None]
    p0, p1, p2 = ctrl
    return (1 - t) ** 2 * p0 + 2 * (1 - t) * t * p1 + t ** 2 * p2


def _render_strokes(strokes, radius):
    """Rasterise quadratic strokes; pixels farther than ``radius`` are exactly 0."""
    pts = np.concatenate([_bezier_points(s) for s in strokes])
    yy, xx = np.mgrid[0:MNIST_SIDE, 0:MNIST_SIDE]
    grid = np.stack([yy.ravel(), xx.ravel()], axis=1).astype(np.float64)
    dist = np.sqrt(((grid[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    return np.clip(1.0 - dist / radius, 0.0, 1.0).reshape(MNIST_SIDE, MNIST_SIDE)


def mnist_like(n, seed):
    """``n`` 28x28 uint8 stroke images and balanced uint8 labels."""
    classes = np.random.default_rng(CLASS_SEED)
    # two or three strokes per class, inside the central 20x20 box as in MNIST
    templates = [classes.uniform(5.0, 22.0, size=(classes.integers(2, 4), 3, 2))
                 for _ in range(NUM_CLASSES)]
    rng = np.random.default_rng(seed)
    labels = _balanced_labels(rng, n)
    images = np.empty((n, MNIST_SIDE, MNIST_SIDE), dtype=np.uint8)
    for i, label in enumerate(labels):
        strokes = templates[label] + rng.normal(0.0, 0.8, templates[label].shape)
        strokes += rng.integers(-2, 3, size=2)  # whole-digit translation
        ink = _render_strokes(strokes, radius=rng.uniform(1.6, 2.2))
        gain = rng.uniform(0.8, 1.0)
        images[i] = np.round(255.0 * gain * ink).astype(np.uint8)
    return images, labels


def cifar_like(n, seed):
    """``n`` 3x32x32 planar uint8 texture images and balanced uint8 labels."""
    classes = np.random.default_rng(CLASS_SEED)
    colours = classes.uniform(0.3, 1.0, size=(NUM_CLASSES, 3))
    freqs = classes.uniform(0.15, 0.9, size=(NUM_CLASSES, 2))
    angles = classes.uniform(0.0, np.pi, size=(NUM_CLASSES, 2))
    rng = np.random.default_rng(seed)
    labels = _balanced_labels(rng, n)
    yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
    images = np.empty((n, 3, 32, 32), dtype=np.uint8)
    for i, label in enumerate(labels):
        texture = np.zeros((32, 32))
        for f, a in zip(freqs[label], angles[label]):
            phase = rng.uniform(0.0, 2 * np.pi)
            texture += np.sin(f * (np.cos(a) * xx + np.sin(a) * yy) + phase)
        base = rng.uniform(90.0, 160.0)
        pixels = (base + 45.0 * colours[label][:, None, None] * texture
                  + rng.normal(0.0, 18.0, size=(3, 32, 32)))
        images[i] = np.clip(np.round(pixels), 0, 255).astype(np.uint8)
    return images, labels


def _write_idx(path, magic, array):
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{1 + array.ndim}i", magic, *array.shape))
        fh.write(np.ascontiguousarray(array, dtype=np.uint8).tobytes())


def write_mnist(directory, n_train, n_test, seed):
    """Write the four MNIST IDX files; returns ((train_x, train_y), (test_x, test_y))."""
    images, labels = mnist_like(n_train + n_test, seed)
    splits = ((images[:n_train], labels[:n_train]), (images[n_train:], labels[n_train:]))
    names = iter(MNIST_FILES)
    for x, y in splits:
        _write_idx(os.path.join(directory, next(names)), 0x00000803, x)
        _write_idx(os.path.join(directory, next(names)), 0x00000801, y)
    return splits


def _cifar_records(images, labels):
    return np.concatenate([labels[:, None], images.reshape(len(labels), -1)], axis=1).tobytes()


def write_cifar(directory, n_train, n_test, seed):
    """Write data_batch_1..5.bin and test_batch.bin; returns the splits as for MNIST."""
    if n_train < CIFAR_TRAIN_BATCHES:
        raise ValueError(f"need at least {CIFAR_TRAIN_BATCHES} training images, got {n_train}")
    images, labels = cifar_like(n_train + n_test, seed)
    splits = ((images[:n_train], labels[:n_train]), (images[n_train:], labels[n_train:]))
    parts = np.array_split(np.arange(n_train), CIFAR_TRAIN_BATCHES)
    for k, idx in enumerate(parts, start=1):
        with open(os.path.join(directory, f"data_batch_{k}.bin"), "wb") as fh:
            fh.write(_cifar_records(images[idx], labels[idx]))
    with open(os.path.join(directory, "test_batch.bin"), "wb") as fh:
        fh.write(_cifar_records(*splits[1]))
    return splits
