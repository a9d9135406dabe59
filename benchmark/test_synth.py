"""The synthetic dataset writer: exact read-back, byte-identical reruns, data properties."""
import os

import numpy as np
import pytest

import synth
from maxmin_cnn import data as D


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("writer", [synth.write_mnist, synth.write_cifar])
def test_same_seed_gives_byte_identical_files(tmp_path, writer):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    writer(str(tmp_path / "a"), 40, 10, seed=7)
    writer(str(tmp_path / "b"), 40, 10, seed=7)
    writer(str(tmp_path / "c"), 40, 10, seed=8)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_load_mnist_reads_back_what_was_written(tmp_path):
    (train_x, train_y), (test_x, test_y) = synth.write_mnist(str(tmp_path), 30, 12, seed=3)
    names = [str(tmp_path / n) for n in synth.MNIST_FILES]
    for (x, y), (img, lab) in (((train_x, train_y), names[:2]), ((test_x, test_y), names[2:])):
        loaded = D.load_mnist(img, lab)
        expected = np.pad(x.astype(np.float64) / 255.0, ((0, 0), (2, 2), (2, 2)))[:, None]
        assert np.array_equal(loaded.images, expected)
        assert np.array_equal(loaded.labels, y.astype(np.int64))


def test_load_cifar10_reads_back_what_was_written(tmp_path):
    (train_x, train_y), (test_x, test_y) = synth.write_cifar(str(tmp_path), 23, 9, seed=3)
    batches = [str(tmp_path / f"data_batch_{k}.bin") for k in range(1, 6)]
    loaded = D.load_cifar10(batches)
    assert np.array_equal(loaded.images, train_x.astype(np.float64) / 255.0)
    assert np.array_equal(loaded.labels, train_y.astype(np.int64))
    loaded = D.load_cifar10([str(tmp_path / "test_batch.bin")])
    assert np.array_equal(loaded.images, test_x.astype(np.float64) / 255.0)
    assert np.array_equal(loaded.labels, test_y.astype(np.int64))


def test_mnist_like_is_mostly_exact_zeros_and_cifar_like_is_dense():
    mnist, _ = synth.mnist_like(100, seed=1)
    cifar, _ = synth.cifar_like(100, seed=1)
    assert 0.05 < (mnist > 0).mean() < 0.35   # real MNIST: about 0.19
    assert (cifar == 0).mean() < 0.01


@pytest.mark.parametrize("make", [synth.mnist_like, synth.cifar_like])
def test_labels_are_balanced_and_learnable(make):
    x, y = make(400, seed=5)
    assert np.bincount(y, minlength=10).tolist() == [40] * 10
    # Spectrum magnitudes ignore where a stroke sits and a grating's phase.
    x = np.abs(np.fft.fft2(x.astype(np.float64))).reshape(len(y), -1)
    train, test = slice(0, 300), slice(300, None)
    means = np.stack([x[train][y[train] == c].mean(axis=0) for c in range(10)])
    dist = ((x[test][:, None, :] - means[None]) ** 2).sum(axis=2)
    accuracy = (dist.argmin(axis=1) == y[test]).mean()
    assert accuracy > 0.8   # nearest class mean; chance is 0.1
