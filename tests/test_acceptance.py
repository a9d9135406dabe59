"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines. Criteria needing the real MNIST files look them up under
$DATA_DIR and skip with fetch instructions when absent; everything else
runs self-contained.
"""
import os

import numpy as np
import pytest

from maxmin_cnn import layers as L
from maxmin_cnn import models
from maxmin_cnn.data import LabeledImages, load_mnist, split_train_val
from maxmin_cnn.train import TrainConfig, evaluate, grad_check, train

from layer_probe import probe_grad_check

rng = None  # each test gets its own generator, seeded in conftest.py


def _report(criterion, passed):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed, criterion


def _mnist_paths():
    data_dir = os.environ.get("DATA_DIR", "")
    paths = [os.path.join(data_dir, p) for p in
             ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
              "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")]
    if data_dir and all(os.path.exists(p) for p in paths):
        return paths
    return None


def _synthetic(n, shape=(1, 32, 32), seed=0):
    r = np.random.default_rng(seed)
    return LabeledImages(r.random((n,) + shape), r.integers(0, 10, n))


class TestCriterion1GradientChecks:
    # each case is a one-step network: a layer, or a fused [MaxMin,] ReLU, MaxPool step
    LAYER_CASES = [
        ("conv2d", lambda: [_scaled(L.Conv2D(2, 3, 3, stride=1, pad=1,
                                             rng=np.random.default_rng(0)))], (2, 2, 6, 6)),
        ("maxmin", lambda: [L.MaxMin()], (2, 3, 5, 5)),
        ("relu", lambda: [L.ReLU()], (2, 3, 5, 5)),
        ("maxpool", lambda: [L.MaxPool(3, 2)], (2, 2, 7, 7)),
        ("maxmin_relu_pool", lambda: [L.MaxMin(), L.ReLU(), L.MaxPool(3, 2)], (2, 2, 7, 7)),
        ("relu_pool", lambda: [L.ReLU(), L.MaxPool(3, 2)], (2, 2, 7, 7)),
        ("lrn", lambda: [L.LRN(depth_radius=2, k=1.0, alpha=0.5, beta=0.75)], (2, 6, 4, 4)),
        ("dense", lambda: [_scaled(L.Dense(12, 7, rng=np.random.default_rng(1)))], (4, 12)),
        ("dropout_eval", lambda: [L.Dropout(0.4, rng=np.random.default_rng(2))], (3, 4, 4, 4)),
    ]

    @pytest.mark.parametrize("name,factory,shape", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
    def test_each_layer(self, name, factory, shape):
        assert len(models.Network(None, factory(), seed=0).steps) == 1
        x = np.random.default_rng(sum(map(ord, name))).standard_normal(shape)
        report = probe_grad_check(factory(), x, tolerance=1e-4, step=1e-5)
        _report(f"1. layer gradients ({name})", report.passed)

    @pytest.mark.parametrize("kind", ["baseline", "maxmin"])
    def test_full_mnist_preset(self, kind):
        net = models.build_net("mnist", kind, seed=1)
        r = np.random.default_rng(1)
        x = r.random((2, 1, 32, 32))
        y = r.integers(0, 10, 2)
        report = grad_check(net, x, y, tolerance=1e-4, step=1e-5, samples_per_layer=200)
        _report(f"1. full MNIST {kind} preset gradients "
                f"(max err {report.max_error:.2e})", report.passed)


def _scaled(layer, scale=0.5):
    for _, v, _ in layer.params():
        if v.ndim > 1:
            v[...] = np.random.default_rng(0).standard_normal(v.shape) * scale
    return layer


class TestCriterion2MaxMinAlgebra:
    N_TENSORS = 1000

    def test_halves_are_exact_negations(self):
        ok = True
        for batch in range(10):
            x = np.random.default_rng(batch).standard_normal((self.N_TENSORS // 10, 3, 4, 4))
            out = L.MaxMin().forward(x)
            ok &= np.array_equal(out[:, 3:], -out[:, :3])
        _report("2a. maxmin halves b == -a exactly", ok)

    def test_post_relu_sparsity(self):
        ok = True
        for batch in range(10):
            x = np.random.default_rng(100 + batch).standard_normal(
                (self.N_TENSORS // 10, 3, 4, 4))
            out = L.ReLU().forward(L.MaxMin().forward(x))
            ok &= not (out[:, :3] * out[:, 3:]).any()
        _report("2b. relu(maxmin) halves multiply to exactly 0", ok)

    def test_per_window_identity(self):
        ok = True
        r = np.random.default_rng(7)
        for _ in range(self.N_TENSORS):
            window = r.standard_normal(9)
            lhs = (np.maximum(window, 0).max(), np.maximum(-window, 0).max())
            rhs = (max(window.max(), 0.0), max(-window.min(), 0.0))
            ok &= lhs == rhs
        _report("2c. (max relu X, max relu -X) == (relu max X, relu -min X)", ok)

    def test_pool_relu_commutation(self):
        ok = True
        for batch in range(10):
            x = np.random.default_rng(200 + batch).standard_normal(
                (self.N_TENSORS // 10, 2, 6, 6))
            a = L.MaxPool(3, 2).forward(L.ReLU().forward(x))
            b = L.ReLU().forward(L.MaxPool(3, 2).forward(x))
            ok &= np.array_equal(a, b)
        _report("2d. maxpool(relu) == relu(maxpool) exactly", ok)


class TestCriterion3Reduction:
    def test_zeroed_maxmin_matches_baseline_logits(self):
        net = models.build_net("mnist", "maxmin", seed=3)
        reduced, baseline = models.reduce_to_baseline(net)
        worst = 0.0
        r = np.random.default_rng(3)
        for _ in range(100):
            x = r.random((1, 1, 32, 32))
            worst = max(worst, float(np.abs(reduced.forward(x) - baseline.forward(x)).max()))
        _report(f"3. reduction to plain CNN, worst logit diff {worst:.2e}", worst <= 1e-12)


class TestCriterion4FilterNegation:
    def test_negated_filter_gives_negated_map(self):
        conv = L.Conv2D(3, 4, 5, pad=2, rng=np.random.default_rng(0))
        conv.weights[...] = np.random.default_rng(4).normal(0.0, 0.5, conv.weights.shape)
        x = rng.standard_normal((2, 3, 10, 10))
        pos = conv.forward(x)
        conv.weights[...] *= -1
        conv.bias[...] *= -1
        neg = conv.forward(x)
        _report("4. conv(x, -W, -b) == -conv(x, W, b) exactly",
                np.array_equal(neg, -pos))


class TestCriterion5Determinism:
    def test_two_seeded_runs_bit_identical(self):
        paths = _mnist_paths()
        if paths:
            full = load_mnist(paths[0], paths[1])
            subset = full.subset(np.arange(512))
        else:
            subset = _synthetic(512, seed=5)
        train_split, val_split = split_train_val(subset, 0.1, seed=5)

        def run():
            net = models.build_net("mnist", "maxmin", filters=(4, 4, 4), seed=5)
            config = TrainConfig(epochs=2, batch_size=32, seed=5, learning_rate=0.01)
            net, metrics = train(net, train_split, val_split, config)
            weights = np.concatenate([v.reshape(-1) for _, _, v, _ in net.params()])
            return weights, [(m.epoch, m.train_loss, m.train_acc, m.val_acc, m.lr)
                             for m in metrics]

        w1, m1 = run()
        w2, m2 = run()
        _report("5. identically-seeded 2-epoch runs bit-identical",
                np.array_equal(w1, w2) and m1 == m2)


class TestCriterion6DeskScaleTraining:
    def test_mnist_subset_accuracy(self):
        paths = _mnist_paths()
        if paths is None:
            pytest.skip(
                "MNIST files not found: set $DATA_DIR to a directory holding the "
                "decompressed IDX files (see README for fetch instructions)")
        full = load_mnist(paths[0], paths[1])
        test = load_mnist(paths[2], paths[3])
        subset = full.subset(np.arange(10_000))
        train_split, val_split = split_train_val(subset, 0.05, seed=6)
        accs = {}
        for kind in ("baseline", "maxmin"):
            net = models.build_net("mnist", kind, seed=6, dtype=np.float32)
            config = TrainConfig(epochs=5, batch_size=64, seed=6, learning_rate=0.01,
                                 weight_decay=1e-3)
            net, _ = train(net, train_split, val_split, config)
            accs[kind] = evaluate(net, test)
        print(f"[acceptance] 6. desk-scale accuracies: {accs}")
        _report("6. baseline >= 95% on MNIST subset", accs["baseline"] >= 0.95)
        _report("6. maxmin within 0.3pp of baseline",
                accs["maxmin"] >= accs["baseline"] - 0.003)


class TestCriterion7InitializationSanity:
    @pytest.mark.parametrize("dataset,shape", [
        ("mnist", (1, 32, 32)),
        ("cifar10", (3, 32, 32)),
    ])
    def test_initial_loss_near_ln10(self, dataset, shape):
        paths = _mnist_paths() if dataset == "mnist" else None
        if paths:
            data = load_mnist(paths[0], paths[1]).subset(np.arange(256))
        else:
            data = _synthetic(256, shape, seed=7)
        worst = 0.0
        for kind in ("baseline", "maxmin"):
            net = models.build_net(dataset, kind, seed=7)
            loss, _ = net.loss(data.images, data.labels)
            worst = max(worst, abs(loss - np.log(10)) / np.log(10))
        _report(f"7. init loss within 5% of ln 10 ({dataset}, dev {worst:.3%})",
                worst < 0.05)
