import dataclasses
import types

import numpy as np
import pytest

import maxmin_cnn
from maxmin_cnn import layers as L
from maxmin_cnn import models
from maxmin_cnn.data import LabeledImages, zca_apply, zca_fit
from maxmin_cnn.errors import DivergenceError
from maxmin_cnn.layers import Dense
from maxmin_cnn.train import (METRICS_HEADER, EpochMetrics, GradCheckEntry, GradCheckReport,
                              TrainConfig, evaluate, grad_check, train, write_metrics)

from layer_probe import probe_grad_check

rng = None  # each test gets its own generator, seeded in conftest.py


def synthetic_data(n=20, shape=(1, 32, 32), classes=10, seed=0):
    r = np.random.default_rng(seed)
    return LabeledImages(r.random((n,) + shape), r.integers(0, classes, n))


def tiny_net(seed=0):
    return models.build_net("mnist", "maxmin", filters=(2, 2, 2), seed=seed)


def full_replay_oracle(net, x, labels, tolerance=1e-4, step=1e-5, samples_per_layer=200,
                       seed=0):
    """Reference grad_check without suffix replay: every loss and every kink
    signature comes from a forward through the whole network."""
    rng = np.random.default_rng(seed)
    x = np.ascontiguousarray(x)
    net.zero_grads()
    net.loss(x, labels, train=False)
    dx = net.backward()
    targets = [(i, name, p, g.copy()) for i, name, p, g in net.params()]
    targets.append((-1, "input", x, dx))

    def evaluate_at(flat, k, value):
        flat[k] = value
        loss, _ = net.loss(x, labels, train=False)
        return loss, b"".join(layer.kink_signature() for layer in net.layers)

    entries, skipped = [], 0
    for layer_idx, name, p, g in targets:
        picks = rng.choice(p.size, size=min(samples_per_layer, p.size), replace=False)
        flat = p.reshape(-1)
        for k in picks:
            orig = flat[k]
            lp, sig_p = evaluate_at(flat, k, orig + step)
            lm, sig_m = evaluate_at(flat, k, orig - step)
            flat[k] = orig
            numeric = (lp - lm) / (2.0 * step)
            analytic = g.reshape(-1)[k]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-5)
            if err > tolerance and sig_p != sig_m:
                skipped += 1
                continue
            entries.append(GradCheckEntry(layer_idx, name, int(k), float(analytic),
                                          float(numeric), err))
    entries.sort(key=lambda e: e.error, reverse=True)
    max_error = entries[0].error if entries else 0.0
    return GradCheckReport(
        passed=max_error <= tolerance, tolerance=tolerance, max_error=max_error,
        checked=len(entries), skipped_nonsmooth=skipped,
        worst=[e for e in entries if e.error > tolerance][:20] or entries[:5],
    )


class TestTrainLoop:
    def test_zero_epochs_is_noop(self):
        net = tiny_net(seed=1)
        before = [v.copy() for _, _, v, _ in net.params()]
        net, metrics = train(net, synthetic_data(), synthetic_data(seed=1),
                             TrainConfig(epochs=0))
        assert metrics == []
        for (_, _, v, _), b in zip(net.params(), before):
            np.testing.assert_array_equal(v, b)

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", 0.0), ("momentum", 1.0), ("weight_decay", -0.1),
        ("patience", 0), ("lr_factor", 1.5),
    ])
    def test_bad_optimiser_setting_fails_at_construction(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("epochs", -1), ("batch_size", 0), ("checkpoint_every", -1),
    ])
    def test_bad_loop_setting_fails_at_construction(self, field, value):
        """(epoch + 1) % -1 == 0 held every epoch: -1 checkpointed each one."""
        with pytest.raises(ValueError, match=f"{field}={value}"):
            TrainConfig(**{"epochs": 1, field: value})

    def test_smoke_run_loss_decreases(self):
        data = synthetic_data(10, seed=2)
        net = tiny_net(seed=2)
        config = TrainConfig(epochs=4, batch_size=10, seed=2, learning_rate=0.5)
        net, metrics = train(net, data, data, config)
        losses = [m.train_loss for m in metrics]
        assert losses[-1] < losses[0]

    def test_identical_seeds_bit_identical(self):
        def run():
            net = tiny_net(seed=3)
            config = TrainConfig(epochs=2, batch_size=8, seed=3, learning_rate=0.05)
            net, metrics = train(net, synthetic_data(24, seed=4),
                                 synthetic_data(8, seed=5), config)
            weights = np.concatenate([v.reshape(-1) for _, _, v, _ in net.params()])
            return weights, [(m.train_loss, m.val_acc, m.lr) for m in metrics]

        w1, m1 = run()
        w2, m2 = run()
        np.testing.assert_array_equal(w1, w2)
        assert m1 == m2

    def test_boosted_run_is_seeded_and_scores_whitened_val(self, tmp_path):
        """augment + zca on a small MaxMin/LRN/dropout net: ZCA fits a 192x192 covariance."""
        spec = models.NetworkSpec(input_shape=(3, 8, 8), num_classes=10, layers=[
            dict(kind="conv", **{"in": 3}, filters=2, kernel=3, stride=1, pad=1),
            dict(kind="maxmin"), dict(kind="relu"), dict(kind="pool", window=2, stride=2),
            dict(kind="lrn", groups=2, **models.LRN_DEFAULTS), dict(kind="flatten"),
            dict(kind="dropout", p=0.5), dict(kind="dense", **{"in": 64}, out=10),
        ])
        train_data = synthetic_data(32, shape=(3, 8, 8), seed=10)
        val_data = synthetic_data(40, shape=(3, 8, 8), seed=11)
        test_data = synthetic_data(40, shape=(3, 8, 8), seed=12)

        def run(out):
            config = TrainConfig(epochs=3, batch_size=8, seed=0, learning_rate=1.0,
                                 augment=True, zca=True, checkpoint_every=1, out_dir=str(out),
                                 eval_test=True)
            _, metrics = train(models.build_network(spec), train_data, val_data, config,
                               test_data=test_data)
            return [dataclasses.replace(m, seconds=0.0) for m in metrics]

        m1, m2 = run(tmp_path / "a"), run(tmp_path / "b")
        assert m1 == m2
        zca = zca_fit(train_data.images)
        whitened = dataclasses.replace(val_data, images=zca_apply(zca, val_data.images))
        whitened_test = dataclasses.replace(test_data, images=zca_apply(zca, test_data.images))
        raw_accs = []
        for m in m1:
            name = f"epoch_{m.epoch}.bin"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            net = models.load_weights(tmp_path / "a" / name, spec)
            assert m.val_acc == evaluate(net, whitened)
            assert m.test_acc == evaluate(net, whitened_test)
            raw_accs.append(evaluate(net, val_data))
        # at this rate epoch 1 scores 0.075 whitened and 0.175 raw on val (0.025
        # and 0.075 on test): scoring unwhitened images would fail the checks above
        assert raw_accs != [m.val_acc for m in m1]

    def test_divergence_aborts_with_coordinates(self):
        net = tiny_net(seed=6)
        for _, name, v, _ in net.params():
            if name == "weights":
                v *= 1e12  # force overflow
        with pytest.raises(DivergenceError, match=r"epoch 0 batch \d+"):
            train(net, synthetic_data(8, seed=6), synthetic_data(4, seed=7),
                  TrainConfig(epochs=1, batch_size=4, learning_rate=10.0))

    def test_nan_input_is_reported_not_zeroed(self):
        """ReLU and pooling carry a NaN through, so the loss itself is non-finite."""
        data = synthetic_data(8, seed=6)
        data.images[3, 0, 10, 10] = np.nan
        with pytest.raises(DivergenceError, match=r"non-finite loss at epoch 0 batch 0"):
            train(tiny_net(seed=6), data, synthetic_data(4, seed=7),
                  TrainConfig(epochs=1, batch_size=8))

    def test_checkpoints_and_metrics_files(self, tmp_path):
        net = tiny_net(seed=8)
        out = tmp_path / "run"
        config = TrainConfig(epochs=2, batch_size=10, seed=8, checkpoint_every=1,
                             out_dir=str(out))
        train(net, synthetic_data(10, seed=8), synthetic_data(5, seed=9), config)
        assert (out / "best.bin").exists()
        assert (out / "epoch_0.bin").exists() and (out / "epoch_1.bin").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("# config: {")
        assert lines[1] == METRICS_HEADER
        assert len(lines) == 4

    def test_metrics_carry_param_count(self, tmp_path):
        net = tiny_net(seed=1)
        path = tmp_path / "m.csv"
        write_metrics(path, TrainConfig(epochs=0), [], net=net)
        assert f'"param_count": {net.param_count()}' in path.read_text()

    def test_metrics_write_that_raises_partway_keeps_the_previous_file(self, tmp_path):
        net = tiny_net(seed=1)
        path = tmp_path / "metrics.csv"
        row = EpochMetrics(0, 2.3, 0.1, 0.1, None, 0.01, 1.0)
        write_metrics(path, TrainConfig(epochs=1), [row], net=net)
        before = path.read_text()

        def rows_then_fail():
            yield row
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_metrics(path, TrainConfig(epochs=2), rows_then_fail(), net=net)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]


class TestEvaluate:
    def test_perfect_net(self):
        class Oracle:
            def forward(self, x, train=False):
                return np.eye(10)[labels_batch]

        data = synthetic_data(30, seed=10)
        global labels_batch
        # 30 images fit in one evaluate() batch, so the oracle sees them all at once
        labels_batch = data.labels
        assert evaluate(Oracle(), data) == 1.0

    def test_constant_logits_tie_rule(self):
        class Constant:
            def forward(self, x, train=False):
                return np.zeros((x.shape[0], 10))

        data = synthetic_data(200, seed=11)
        expected = float((data.labels == 0).mean())
        assert evaluate(Constant(), data) == expected

    def test_forwards_at_most_the_training_batch(self):
        sizes = []

        class Spy:
            def forward(self, x, train=False):
                sizes.append(len(x))
                return np.zeros((len(x), 10))

        evaluate(Spy(), synthetic_data(200, seed=13))
        assert sum(sizes) == 200
        assert max(sizes) <= 64

    def test_random_net_near_chance(self):
        net = tiny_net(seed=12)
        data = synthetic_data(400, seed=12)
        assert abs(evaluate(net, data) - 0.1) < 0.08


class TestGradCheck:
    def test_linear_layer_tight(self):
        layer = Dense(8, 5, rng=np.random.default_rng(0))
        layer.weights[...] = np.random.default_rng(1).normal(0.0, 1.0, layer.weights.shape)
        report = probe_grad_check([layer], rng.standard_normal((4, 8)), tolerance=1e-8)
        assert report.passed, str(report)

    def test_full_tiny_net_passes(self):
        net = tiny_net(seed=13)
        x = rng.random((2, 1, 32, 32))
        y = rng.integers(0, 10, 2)
        report = grad_check(net, x, y, tolerance=1e-4, samples_per_layer=40)
        assert report.passed, str(report)

    def test_corrupted_backward_reported(self, monkeypatch):
        layer = Dense(8, 5, rng=np.random.default_rng(0))
        layer.weights[...] = np.random.default_rng(2).normal(0.0, 1.0, layer.weights.shape)
        orig = Dense.backward

        def sign_flipped(self, grad_out):
            out = orig(self, grad_out)
            self.w_grad *= -1.0
            return out

        monkeypatch.setattr(Dense, "backward", sign_flipped)
        report = probe_grad_check([layer], rng.standard_normal((4, 8)), tolerance=1e-4)
        assert not report.passed
        assert any(e.name == "weights" for e in report.worst)


REPLAY_NETS = {
    "mnist-maxmin": (lambda: tiny_net(seed=21), (1, 32, 32)),
    "mnist-baseline": (lambda: models.build_net("mnist", "baseline", filters=(2, 2, 2), seed=22),
                       (1, 32, 32)),
    # Dropout, Dense and two-group LRN
    "cifar-maxmin-boost": (lambda: models.build_net("cifar10", "maxmin", (2, 2, 2), boost=True,
                                                    seed=23), (3, 32, 32)),
}


class TestSuffixReplay:
    @pytest.mark.parametrize("preset", sorted(REPLAY_NETS))
    @pytest.mark.parametrize("tolerance,step", [(1e-4, 1e-5), (1e-8, 1e-3)])
    def test_matches_full_replay(self, preset, tolerance, step):
        build, shape = REPLAY_NETS[preset]
        r = np.random.default_rng(24)
        x = r.random((2,) + shape)
        y = r.integers(0, 10, 2)
        kwargs = dict(tolerance=tolerance, step=step, samples_per_layer=12, seed=5)
        report = grad_check(build(), x.copy(), y, **kwargs)
        oracle = full_replay_oracle(build(), x.copy(), y, **kwargs)
        assert str(report) == str(oracle)
        assert report.checked == oracle.checked
        assert report.skipped_nonsmooth == oracle.skipped_nonsmooth
        assert report.worst == oracle.worst
        if tolerance < 1e-4:
            # the tight run exercises both branches of the kink rule
            assert not report.passed and report.skipped_nonsmooth > 0

    def test_wrong_gradient_in_a_middle_layer_fails(self):
        net = tiny_net(seed=25)
        convs = [i for i, layer in enumerate(net.layers) if isinstance(layer, L.Conv2D)]
        conv2 = net.layers[convs[1]]
        backward = conv2.backward

        def sign_flipped(grad_out, **kwargs):
            out = backward(grad_out, **kwargs)
            conv2.w_grad *= -1.0
            return out

        conv2.backward = sign_flipped
        r = np.random.default_rng(26)
        report = grad_check(net, r.random((2, 1, 32, 32)), r.integers(0, 10, 2),
                            samples_per_layer=20)
        assert not report.passed
        assert {(e.layer, e.name) for e in report.worst} == {(convs[1], "weights")}


LAYER_INPUTS = [
    ("conv-input-side", lambda: L.Conv2D(2, 3, 5, pad=2, rng=np.random.default_rng(0)),
     (2, 2, 6, 6)),
    ("conv-dft", lambda: L.Conv2D(8, 8, 5, pad=2, rng=np.random.default_rng(0)),
     (13, 8, 4, 4)),
    ("maxmin", L.MaxMin, (2, 3, 5, 5)),
    ("relu", L.ReLU, (2, 3, 5, 5)),
    ("maxpool", lambda: L.MaxPool(3, 2), (2, 2, 7, 7)),
    ("lrn", lambda: L.LRN(alpha=0.5), (2, 6, 4, 4)),
    ("lrn-two-groups", lambda: L.LRN(alpha=0.5, groups=2), (2, 6, 4, 4)),
    ("flatten", L.Flatten, (2, 3, 4, 4)),
    ("dense", lambda: L.Dense(12, 7, rng=np.random.default_rng(1)), (4, 12)),
    ("dropout", lambda: L.Dropout(0.4, rng=np.random.default_rng(2)), (3, 4, 4, 4)),
]
CONV_LOWERINGS = {"conv-input-side": "im2col", "conv-dft": "dft"}  # conv-dft: 13 images reach the DFT


@pytest.mark.parametrize("train_mode", [False, True])
@pytest.mark.parametrize("name,factory,shape", LAYER_INPUTS, ids=[c[0] for c in LAYER_INPUTS])
def test_layers_leave_their_input_unchanged(name, factory, shape, train_mode):
    """Suffix replay reuses recorded layer inputs, so no pass may write into one."""
    r = np.random.default_rng(27)
    x = r.standard_normal(shape)
    before = x.tobytes()
    layer = factory()
    if name in CONV_LOWERINGS:
        assert layer.lowering(shape) == CONV_LOWERINGS[name]
    out = layer.forward(x, train=train_mode)
    layer.backward(r.standard_normal(out.shape))
    assert x.tobytes() == before


class TestInitLoss:
    @pytest.mark.parametrize("dataset,shape", [
        ("mnist", (1, 32, 32)),
        ("cifar10", (3, 32, 32)),
    ])
    def test_initial_loss_near_ln_k(self, dataset, shape):
        net = models.build_net(dataset, "maxmin", seed=14)
        x = np.random.default_rng(14).random((16,) + shape)
        y = np.random.default_rng(15).integers(0, 10, 16)
        loss, _ = net.loss(x, y)
        assert abs(loss - np.log(10)) / np.log(10) < 0.05


def test_package_train_attribute_is_the_module():
    """The package exports the module, so ``maxmin_cnn.train.train`` is the loop."""
    assert isinstance(maxmin_cnn.train, types.ModuleType)
    assert maxmin_cnn.train.train is train
