import struct

import numpy as np
import pytest

from maxmin_cnn import layers as L
from maxmin_cnn import models
from maxmin_cnn.errors import ConfigError, WeightFileError
from maxmin_cnn.layers import Conv2D, Dense

rng = None  # each test gets its own generator, seeded in conftest.py


class TestPresets:
    def test_mnist_baseline_forward(self):
        net = models.build_net("mnist", "baseline", seed=1)
        logits = net.forward(rng.random((1, 1, 32, 32)))
        assert logits.shape == (1, 10)

    def test_mnist_maxmin_doubles_depth(self):
        spec = models.preset_spec("mnist", "maxmin")
        net = models.build_network(spec, seed=1)
        x = rng.random((1, 1, 32, 32))
        # run conv1 + maxmin and observe the doubled channel count
        out = net.layers[1].forward(net.layers[0].forward(x))
        assert out.shape[1] == 128

    def test_cifar_baseline_forward(self):
        net = models.build_net("cifar10", "baseline", seed=1)
        logits = net.forward(rng.random((2, 3, 32, 32)))
        assert logits.shape == (2, 10)

    def test_cifar_boost_has_lrn_and_dropout(self):
        kinds = [d["kind"] for d in models.preset_spec("cifar10", "maxmin", boost=True).layers]
        assert kinds.count("lrn") == 3
        assert kinds.count("dropout") == 2
        assert "lrn" not in [d["kind"] for d in models.preset_spec("cifar10", "maxmin").layers]

    @pytest.mark.parametrize("dataset,arch,boost,message", [
        ("svhn", "baseline", False, "unknown preset"),
        ("mnist", "minmax", False, "unknown preset"),
        ("mnist", "maxmin", True, "boost applies to cifar10 only"),
    ])
    def test_bad_preset_rejected(self, dataset, arch, boost, message):
        with pytest.raises(ConfigError, match=message):
            models.preset_spec(dataset, arch, boost=boost)

    @pytest.mark.parametrize("dataset,arch,boost,digest", [
        ("mnist", "baseline", False, "b56e7bac91e79526"),
        ("mnist", "maxmin", False, "be2959f30e1c3072"),
        ("cifar10", "baseline", False, "545cf52068a30863"),
        ("cifar10", "baseline", True, "2cfe7acc9001fa06"),
        ("cifar10", "maxmin", False, "54292aa8a489ccf3"),
        ("cifar10", "maxmin", True, "a2ec79a4b4be3948"),
    ])
    def test_spec_hash_is_pinned(self, dataset, arch, boost, digest):
        """Weight files carry this hash: a changed descriptor orphans every saved file."""
        assert models.preset_spec(dataset, arch, boost=boost).spec_hash().hex() == digest

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spec", [
        models.preset_spec("mnist", "baseline"), models.preset_spec("mnist", "maxmin"),
        models.preset_spec("cifar10", "baseline"), models.preset_spec("cifar10", "maxmin"),
        models.preset_spec("cifar10", "baseline", boost=True),
        models.preset_spec("cifar10", "maxmin", boost=True),
    ], ids=["mnist-baseline", "mnist-maxmin", "cifar-baseline", "cifar-maxmin",
            "cifar-baseline-boost", "cifar-maxmin-boost"])
    def test_every_layer_keeps_net_dtype(self, spec, dtype):
        net = models.build_network(spec, seed=4, dtype=dtype)
        x = np.random.default_rng(4).random((2,) + spec.input_shape).astype(dtype)
        for layer in net.layers:
            x = layer.forward(x, train=True)
            assert x.dtype == dtype, type(layer).__name__
        _, probs = net.loss_layer.forward(x, np.array([1, 7]))
        assert probs.dtype == dtype
        g = net.loss_layer.backward()
        for layer in reversed(net.layers):
            g = layer.backward(g)
            assert g.dtype == dtype, type(layer).__name__

    @pytest.mark.parametrize("kind", ["baseline", "maxmin"])
    def test_backward_without_input_gradient(self, kind):
        """train's backward skips conv1's input gradient; parameter gradients are unchanged."""
        x = np.random.default_rng(6).random((2, 1, 32, 32))
        grads = []
        for input_grad in (True, False):
            net = models.build_net("mnist", kind, filters=(2, 2, 2), seed=6)
            net.loss(x, np.array([3, 8]))
            dx = net.backward(input_grad=input_grad)
            assert (dx is None) == (not input_grad)
            grads.append(b"".join(g.tobytes() for _, _, _, g in net.params()))
        assert grads[0] == grads[1]

    def test_init_statistics(self):
        net = models.build_net("mnist", "baseline", seed=3)
        for _, name, value, _ in net.params():
            if name == "bias":
                assert not value.any()
            else:
                assert abs(value.std() - 0.01) < 0.002

    def test_gaussian_init_is_seeded(self):
        a = models.build_net("mnist", "maxmin", seed=5)
        b = models.build_net("mnist", "maxmin", seed=5)
        for (_, _, va, _), (_, _, vb, _) in zip(a.params(), b.params()):
            np.testing.assert_array_equal(va, vb)

    @pytest.mark.parametrize("conv,pool", [
        (dict(kernel=2, stride=2, pad=0), dict(window=2, stride=2)),  # (5 - 2) / 2
        (dict(kernel=3, stride=1, pad=1), dict(window=6, stride=2)),  # window > 5
    ])
    def test_bad_geometry_fails_at_build(self, conv, pool):
        spec = models.NetworkSpec(input_shape=(1, 5, 5), num_classes=10, layers=[
            dict(kind="conv", **{"in": 1}, filters=2, **conv),
            dict(kind="pool", **pool), dict(kind="flatten"),
            dict(kind="dense", **{"in": 8}, out=10),
        ])
        with pytest.raises(ConfigError):
            models.build_network(spec)

    TAIL = [dict(kind="flatten"), dict(kind="dense", **{"in": 64}, out=10)]

    @pytest.mark.parametrize("layers,match", [
        ([dict(kind="lrn", groups=0, **models.LRN_DEFAULTS)] + TAIL, "groups 0"),
        ([dict(kind="lrn", groups=3, **models.LRN_DEFAULTS)] + TAIL, "groups 3"),
        ([dict(kind="dense", **{"in": 64}, out=10)], "unflattened"),
        ([dict(kind="flatten"), dict(kind="dense", **{"in": 63}, out=10)], "63 features"),
        ([dict(kind="flatten"), dict(kind="dense", **{"in": 64}, out=9)], "9 outputs"),
        ([dict(kind="flatten")], "64 outputs"),
        ([dict(kind="flatten"), dict(kind="conv", **{"in": 64}, filters=10, kernel=1, stride=1,
                                     pad=0)], "conv cannot take flat input"),
        ([dict(kind="flatten"), dict(kind="pool", window=1, stride=1)] + TAIL[1:],
         "pool cannot take flat input"),
        # 10 channels of 1x1 are 10 values per image, but not flat class scores
        ([dict(kind="conv", **{"in": 4}, filters=10, kernel=4, stride=1, pad=0)],
         r"unflattened \[10, 1, 1\] map"),
        # a layer is built before its shape is checked: its constructor rejects
        # a negative size, which numpy's Gaussian draw would raise as ValueError
        ([dict(kind="conv", **{"in": 4}, filters=10, kernel=-1, stride=1, pad=0)] + TAIL,
         "kernel -1"),
        ([dict(kind="flatten"), dict(kind="dense", **{"in": 64}, out=-1)], "64->-1"),
        ([dict(kind="conv", **{"in": 3}, filters=4, kernel=1, stride=1, pad=0)] + TAIL,
         "conv expects 3 channels, chain provides 4"),
        ([dict(kind="softplus")] + TAIL, "unknown layer kind 'softplus'"),
        # a whole spec: the input shape is what is wrong
        (models.NetworkSpec((1, 4), 10, TAIL), r"input shape \(1, 4\) is not \(C, H, W\)"),
        (models.NetworkSpec((1, 4, 4, 4), 10, TAIL), r"input shape \(1, 4, 4, 4\) is not"),
    ], ids=["lrn-groups-0", "lrn-groups-3", "dense-unflattened", "dense-in", "dense-out",
            "no-dense", "conv-after-flatten", "pool-after-flatten", "ends-on-map",
            "conv-kernel", "dense-out-negative", "conv-in", "unknown-kind", "input-2d",
            "input-4d"])
    def test_bad_spec_fails_at_build(self, layers, match):
        spec = layers if isinstance(layers, models.NetworkSpec) else models.NetworkSpec(
            input_shape=(4, 4, 4), num_classes=10, layers=layers)
        with pytest.raises(ConfigError, match=match):
            models.build_network(spec)
        good = models.NetworkSpec(input_shape=(4, 4, 4), num_classes=10,
                                  layers=[dict(kind="lrn", groups=2, **models.LRN_DEFAULTS)]
                                  + self.TAIL)
        assert models.build_network(good).forward(np.zeros((1, 4, 4, 4))).shape == (1, 10)

    def test_flat_features_take_maxmin_lrn_relu_dropout(self):
        """Each of these runs on (N, features), so it may follow a flatten."""
        spec = models.NetworkSpec(input_shape=(4, 4, 4), num_classes=10, layers=[
            dict(kind="flatten"), dict(kind="maxmin"),
            dict(kind="lrn", groups=2, **models.LRN_DEFAULTS), dict(kind="relu"),
            dict(kind="dropout", p=0.5), dict(kind="dense", **{"in": 128}, out=10),
        ])
        net = models.build_network(spec, seed=2)
        x = np.random.default_rng(2).standard_normal((3, 4, 4, 4))
        for train in (True, False):
            loss, probs = net.loss(x, np.array([0, 5, 9]), train=train)
            assert probs.shape == (3, 10) and np.isfinite(loss)
            assert net.backward().shape == x.shape


PRESET_SPECS = {
    "mnist": models.preset_spec("mnist", "maxmin", (2, 2, 2)),
    "cifar10": models.preset_spec("cifar10", "maxmin", (2, 2, 2)),
    "cifar10-boost": models.preset_spec("cifar10", "maxmin", (2, 2, 2), boost=True),
    "mnist-baseline": models.preset_spec("mnist", "baseline", (2, 2, 2)),
    "cifar10-baseline": models.preset_spec("cifar10", "baseline", (2, 2, 2)),
    "cifar10-boost-baseline": models.preset_spec("cifar10", "baseline", (2, 2, 2), boost=True),
}
LAYER_KINDS = {L.Conv2D: "conv", L.MaxMin: "maxmin", L.ReLU: "relu", L.MaxPool: "pool",
               L.LRN: "lrn", L.Flatten: "flatten", L.Dense: "dense", L.Dropout: "dropout"}


class TestSignedRuns:
    """A network calls each [MaxMin,] ReLU, MaxPool run as its MaxPool with relu=2 (or 1)."""

    @pytest.mark.parametrize("name", sorted(PRESET_SPECS))
    def test_runs_never_call_their_maxmin_or_relu(self, name, monkeypatch):
        spec = PRESET_SPECS[name]
        net = models.build_network(spec, seed=3)
        called = []
        for cls in (L.MaxMin, L.ReLU):
            for attr in ("forward", "backward"):
                def spy(self, *args, _original=getattr(cls, attr), **kwargs):
                    called.append(self)
                    return _original(self, *args, **kwargs)
                monkeypatch.setattr(cls, attr, spy)
        x = np.random.default_rng(3).random((2,) + spec.input_shape)
        for train in (True, False):
            net.loss(x, np.array([1, 4]), train=train)
            net.backward()
        # only a ReLU after a Dense, outside every run, is called
        dense_relus = [b for a, b in zip(net.layers, net.layers[1:]) if isinstance(a, Dense)]
        assert all(any(layer is r for r in dense_relus) for layer in called)
        assert len(called) == 4 * len(dense_relus)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(PRESET_SPECS))
    def test_matches_calling_every_layer(self, name, dtype):
        spec = PRESET_SPECS[name]
        fused, chained = (models.build_network(spec, seed=5, dtype=dtype) for _ in range(2))
        x = np.random.default_rng(5).random((3,) + spec.input_shape).astype(dtype)
        y = np.array([0, 3, 9])
        loss, _ = fused.loss(x, y, train=True)
        dx = fused.backward()
        h = x
        for layer in chained.layers:
            h = layer.forward(h, train=True)
        ref_loss, _ = chained.loss_layer.forward(h, y)
        g = chained.loss_layer.backward()
        for layer in reversed(chained.layers):
            g = layer.backward(g)
        assert loss.tobytes() == ref_loss.tobytes()
        assert np.array_equal(dx, g)
        for (_, _, _, a), (_, _, _, b) in zip(fused.params(), chained.params()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", sorted(PRESET_SPECS))
    def test_layers_and_param_indices_follow_the_spec(self, name):
        spec = PRESET_SPECS[name]
        net = models.build_network(spec)
        assert [LAYER_KINDS[type(layer)] for layer in net.layers] == [
            d["kind"] for d in spec.layers]
        assert sorted({i for i, _, _, _ in net.params()}) == [
            i for i, d in enumerate(spec.layers) if d["kind"] in ("conv", "dense")]
        # every preset conv is followed by [maxmin,] relu, pool: one step, the pool's
        runs = {i + 1: 1 + (spec.layers[i + 1]["kind"] == "maxmin")
                for i, d in enumerate(spec.layers) if d["kind"] == "conv"}
        covered = {j for i, relu in runs.items() for j in range(i, i + relu + 1)}
        expected = sorted([(i, net.layers[i + relu], {"relu": relu}) for i, relu in runs.items()]
                          + [(i, net.layers[i], {}) for i in range(len(net.layers))
                             if i not in covered], key=lambda step: step[0])
        assert net.steps == expected


class TestParamCount:
    def test_mnist_conv1(self):
        net = models.build_net("mnist", "baseline")
        conv1 = next(l for l in net.layers if isinstance(l, Conv2D))
        assert conv1.weights.size + conv1.bias.size == 1664

    def test_cifar_conv1(self):
        net = models.build_net("cifar10", "baseline")
        conv1 = next(l for l in net.layers if isinstance(l, Conv2D))
        assert conv1.weights.size + conv1.bias.size == 2432

    def test_empty_network(self):
        spec = models.NetworkSpec(input_shape=(1, 4, 4), num_classes=16,
                                  layers=[dict(kind="flatten")])
        assert models.build_network(spec).param_count() == 0

    def test_closed_form_totals(self):
        net = models.build_net("cifar10", "baseline", (32, 32, 64))
        expect = (32 * (25 * 3 + 1) + 32 * (25 * 32 + 1) + 64 * (25 * 32 + 1)
                  + 64 * (64 * 4 * 4) + 64 + 10 * 64 + 10)
        assert net.param_count() == expect

    def test_maxmin_same_filters_costs_more(self):
        base = models.build_net("mnist", "baseline").param_count()
        mm = models.build_net("mnist", "maxmin").param_count()
        # closed form: convs 2 and 3 double their input depth, fc doubles
        delta = 64 * 25 * 64 + 64 * 25 * 64 + 10 * 64 * 4 * 4
        assert mm == base + delta

    def test_matched_filters_within_15_percent(self):
        base_filters = (32, 32, 64)
        mm_filters = models.matched_maxmin_filters(base_filters)
        base = models.build_net("cifar10", "baseline", base_filters).param_count()
        mm = models.build_net("cifar10", "maxmin", mm_filters).param_count()
        assert abs(mm - base) / base <= 0.15


def conv_lowerings(net, batch):
    """The lowering each conv of a preset net takes at ``batch``; the presets pool 32 -> 16 -> 8."""
    convs = [layer for layer in net.layers if isinstance(layer, Conv2D)]
    return [conv.lowering((batch, conv.weights.shape[1], side, side))
            for conv, side in zip(convs, (32, 16, 8))]


class TestLoweringRule:
    # batch 2: the gradient check; 13: validation, 21 and 25: the test splits
    # of the benchmark workloads; 64: training and evaluate
    @pytest.mark.parametrize("batch", [2, 13, 21, 25, 64])
    @pytest.mark.parametrize("dataset,boost", [("mnist", False), ("cifar10", True)],
                             ids=["mnist-maxmin", "cifar10-maxmin-boost"])
    def test_lowering_at_the_preset_shapes(self, dataset, boost, batch):
        net = models.build_net(dataset, "maxmin", boost=boost)
        later = "im2col" if batch == 2 else "dft"
        assert conv_lowerings(net, batch) == ["im2col", later, later]


class TestReduction:
    @pytest.mark.parametrize("build,shape", [
        (lambda: models.build_net("mnist", "maxmin", seed=11), (1, 32, 32)),
        (lambda: models.build_net("cifar10", "maxmin", seed=11), (3, 32, 32)),
    ])
    def test_zeroed_negated_half_matches_baseline(self, build, shape):
        net = build()
        reduced, baseline = models.reduce_to_baseline(net)
        for _ in range(5):
            x = rng.random((2,) + shape)
            diff = np.abs(reduced.forward(x) - baseline.forward(x)).max()
            assert diff <= 1e-12

    # CIFAR's baseline conv2 (32 -> 32 on 16x16) stays on im2col while the
    # maxmin conv2 it pairs with takes the DFT
    @pytest.mark.parametrize("dataset,boost,baseline_lowerings", [
        ("mnist", False, ["im2col", "dft", "dft"]),
        ("cifar10", True, ["im2col", "im2col", "dft"]),
    ], ids=["mnist", "cifar10-boost"])
    def test_reduction_holds_where_conv2_and_conv3_take_the_dft(self, dataset, boost,
                                                                 baseline_lowerings):
        """Criterion 3 forwards one image, which never reaches the DFT; batch 64 does."""
        net = models.build_net(dataset, "maxmin", boost=boost, seed=11)
        reduced, baseline = models.reduce_to_baseline(net)
        assert conv_lowerings(reduced, 64) == ["im2col", "dft", "dft"]
        assert conv_lowerings(baseline, 64) == baseline_lowerings
        x = rng.random((64,) + net.spec.input_shape)
        assert np.abs(reduced.forward(x) - baseline.forward(x)).max() <= 1e-12

    @pytest.mark.parametrize("filters", [None, (3, 4, 5)], ids=["default", "3-4-5"])
    @pytest.mark.parametrize("dataset,boost", [
        ("mnist", False), ("cifar10", False), ("cifar10", True),
    ], ids=["mnist", "cifar10", "cifar10-boost"])
    def test_baseline_of_maxmin_preset_is_baseline_preset(self, dataset, boost, filters):
        """The baseline preset is the maxmin one without MaxMin, at single depth."""
        maxmin = models.preset_spec(dataset, "maxmin", filters, boost)
        base = models.preset_spec(dataset, "baseline", filters, boost)
        assert base.spec_hash() == models.baseline_of(maxmin).spec_hash()
        input_shape, default_filters, _ = models.PRESETS[dataset]
        f = filters or default_filters
        assert [d["kind"] for d in base.layers] == [d["kind"] for d in maxmin.layers
                                                    if d["kind"] != "maxmin"]
        assert [d["in"] for d in base.layers if d["kind"] == "conv"] == [input_shape[0], *f[:2]]
        assert next(d["in"] for d in base.layers if d["kind"] == "dense") == f[2] * 4 * 4
        assert all(d["groups"] == 1 for d in base.layers if d["kind"] == "lrn")

    def test_identical_dense_descriptors_keep_their_own_input(self):
        """Only the dense layer right after the doubling halves its input."""
        k = 4  # conv: 1 filter on 2x2, doubled to 2k = 8 features
        spec = models.NetworkSpec(input_shape=(1, 2, 2), num_classes=2 * k, layers=[
            dict(kind="conv", **{"in": 1}, filters=1, kernel=1, stride=1, pad=0),
            dict(kind="maxmin"), dict(kind="flatten"),
            dict(kind="dense", **{"in": 2 * k}, out=2 * k), dict(kind="relu"),
            dict(kind="dense", **{"in": 2 * k}, out=2 * k),
        ])
        dense_in = [d["in"] for d in models.baseline_of(spec).layers if d["kind"] == "dense"]
        assert dense_in == [k, 2 * k]
        reduced, baseline = models.reduce_to_baseline(models.build_network(spec, seed=5))
        x = rng.random((3, 1, 2, 2))
        assert np.abs(reduced.forward(x) - baseline.forward(x)).max() <= 1e-12

    def test_filter_negation_swaps_block_channels(self):
        """Negating filter f swaps post-ReLU channels f and C+f exactly."""
        from maxmin_cnn.layers import MaxMin, ReLU
        conv = Conv2D(3, 8, 5, pad=2, rng=np.random.default_rng(0))
        conv.weights[...] = np.random.default_rng(2).normal(0.0, 0.5, conv.weights.shape)
        x = rng.standard_normal((2, 3, 12, 12))

        def block():
            return ReLU().forward(MaxMin().forward(conv.forward(x)))

        before = block()
        f = 5
        conv.weights[f] *= -1
        conv.bias[f] *= -1
        after = block()
        np.testing.assert_array_equal(after[:, f], before[:, 8 + f])
        np.testing.assert_array_equal(after[:, 8 + f], before[:, f])
        untouched = [c for c in range(16) if c not in (f, 8 + f)]
        np.testing.assert_array_equal(after[:, untouched], before[:, untouched])


class TestWeightFiles:
    def test_round_trip_exact(self, tmp_path):
        net = models.build_net("mnist", "maxmin", filters=(4, 4, 4), seed=7)
        path = tmp_path / "w.bin"
        models.save_weights(net, path)
        loaded = models.load_weights(path, net.spec)
        for (_, _, a, _), (_, _, b, _) in zip(net.params(), loaded.params()):
            np.testing.assert_array_equal(a, b)

    def test_save_that_raises_partway_keeps_the_previous_file(self, tmp_path, monkeypatch):
        net = models.build_net("mnist", "maxmin", filters=(4, 4, 4), seed=7)
        path = tmp_path / "best.bin"
        models.save_weights(net, path)
        before = path.read_bytes()
        newer = models.build_net("mnist", "maxmin", filters=(4, 4, 4), seed=8)
        params = newer.params

        def first_tensor_then_fail():
            yield next(params())
            raise OSError("disk full")

        monkeypatch.setattr(newer, "params", first_tensor_then_fail)
        with pytest.raises(OSError, match="disk full"):
            models.save_weights(newer, path)
        assert path.read_bytes() == before
        loaded = models.load_weights(path, net.spec)
        for (_, _, a, _), (_, _, b, _) in zip(net.params(), loaded.params()):
            np.testing.assert_array_equal(a, b)
        assert [p.name for p in tmp_path.iterdir()] == ["best.bin"]

    def test_wrong_architecture_hash(self, tmp_path):
        net = models.build_net("mnist", "baseline", filters=(4, 4, 4), seed=7)
        path = tmp_path / "w.bin"
        models.save_weights(net, path)
        other = models.preset_spec("mnist", "maxmin", (4, 4, 4))
        with pytest.raises(WeightFileError, match="different architecture"):
            models.load_weights(path, other)

    def test_truncated_file(self, tmp_path):
        net = models.build_net("mnist", "baseline", filters=(4, 4, 4), seed=7)
        path = tmp_path / "w.bin"
        models.save_weights(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(WeightFileError, match="truncated"):
            models.load_weights(path, net.spec)

    def test_record_layout_is_pinned(self, tmp_path):
        """Magic, spec hash, then per tensor: rank (u32), dims (u64), float64 data."""
        net = models.build_net("cifar10", "maxmin", filters=(2, 2, 2), boost=True, seed=3,
                               dtype=np.float32)
        path = tmp_path / "w.bin"
        models.save_weights(net, path)
        records = (struct.pack(f"<I{v.ndim}Q", v.ndim, *v.shape) + v.astype("<f8").tobytes()
                   for _, _, v, _ in net.params())
        assert path.read_bytes() == b"MAXMIN01" + net.spec.spec_hash() + b"".join(records)
        loaded = models.load_weights(path, net.spec, dtype=np.float32)
        for (_, _, a, _), (_, _, b, _) in zip(net.params(), loaded.params()):
            assert b.dtype == np.float32
            np.testing.assert_array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"NOTAFILE" + b"\x00" * 64)
        with pytest.raises(WeightFileError, match="magic"):
            models.load_weights(path, models.preset_spec("mnist", "baseline", (4, 4, 4)))
