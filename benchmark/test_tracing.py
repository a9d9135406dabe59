"""The benchmark's tracing: self-time consistency, no effect on results, clean removal."""
import gc
import importlib
import json
import math
import pathlib
import weakref

import numpy as np
import pytest

import perlayer
import run
import synth
import tracing
import workloads
from maxmin_cnn import cli, layers as L, models
from maxmin_cnn import optim

T = importlib.import_module("maxmin_cnn.train")
FILTERS = (4, 4, 4)


@pytest.fixture
def mnist_dir(tmp_path):
    synth.write_mnist(str(tmp_path), 40, 8, seed=2)
    return str(tmp_path)


def _train(data_dir, tracer=None):
    restore = tracing.install(tracer) if tracer else (lambda: None)
    try:
        train_split, val_split, _ = cli.load_dataset("mnist", data_dir, seed=1)
        net = cli.build_net("mnist", "maxmin", FILTERS, seed=1)
        T.train(net, train_split, val_split, T.TrainConfig(epochs=1, batch_size=8, seed=1))
    finally:
        restore()
    return net, len(train_split)


def test_step_self_times_sum_to_the_step_span(mnist_dir):
    tracer = tracing.Tracer()
    _, n_train = _train(mnist_dir, tracer)
    spans = tracer.spans
    self_s = tracer.self_times()
    steps = [i for i, s in enumerate(spans) if s.name == tracing.STEP]
    assert len(steps) == math.ceil(n_train / 8)
    for root in steps:
        inside = [i for i in tracer.subtree(root) if i != root]
        assert {"layers.conv2.fwd", "layers.pool3.bwd", "optim.SGD.step"} <= {
            spans[i].name for i in inside}
        assert all(spans[i].phase == "train" for i in inside)
        covered = sum(self_s[i] for i in inside)
        assert math.isclose(covered + self_s[root], spans[root].duration, rel_tol=1e-9)
        assert self_s[root] < 0.25 * spans[root].duration


def test_tracing_changes_no_result_and_is_removed(mnist_dir):
    wrapped = [(L.Conv2D, "forward"), (L.MaxPool, "kink_signature"), (L, "im2col"),
               (models, "build_network"), (models.Network, "zero_grads"),
               (optim.SGD, "step"), (T, "train"), (T, "augment")]
    before = [getattr(owner, attr) for owner, attr in wrapped]
    plain, _ = _train(mnist_dir)
    traced, _ = _train(mnist_dir, tracing.Tracer())
    assert [getattr(owner, attr) for owner, attr in wrapped] == before
    for (_, _, a, _), (_, _, b, _) in zip(plain.params(), traced.params()):
        assert np.array_equal(a, b)


def test_layers_are_named_by_kind_and_ordinal():
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        net = cli.build_net("cifar10", "maxmin", FILTERS, boost=True, seed=1)
    finally:
        restore()
    names = [tracer.instance(layer)[0] for layer in net.layers + [net.loss_layer]]
    assert names == ["conv1", "maxmin1", "relu1", "pool1", "lrn1",
                     "conv2", "maxmin2", "relu2", "pool2", "lrn2",
                     "conv3", "maxmin3", "relu3", "pool3", "lrn3",
                     "flatten1", "dropout1", "dense1", "relu4", "dropout2", "dense2", "softmax1"]
    assert set(names) == set(perlayer.INSTANCES)


def test_tracer_does_not_keep_nets_alive():
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        net = cli.build_net("mnist", "maxmin", FILTERS, seed=1)
    finally:
        restore()
    conv = weakref.ref(net.layers[0])
    assert tracer.instance(conv())[0] == "conv1"
    del net
    gc.collect()
    assert conv() is None


@pytest.mark.parametrize("n, pct", [(5, 50.0), (30, 50.0), (100, 90.0), (1000, 99.0)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    value, got_pct, got_n = perlayer.tail(list(range(n)))
    assert (got_pct, got_n) == (pct, n)
    assert value == np.percentile(range(n), pct)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((pathlib.Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == perlayer.UNITS
