"""Per-layer metrics computed from the spans of a traced run.

Names are ``<module>.<item>.<stat>``. Layer times are self times: a
span's duration minus the time its child spans cover, so a conv's own
time excludes its ``im2col``. Phases: ``train`` is inside ``train.train``
but outside its per-epoch evaluation, ``eval`` is inside any
``train.evaluate``, and ``gradcheck`` is inside the ``grad_check`` of
the maxmin preset (the baseline preset's check is left out of the
per-layer times so the two nets do not mix under one name).
"""
import statistics
import time

import numpy as np

INSTANCES = ("conv1", "conv2", "conv3", "maxmin1", "maxmin2", "maxmin3",
             "relu1", "relu2", "relu3", "relu4", "pool1", "pool2", "pool3",
             "lrn1", "lrn2", "lrn3", "flatten1", "dropout1", "dropout2",
             "dense1", "dense2", "softmax1")
LAYER_STATS = (("train_fwd_ms", "fwd", "train"), ("train_bwd_ms", "bwd", "train"),
               ("eval_fwd_ms", "fwd", "eval"), ("gradcheck_fwd_ms", "fwd", "gradcheck"))
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# name -> unit, in report order; every traced run reports every one of them
UNITS = {f"layers.{inst}.{stat}": "ms" for inst in INSTANCES for stat, _, _ in LAYER_STATS}
UNITS.update({
    "tensor.im2col_ms": "ms", "tensor.col2im_ms": "ms", "tensor.im2col_bytes": "B",
    "layers.conv1.gflop_s": "GFLOP/s", "layers.conv2.gflop_s": "GFLOP/s",
    "layers.conv3.gflop_s": "GFLOP/s", "layers.conv.gemm_efficiency": "ratio",
    "train.gemm_floor_img_s": "img/s",
    "layers.fwd_calls": "count", "layers.kink_signature_ms": "ms",
    "layers.kink_signature_bytes": "B", "train.grad_check_entry_ms": "ms",
    "layers.dtype_upcasts": "count",
    "data.augment_ms": "ms", "data.wait_share": "ratio", "data.zca_fit_s": "s",
    "data.zca_apply_s": "s",
    "data.load_ms": "ms", "models.build_network_ms": "ms", "models.load_weights_ms": "ms",
    "models.forward_ms_p50": "ms", "models.eval_forward_ms_p50": "ms",
    "models.backward_ms_p50": "ms",
    "models.save_weights_ms": "ms", "models.weights_bytes": "B",
    "optim.sgd_step_ms": "ms",
    "train.step_ms_p50": "ms", "train.step_ms_tail": "ms", "train.step_ms_tail_pct": "%",
    "train.step_ms_tail_n": "count", "train.evaluate_share": "ratio",
    "trace_overhead": "ratio",
})


def _median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest listed percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). With fewer than 20
    samples no percentile qualifies and the median is returned as p50.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    for pct in TAIL_PERCENTILES:
        if round(n * (100.0 - pct) / 100.0, 6) >= 10:
            break
    return float(np.percentile(values, pct)), pct, n


def gemm_seconds(m, k, n, dtype, repeats=3):
    """Median wall time of a plain (m, k) @ (k, n) np.matmul of this dtype."""
    rng = np.random.default_rng(0)
    a = rng.random((m, k)).astype(dtype)
    b = rng.random((k, n)).astype(dtype)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(a, b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Analysis:
    """Groups a tracer's spans by name and phase once, then answers queries."""

    def __init__(self, tracer):
        self.t = tracer
        self.self_s = tracer.self_times()
        self.by_name = {}
        for i, s in enumerate(tracer.spans):
            self.by_name.setdefault(s.name, []).append(i)

    def spans(self, name, phase=None):
        return [i for i in self.by_name.get(name, ())
                if phase is None or self.t.spans[i].phase == phase]

    def self_ms(self, name, phase=None):
        return [1000.0 * self.self_s[i] for i in self.spans(name, phase)]

    def total_ms(self, name, phase=None):
        return [1000.0 * self.t.spans[i].duration for i in self.spans(name, phase)]

    def seconds_within(self, names, parent_name):
        """Per ``parent_name`` span, the summed duration of its descendants named in ``names``."""
        spans = self.t.spans
        return [sum(spans[i].duration for i in self.t.subtree(root) if spans[i].name in names)
                for root in self.spans(parent_name)]


def compute(tracer, trace_overhead, batch):
    """Every metric in UNITS, 0 where the workload has no such layer or call."""
    a = Analysis(tracer)
    spans = tracer.spans
    m = {}
    for inst in INSTANCES:
        for stat, kind, phase in LAYER_STATS:
            m[f"layers.{inst}.{stat}"] = _median(a.self_ms(f"layers.{inst}.{kind}", phase))

    # Per train step, summed over the three convs.
    m["tensor.im2col_ms"] = 1000.0 * _median(a.seconds_within({"tensor.im2col"}, "train.step"))
    m["tensor.col2im_ms"] = 1000.0 * _median(a.seconds_within({"tensor.col2im"}, "train.step"))
    m["tensor.im2col_bytes"] = max((spans[i].attrs["bytes"]
                                    for i in a.spans("tensor.im2col", "train")), default=0)

    # Conv throughput over inclusive fwd+bwd time, so im2col/col2im count against it.
    # The GEMM-only floor times, per conv and step, the forward GEMM and the
    # two backward ones as plain matmuls of the same shapes and dtype.
    conv_s, gemm_s = 0.0, 0.0
    for k in (1, 2, 3):
        fwd = a.spans(f"layers.conv{k}.fwd", "train")
        idxs = fwd + a.spans(f"layers.conv{k}.bwd", "train")
        secs = sum(spans[i].duration for i in idxs)
        flops = sum(int(spans[i].attrs["flops"]) for i in idxs)
        m[f"layers.conv{k}.gflop_s"] = flops / secs / 1e9 if secs else 0.0
        if fwd:
            conv_s += secs / len(fwd)
            f, ck, cols, dtype = spans[fwd[0]].attrs["gemm"]
            gemm_s += (gemm_seconds(f, ck, cols, dtype) + gemm_seconds(f, cols, ck, dtype)
                       + gemm_seconds(ck, f, cols, dtype))
    m["layers.conv.gemm_efficiency"] = gemm_s / conv_s if conv_s else 0.0
    m["train.gemm_floor_img_s"] = batch / gemm_s if gemm_s else 0.0

    # Gradient-check counts are per repetition, over both presets' checks.
    reps = max(1, len(a.spans("bench.rep")))
    in_checks = [i for root in a.spans("train.grad_check") for i in tracer.subtree(root)]
    fwd_names = {f"layers.{inst}.fwd" for inst in INSTANCES}
    kinks = [i for i in in_checks if spans[i].name == "layers.kink_signature"]
    m["layers.fwd_calls"] = sum(spans[i].name in fwd_names for i in in_checks) / reps
    m["layers.kink_signature_ms"] = 1000.0 * sum(a.self_s[i] for i in kinks) / reps
    m["layers.kink_signature_bytes"] = sum(spans[i].attrs["bytes"] for i in kinks) / reps
    entry_ms = [1000.0 * spans[i].duration / spans[i].attrs["entries"]
                for i in a.spans("train.grad_check", "gradcheck") if spans[i].attrs.get("entries")]
    m["train.grad_check_entry_ms"] = _median(entry_ms)

    steps = a.spans("train.step")
    upcasts = [sum(spans[i].attrs.get("upcast", 0) for i in tracer.subtree(s)) for s in steps]
    m["layers.dtype_upcasts"] = _median(upcasts)

    augment_s = sum(spans[i].duration for i in a.spans("data.augment", "train"))
    step_s = sum(spans[i].duration for i in steps)
    m["data.augment_ms"] = _median(a.total_ms("data.augment", "train"))
    m["data.wait_share"] = augment_s / step_s if step_s else 0.0
    m["data.zca_fit_s"] = _median(a.total_ms("data.zca_fit")) / 1000.0
    m["data.zca_apply_s"] = _median(a.seconds_within({"data.zca_apply"}, "train.train"))
    loads = a.seconds_within({"data.load_mnist", "data.load_cifar10"}, "bench.setup")
    m["data.load_ms"] = 1000.0 * _median([s for s in loads if s])
    m["models.build_network_ms"] = _median(a.total_ms("models.build_network"))
    m["models.load_weights_ms"] = _median(a.total_ms("models.load_weights"))
    m["models.forward_ms_p50"] = _median(a.total_ms("models.Network.forward", "train"))
    m["models.eval_forward_ms_p50"] = _median(a.total_ms("models.Network.forward", "eval"))
    m["models.backward_ms_p50"] = _median(a.total_ms("models.Network.backward", "train"))
    m["models.save_weights_ms"] = _median(a.total_ms("models.save_weights"))
    m["models.weights_bytes"] = max((spans[i].attrs["bytes"]
                                     for i in a.spans("models.save_weights")), default=0)
    m["optim.sgd_step_ms"] = _median(a.total_ms("optim.SGD.step"))

    step_ms = [1000.0 * spans[i].duration for i in steps]
    m["train.step_ms_p50"] = _median(step_ms)
    m["train.step_ms_tail"], m["train.step_ms_tail_pct"], m["train.step_ms_tail_n"] = tail(step_ms)
    share = a.seconds_within({"train.evaluate"}, "train.train")
    train_s = [spans[i].duration for i in a.spans("train.train")]
    m["train.evaluate_share"] = _median([s / t for s, t in zip(share, train_s) if t])
    m["trace_overhead"] = trace_overhead
    return m
