"""Spans around the library's public functions, installed from outside it.

``install(tracer)`` wraps the public functions and methods of every
module on the training path and returns a function that undoes the
wrapping. Each call records a span (name, start, end, parent, phase)
plus counts measured at the same boundary, such as column-matrix bytes
or the dtype a layer returned. Spans stay in memory until the run ends.

Functions the library imported by name are wrapped where they are
looked up: ``im2col``/``col2im`` in ``layers``, ``augment`` and the ZCA
functions in ``train``. ``maxmin_cnn.train`` is fetched with importlib
because the package re-exports ``train`` the function under that name.
"""
import contextlib
import functools
import importlib
import time
import weakref

import numpy as np

from maxmin_cnn import data as D
from maxmin_cnn import layers as L
from maxmin_cnn import models
from maxmin_cnn import optim

T = importlib.import_module("maxmin_cnn.train")

LAYER_KINDS = {L.Conv2D: "conv", L.MaxMin: "maxmin", L.ReLU: "relu", L.MaxPool: "pool",
               L.LRN: "lrn", L.Flatten: "flatten", L.Dropout: "dropout", L.Dense: "dense"}
STEP = "train.step"


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "attrs", "last")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = None
        self.last = None   # index of the last span opened before this one closed
        self.parent = parent
        self.phase = phase
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order, one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []
        # layer -> (name, net dtype); weak, so the nets of earlier repetitions
        # and their layer caches are freed as in an untraced run
        self._instances = weakref.WeakKeyDictionary()

    def open(self, name, phase=None):
        parent = self._stack[-1] if self._stack else None
        if phase is None and parent is not None:
            phase = self.spans[parent].phase
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, phase))
        self._stack.append(idx)
        return idx

    def close(self, idx):
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self._stack.pop()
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.last = len(self.spans) - 1

    def top(self):
        return self.spans[self._stack[-1]] if self._stack else None

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    # -- layer instance names ---------------------------------------------

    def name_network(self, net):
        """Name layers by kind plus 1-based ordinal in spec order (conv1, relu4, ...)."""
        counts = {}
        dtype = next((v.dtype for _, _, v, _ in net.params()), None)
        for layer in list(net.layers) + [net.loss_layer]:
            kind = LAYER_KINDS.get(type(layer), "softmax")
            counts[kind] = counts.get(kind, 0) + 1
            self._instances[layer] = (f"{kind}{counts[kind]}", dtype)

    def instance(self, layer):
        return self._instances.get(layer, (f"{type(layer).__name__.lower()}?", None))

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def subtree(self, root):
        """Indices of ``root`` and its descendants: with one stack they are contiguous."""
        return range(root, self.spans[root].last + 1)


def _wrap_function(tracer, owner, attr, name, phase=None, after=None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name, phase(*args) if callable(phase) else phase)
        try:
            result = original(*args, **kwargs)
            if after is not None:
                after(tracer.spans[idx], args, result)
            return result
        finally:
            tracer.close(idx)

    setattr(owner, attr, wrapper)
    return owner, attr, original


def _layer_method(tracer, cls, attr, stat):
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        inst, dtype = tracer.instance(self)
        idx = tracer.open(f"layers.{inst}.{stat}")
        try:
            result = original(self, *args, **kwargs)
            span = tracer.spans[idx]
            out = result[1] if isinstance(result, tuple) else result
            if dtype is not None and getattr(out, "dtype", dtype) != dtype:
                span.attrs["upcast"] = 1
            if isinstance(self, L.Conv2D):
                f, c, kh, kw = self.weights.shape
                n, _, ho, wo = (out if stat == "fwd" else args[0]).shape
                gemm = (f, c * kh * kw, n * ho * wo)
                span.attrs["gemm"] = gemm + (str(self.weights.dtype),)
                passes = 1 if stat == "fwd" else 2  # backward: weight and input gradients
                span.attrs["flops"] = 2 * passes * np.prod(gemm, dtype=np.int64)
            return result
        finally:
            tracer.close(idx)

    setattr(cls, attr, wrapper)
    return cls, attr, original


def _open_step(tracer):
    top = tracer.top()
    if top is not None and top.name == "train.train":
        tracer.open(STEP)


def _close_step(tracer):
    top = tracer.top()
    if top is not None and top.name == STEP:
        tracer.close(tracer._stack[-1])


def _gradcheck_phase(net, *_):
    maxmin = any(d["kind"] == "maxmin" for d in net.spec.layers)
    return "gradcheck" if maxmin else "gradcheck_baseline"


def install(tracer):
    """Wrap the library's public calls; returns a function that restores them."""
    undo = []

    def record_bytes(span, args, result):
        span.attrs["bytes"] = result.nbytes

    def record_len(span, args, result):
        span.attrs["bytes"] = len(result)

    def name_net(span, args, result):
        tracer.name_network(result)

    def weights_bytes(span, args, result):
        # magic + spec hash, then per tensor a rank, its dims and float64 data
        span.attrs["bytes"] = 16 + sum(4 + 8 * v.ndim + 8 * v.size
                                       for _, _, v, _ in args[0].params())

    def entries(span, args, result):
        span.attrs["entries"] = result.checked + result.skipped_nonsmooth

    for cls in list(LAYER_KINDS) + [L.SoftmaxCrossEntropy]:
        undo.append(_layer_method(tracer, cls, "forward", "fwd"))
        undo.append(_layer_method(tracer, cls, "backward", "bwd"))
    for cls in (L.Layer, L.ReLU, L.MaxPool):
        undo.append(_wrap_function(tracer, cls, "kink_signature", "layers.kink_signature",
                                   after=record_len))
    undo.append(_wrap_function(tracer, L, "im2col", "tensor.im2col", after=record_bytes))
    undo.append(_wrap_function(tracer, L, "col2im", "tensor.col2im"))

    for attr in ("forward", "backward", "loss", "zero_grads"):
        undo.append(_wrap_function(tracer, models.Network, attr, f"models.Network.{attr}"))
    undo.append(_wrap_function(tracer, models, "build_network", "models.build_network",
                               after=name_net))
    undo.append(_wrap_function(tracer, models, "save_weights", "models.save_weights",
                               after=weights_bytes))
    undo.append(_wrap_function(tracer, models, "load_weights", "models.load_weights"))
    undo.append(_wrap_function(tracer, optim.SGD, "step", "optim.SGD.step"))

    for attr in ("load_mnist", "load_cifar10", "split_train_val"):
        undo.append(_wrap_function(tracer, D, attr, f"data.{attr}"))
    for attr in ("augment", "zca_fit", "zca_apply"):
        undo.append(_wrap_function(tracer, T, attr, f"data.{attr}"))

    undo.append(_wrap_function(tracer, T, "train", "train.train", phase="train"))
    undo.append(_wrap_function(tracer, T, "evaluate", "train.evaluate", phase="eval"))
    undo.append(_wrap_function(tracer, T, "grad_check", "train.grad_check",
                               phase=_gradcheck_phase, after=entries))

    # A train step has no function of its own: it runs from the batch's
    # augment (or zero_grads) call to the end of the SGD step.
    for owner, attr in ((T, "augment"), (models.Network, "zero_grads")):
        undo.append(_before(owner, attr, lambda: _open_step(tracer)))
    undo.append(_after(optim.SGD, "step", lambda: _close_step(tracer)))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


def _before(owner, attr, hook):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        hook()
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    return owner, attr, original


def _after(owner, attr, hook):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            hook()

    setattr(owner, attr, wrapper)
    return owner, attr, original
