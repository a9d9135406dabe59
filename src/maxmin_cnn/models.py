"""Network composition, architecture presets, and weight persistence."""
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import struct

import numpy as np

from . import layers as L
from .errors import ConfigError, WeightFileError
from .tensor import conv_out_size, pool_out_size

LRN_DEFAULTS = dict(depth_radius=2, k=1.0, alpha=1e-4, beta=0.75)


@dataclasses.dataclass
class NetworkSpec:
    """Ordered layer descriptors plus input geometry.

    Each descriptor is a dict with a ``kind`` key ("conv", "maxmin",
    "relu", "pool", "lrn", "flatten", "dense", "dropout") and that
    layer's hyperparameters, channel counts included, so the spec alone
    determines every tensor shape; ``build_network`` checks that they chain.
    """
    input_shape: tuple          # (C, H, W)
    num_classes: int
    layers: list

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    def spec_hash(self):
        return hashlib.sha256(self.to_json().encode()).digest()[:8]


class Network:
    """Sequential layer stack with a softmax cross-entropy head.

    ``steps`` lists the calls a forward makes, as (index of the first
    layer covered, layer, forward keyword arguments). Each [MaxMin,]
    ReLU, MaxPool run is one call, its MaxPool's with ``relu`` = 2 or 1,
    the run's count of ReLU'd halves (see ``MaxPool``). The run's MaxMin
    and ReLU stay in ``layers`` but are not called.
    """

    def __init__(self, spec, layer_objs, seed):
        self.spec = spec
        self.layers = layer_objs
        self.seed = seed
        self.loss_layer = L.SoftmaxCrossEntropy()
        self.steps = []
        i = 0
        while i < len(layer_objs):
            halves = 1 + isinstance(layer_objs[i], L.MaxMin)
            if list(map(type, layer_objs[i + halves - 1:i + halves + 1])) == [L.ReLU, L.MaxPool]:
                self.steps.append((i, layer_objs[i + halves], {"relu": halves}))
                i += halves + 1
            else:
                self.steps.append((i, layer_objs[i], {}))
                i += 1

    def forward(self, x, train=False):
        for _, layer, kwargs in self.steps:
            x = layer.forward(x, train=train, **kwargs)
        return x

    def loss(self, x, labels, train=False):
        logits = self.forward(x, train=train)
        loss, probs = self.loss_layer.forward(logits, labels)
        return loss, probs

    def backward(self, input_grad=True):
        """Backpropagate the last loss into every parameter gradient.

        Returns the gradient with respect to the network input. With
        ``input_grad=False`` the return value is unspecified: a first
        Conv2D (conv1 of every preset) skips forming it.
        """
        g = self.loss_layer.backward()
        for _, layer, _ in reversed(self.steps[1:]):
            g = layer.backward(g)
        first = self.steps[0][1]
        if isinstance(first, L.Conv2D):
            return first.backward(g, input_grad=input_grad)
        return first.backward(g)

    def zero_grads(self):
        for layer in self.layers:
            layer.zero_grads()

    def params(self):
        """Yield (layer_index, name, value, grad) for every learnable tensor."""
        for i, layer in enumerate(self.layers):
            for name, value, grad in layer.params():
                yield i, name, value, grad

    def param_count(self):
        return sum(v.size for _, _, v, _ in self.params())


def build_network(spec, seed=0, dtype=np.float64):
    """Instantiate a spec with seeded Gaussian(0, 0.01) weights, zero biases.

    One walk of the descriptors builds each layer (its constructor checks
    its hyperparameters), checks the shape reaching it and sizes the shape
    leaving it by the layers' own rules. ConfigError rejects an input shape
    that is not (C, H, W), an unknown kind, a conv or pool after a flatten
    (MaxMin, ReLU, LRN and dropout run on (N, features)), a dense before
    one, a conv or dense whose ``in`` is not the width reaching it, a size
    that is not whole, LRN groups not dividing the channels, and a walk
    that does not end on ``num_classes`` flat features.
    """
    if len(spec.input_shape) != 3:
        raise ConfigError(f"input shape {tuple(spec.input_shape)} is not (C, H, W)")
    rng = np.random.default_rng(seed)
    objs = []
    c, h, w = spec.input_shape
    hw = [h, w]  # [] once a flatten has run
    for d in spec.layers:
        kind = d["kind"]
        if (kind in ("conv", "pool") and not hw) or (kind == "dense" and hw):
            raise ConfigError(f"{kind} cannot take {'an unflattened map' if hw else 'flat input'}")
        if kind == "conv":
            layer = L.Conv2D(d["in"], d["filters"], d["kernel"], stride=d["stride"],
                             pad=d["pad"], rng=rng, dtype=dtype)
            if d["in"] != c:
                raise ConfigError(f"conv expects {d['in']} channels, chain provides {c}")
            c = d["filters"]
            hw = [conv_out_size(s, d["kernel"], d["stride"], d["pad"]) for s in hw]
        elif kind == "maxmin":
            layer, c = L.MaxMin(), 2 * c
        elif kind == "relu":
            layer = L.ReLU()
        elif kind == "pool":
            layer = L.MaxPool(window=d["window"], stride=d["stride"])
            hw = [pool_out_size(s, layer.window, layer.stride) for s in hw]
        elif kind == "lrn":
            layer = L.LRN(depth_radius=d["depth_radius"], k=d["k"],
                          alpha=d["alpha"], beta=d["beta"], groups=d["groups"])
            if d["groups"] < 1 or c % d["groups"]:
                raise ConfigError(f"lrn groups {d['groups']} do not divide its {c} channels")
        elif kind == "flatten":
            layer, c, hw = L.Flatten(), c * math.prod(hw), []
        elif kind == "dense":
            if d["in"] != c:
                raise ConfigError(f"dense expects {d['in']} features, chain provides {c}")
            layer, c = L.Dense(d["in"], d["out"], rng=rng, dtype=dtype), d["out"]
        elif kind == "dropout":
            layer = L.Dropout(d["p"], rng=np.random.default_rng(rng.integers(2**63)))
        else:
            raise ConfigError(f"unknown layer kind {kind!r}")
        objs.append(layer)
    if hw or c != spec.num_classes:
        got = f"an unflattened {[c] + hw} map" if hw else f"{c} outputs"
        raise ConfigError(f"the last layer gives {got}, not {spec.num_classes} classes")
    return Network(spec, objs, seed)


# dataset: (input shape, default conv filters, dense hidden width or None)
PRESETS = {
    "mnist": ((1, 32, 32), (64, 64, 64), None),
    "cifar10": ((3, 32, 32), (32, 32, 64), 64),
}


def preset_spec(dataset, arch="baseline", filters=None, boost=False):
    """Three conv->maxmin->relu->pool blocks and a dense head for one dataset.

    MNIST (1x32x32, digits zero-padded by 2) has LRN after every pool and
    one dense layer. CIFAR-10 (3x32x32) has two dense layers; ``boost``
    adds LRN after each pool and dropout(0.5) before each dense layer.
    Each MaxMin doubles the depth that the layers after it read; LRN runs
    per half so the original and negated maps normalize independently.
    The baseline arch is ``baseline_of`` this spec.
    """
    if dataset not in PRESETS or arch not in ("baseline", "maxmin"):
        raise ConfigError(f"unknown preset {dataset!r}/{arch!r}")
    if boost and dataset == "mnist":
        raise ConfigError("boost applies to cifar10 only")
    input_shape, default_filters, fc_hidden = PRESETS[dataset]
    filters = default_filters if filters is None else filters
    if any(f < 1 for f in filters):
        raise ConfigError(f"filter counts must be positive, got {filters}")
    lrn = boost or dataset == "mnist"
    dropout = 0.5 if boost else None
    descs = []
    c, side = input_shape[:2]  # square inputs
    for f in filters:
        descs.append(dict(kind="conv", **{"in": c}, filters=f, kernel=5, stride=1, pad=2))
        descs.append(dict(kind="maxmin"))
        descs.append(dict(kind="relu"))
        descs.append(dict(kind="pool", window=3, stride=2))
        if lrn:
            descs.append(dict(kind="lrn", groups=2, **LRN_DEFAULTS))
        c = 2 * f
        side = pool_out_size(conv_out_size(side, 5, 1, 2), 3, 2)
    descs.append(dict(kind="flatten"))
    flat = c * side * side
    if fc_hidden is not None:
        if dropout:
            descs.append(dict(kind="dropout", p=dropout))
        descs.append(dict(kind="dense", **{"in": flat}, out=fc_hidden))
        descs.append(dict(kind="relu"))
        flat = fc_hidden
    if dropout:
        descs.append(dict(kind="dropout", p=dropout))
    descs.append(dict(kind="dense", **{"in": flat}, out=10))
    spec = NetworkSpec(input_shape=input_shape, num_classes=10, layers=descs)
    return spec if arch == "maxmin" else baseline_of(spec)


def build_net(dataset, arch="baseline", filters=None, boost=False, seed=0, dtype=np.float64):
    """Instantiate ``preset_spec(dataset, arch, filters, boost)`` with seeded weights."""
    return build_network(preset_spec(dataset, arch, filters, boost), seed=seed, dtype=dtype)


MATCH_TOLERANCE = 0.15


def matched_maxmin_filters(base_filters):
    """Pick maxmin conv filter counts whose CIFAR-10 parameter total tracks the baseline.

    Keeps the dense-layer neuron counts fixed and scales only the conv
    filter counts, by each whole percent from 40 to 100, choosing the
    scale whose total parameter count is closest to the baseline's.
    Raises if no scale lands within ``MATCH_TOLERANCE`` relative difference.
    """
    def count(arch, filters):
        return build_net("cifar10", arch, filters).param_count()

    target = count("baseline", base_filters)
    scaled = (tuple(max(1, round(f * pct / 100)) for f in base_filters) for pct in range(40, 101))
    # candidates grow with the scale, so a tie goes to the smaller one
    rel, best = min((abs(count("maxmin", c) - target) / target, c) for c in scaled)
    if rel > MATCH_TOLERANCE:
        raise ConfigError(
            f"no maxmin filter scaling matches {base_filters} within {MATCH_TOLERANCE:.0%}"
        )
    return best


# -- reduction pairing ------------------------------------------------------

def baseline_of(spec):
    """Baseline spec reachable from a maxmin spec by dropping the doubling."""
    descs = []
    doubled = False  # the next conv or dense reads a maxmin-doubled input
    for d in spec.layers:
        d = dict(d)
        if d["kind"] == "maxmin":
            doubled = True
            continue
        if d["kind"] in ("conv", "dense"):
            if doubled:
                d["in"] //= 2
            doubled = False
        elif d["kind"] == "lrn":
            d["groups"] = 1
        descs.append(d)
    return NetworkSpec(input_shape=spec.input_shape, num_classes=spec.num_classes, layers=descs)


def reduce_to_baseline(maxmin_net):
    """Realize the zero-extra-weights reduction of a maxmin network.

    Returns (reduced, baseline): ``reduced`` is a copy of the maxmin net
    whose weights reading negated-half channels are zeroed; ``baseline``
    is the plain net carrying the surviving first-half weights. The two
    compute identical logits on every input.
    """
    spec = maxmin_net.spec
    reduced = build_network(spec, seed=maxmin_net.seed)
    base = build_network(baseline_of(spec), seed=maxmin_net.seed)
    # only conv and dense own parameters: all three nets list them in one order
    for (_, _, red, _), (_, _, src, _), (_, _, bp, _) in zip(
            reduced.params(), maxmin_net.params(), base.params()):
        red[...] = src
        if red.shape != bp.shape:  # a weight that reads a doubled input
            half = bp.shape[1]
            red[:, half:] = 0.0
            bp[...] = red[:, :half]
        else:
            bp[...] = red
    return reduced, base


# -- weight files -----------------------------------------------------------

MAGIC = b"MAXMIN01"


@contextlib.contextmanager
def write_atomically(path, mode="w"):
    """Open ``path`` + ".tmp" for writing, then rename it onto ``path``.

    A write that raises removes the temp file, and a process killed
    mid-write leaves at most a stale temp file: either way ``path`` keeps
    its previous contents.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _tensor_header(value):
    """A tensor record's header: rank (u32), then each dim (u64), little-endian."""
    return struct.pack(f"<I{value.ndim}Q", value.ndim, *value.shape)


def save_weights(net, path):
    """Little-endian binary: magic, 8-byte spec hash, then per-parameter
    tensors as (rank: u32, dims: u64..., raw float64 data). Written atomically."""
    with write_atomically(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(net.spec.spec_hash())
        for _, _, value, _ in net.params():
            fh.write(_tensor_header(value))
            fh.write(value.astype("<f8").tobytes())


def load_weights(path, spec, seed=0, dtype=np.float64):
    """Rebuild a network for ``spec`` and fill it from a weight file; each
    record must start with the header ``save_weights`` writes for its tensor."""
    net = build_network(spec, seed=seed, dtype=dtype)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise WeightFileError(f"{path}: cannot read weight file: {exc.strerror}") from exc
    if blob[:8] != MAGIC[:len(blob)]:
        raise WeightFileError(f"{path}: not a weight file (bad magic)")
    if len(blob) < 16:
        raise WeightFileError(f"{path}: truncated at byte {len(blob)} in the magic or spec hash")
    if blob[8:16] != spec.spec_hash():
        raise WeightFileError(f"{path}: weight file was saved for a different architecture")
    off = 16
    for i, name, value, _ in net.params():
        header = _tensor_header(value)
        data = off + len(header)
        end = data + 8 * value.size
        if end > len(blob):
            raise WeightFileError(f"{path}: truncated at byte {len(blob)} reading layer {i} {name}")
        if blob[off:data] != header:
            raise WeightFileError(f"{path}: layer {i} {name}: rank or dims are not {value.shape}")
        value[...] = np.frombuffer(blob, "<f8", value.size, data).reshape(value.shape)
        off = end
    if off != len(blob):
        raise WeightFileError(f"{path}: {len(blob) - off} trailing bytes after last tensor")
    return net
