"""Training loop, evaluation, and the finite-difference gradient checker."""
import dataclasses
import json
import os
import time

import numpy as np

from . import models
from .data import augment, zca_apply, zca_fit
from .errors import DivergenceError
from .optim import SGD, PlateauScheduler

METRICS_HEADER = "epoch,train_loss,train_acc,val_acc,test_acc,lr,seconds"
EVAL_BATCH = 64  # images per evaluate forward: the default training batch


@dataclasses.dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 64
    seed: int = 0
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    patience: int = 3
    lr_factor: float = 0.1
    augment: bool = False
    hflip: bool = True
    zca: bool = False
    checkpoint_every: int = 0
    out_dir: str = None
    eval_test: bool = False

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.checkpoint_every < 0:
            raise ValueError(f"bad epochs, batch_size or checkpoint_every in {self}")
        self.optimizers()  # a bad rate, momentum, decay, patience or factor fails here

    def optimizers(self):
        """A fresh (SGD, PlateauScheduler) pair for one run."""
        return (SGD(self.momentum, self.weight_decay),
                PlateauScheduler(self.learning_rate, self.patience, self.lr_factor))


@dataclasses.dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    test_acc: float  # None unless config.eval_test
    lr: float
    seconds: float

    def csv_row(self):
        test = "" if self.test_acc is None else f"{self.test_acc:.6f}"
        return (f"{self.epoch},{self.train_loss:.8f},{self.train_acc:.6f},"
                f"{self.val_acc:.6f},{test},{self.lr:.8g},{self.seconds:.3f}")


def evaluate(net, data):
    """Top-1 accuracy; argmax ties break toward the lowest class index."""
    correct = 0
    for start in range(0, len(data), EVAL_BATCH):
        x = data.images[start:start + EVAL_BATCH]
        logits = net.forward(x, train=False)
        correct += int((logits.argmax(axis=1) == data.labels[start:start + EVAL_BATCH]).sum())
    return correct / len(data)


def train(net, train_data, val_data, config, test_data=None):
    """Run the full seeded training loop.

    Returns (net, metrics list); a non-finite loss raises DivergenceError.
    config.seed drives the data order and augmentation draws. Each Dropout
    draws its masks from the generator it was built with (``build_network``
    seeds it from the net's seed); it advances across calls on one net.
    """
    rng = np.random.default_rng(config.seed)
    opt, sched = config.optimizers()
    zca = None
    if config.zca:
        zca = zca_fit(train_data.images)
        train_data = dataclasses.replace(train_data, images=zca_apply(zca, train_data.images))
        val_data = dataclasses.replace(val_data, images=zca_apply(zca, val_data.images))
        if test_data is not None:
            test_data = dataclasses.replace(test_data, images=zca_apply(zca, test_data.images))

    metrics = []
    best_val = -1.0
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
    for epoch in range(config.epochs):
        t0 = time.time()
        perm = rng.permutation(len(train_data))
        losses, correct, seen = [], 0, 0
        for b, start in enumerate(range(0, len(perm), config.batch_size)):
            idx = perm[start:start + config.batch_size]
            x = train_data.images[idx]
            y = train_data.labels[idx]
            if config.augment:
                x = augment(x, rng, hflip=config.hflip)
            net.zero_grads()
            loss, probs = net.loss(x, y, train=True)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch} batch {b}")
            net.backward(input_grad=False)  # nothing reads the input gradient
            opt.step(net, sched.lr)
            losses.append(loss)
            correct += int((probs.argmax(axis=1) == y).sum())
            seen += len(y)
        val_acc = evaluate(net, val_data)
        sched.update(val_acc)
        test_acc = evaluate(net, test_data) if (config.eval_test and test_data is not None) else None
        metrics.append(EpochMetrics(
            epoch=epoch, train_loss=float(np.mean(losses)), train_acc=correct / seen,
            val_acc=val_acc, test_acc=test_acc, lr=sched.lr,
            seconds=time.time() - t0,
        ))
        if config.out_dir:
            if val_acc > best_val:
                best_val = val_acc
                models.save_weights(net, os.path.join(config.out_dir, "best.bin"))
            if config.checkpoint_every and (epoch + 1) % config.checkpoint_every == 0:
                models.save_weights(net, os.path.join(config.out_dir, f"epoch_{epoch}.bin"))
            write_metrics(os.path.join(config.out_dir, "metrics.csv"), config, metrics, net)
    return net, metrics


def write_metrics(path, config, metrics, net):
    """CSV with a leading '# config: {json}' provenance line, written atomically."""
    provenance = dataclasses.asdict(config)
    provenance["param_count"] = net.param_count()
    with models.write_atomically(path) as fh:
        fh.write(f"# config: {json.dumps(provenance, sort_keys=True)}\n")
        fh.write(METRICS_HEADER + "\n")
        for m in metrics:
            fh.write(m.csv_row() + "\n")


# -- gradient checking ------------------------------------------------------

@dataclasses.dataclass
class GradCheckEntry:
    layer: int
    name: str
    index: int
    analytic: float
    numeric: float
    error: float


@dataclasses.dataclass
class GradCheckReport:
    passed: bool
    tolerance: float
    max_error: float
    checked: int
    skipped_nonsmooth: int
    worst: list  # top offending GradCheckEntry records

    def __str__(self):
        lines = [
            f"gradient check: {'PASS' if self.passed else 'FAIL'} "
            f"({self.checked} entries, max rel err {self.max_error:.3e}, "
            f"tolerance {self.tolerance:.1e}, {self.skipped_nonsmooth} kink-adjacent skipped)"
        ]
        for e in self.worst[:10]:
            lines.append(
                f"  layer {e.layer} {e.name}[{e.index}]: analytic {e.analytic:.6e} "
                f"numeric {e.numeric:.6e} err {e.error:.3e}"
            )
        return "\n".join(lines)


def _rel_error(a, n):
    # Floor the denominator: central differences of a O(1) loss carry
    # ~1e-11 absolute roundoff, so gradients below 1e-5 are compared on
    # an absolute scale where that noise cannot dominate the ratio.
    return abs(a - n) / max(abs(a), abs(n), 1e-5)


def grad_check(net, x, labels, tolerance=1e-4, step=1e-5, samples_per_layer=200, seed=0):
    """Compare analytic gradients of the batch loss with central differences.

    Samples up to ``samples_per_layer`` scalar entries from every
    parameter tensor and from the input and perturbs each by +-step.
    One clean forward records the input of every call in ``net.steps``;
    a perturbed parameter of layer k then replays only the calls from
    layer k on, from that recorded input (the network input replays them
    all). The calls before k would recompute bit-identical outputs, since
    no layer changes its input, so every loss equals that of a full
    forward.

    The loss of a ReLU/max-pool network is only piecewise smooth; a
    perturbation interval that crosses a kink makes the secant
    meaningless. The kink signature, joined over the replayed calls (the
    others are unchanged), captures the active linear piece (ReLU masks,
    pooling argmax routes) after each evaluation, and an entry whose
    endpoints land on different pieces is excluded when it misses the
    tolerance: no derivative exists there to compare against. Entries on
    a single piece are always enforced, so a wrong backward pass still
    fails on the overwhelming smooth majority.

    The loss is whatever ``net.loss_layer`` computes: any object with
    ``forward(output, labels)`` returning (loss, _) and ``backward()``
    returning d loss / d output can stand in for the softmax head.
    """
    rng = np.random.default_rng(seed)
    x = np.ascontiguousarray(x)
    net.zero_grads()
    inputs = {}  # inputs[k]: layer k's input in the clean forward; x is perturbed in place
    h = x
    for i, layer, kwargs in net.steps:
        inputs[i] = h
        h = layer.forward(h, train=False, **kwargs)
    net.loss_layer.forward(h, labels)
    dx = net.backward()
    targets = [(i, name, p, g.copy()) for i, name, p, g in net.params()]
    targets.append((-1, "input", x, dx))

    def replay(layer_idx):
        start = max(layer_idx, 0)  # the input (-1) replays every layer
        suffix = [(layer, kwargs) for i, layer, kwargs in net.steps if i >= start]
        h = inputs[start]
        for layer, kwargs in suffix:
            h = layer.forward(h, train=False, **kwargs)
        loss, _ = net.loss_layer.forward(h, labels)
        return loss, b"".join(layer.kink_signature() for layer, _ in suffix)

    entries = []
    skipped = 0
    for layer_idx, name, p, g in targets:
        picks = rng.choice(p.size, size=min(samples_per_layer, p.size), replace=False)
        flat = p.reshape(-1)
        for k in picks:
            orig = flat[k]
            flat[k] = orig + step
            lp, sig_p = replay(layer_idx)
            flat[k] = orig - step
            lm, sig_m = replay(layer_idx)
            flat[k] = orig
            numeric = (lp - lm) / (2.0 * step)
            analytic = g.reshape(-1)[k]
            err = _rel_error(analytic, numeric)
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
