"""The benchmark workloads and the repetition that each one runs.

Every workload mirrors a command a user runs (see README.md), calls the
library only through its public functions, and checks what comes back.
A repetition sets the program up, trains a few epochs with per-epoch
evaluation, reloads ``best.bin``, then in rounds evaluates the test split
and gradient-checks the maxmin preset and its baseline in float64.
"""
import contextlib
import dataclasses
import hashlib
import importlib
import os
import shutil
import time

import numpy as np

import synth
from maxmin_cnn import cli, models

T = importlib.import_module("maxmin_cnn.train")

NET_SEED = 1          # as in scripts/full_mnist.py and scripts/boosted_cifar10.py
DTYPE = np.float32    # both scripts train in float32 at batch 64
BATCH = 64
# Training files hold 128 images; load_dataset holds 10% out for val.
N_TRAIN_FILE = 128
# Both nets sit on their initial loss plateau for many steps. At the
# scripts' learning rate of 0.01 the loss moved by 1e-4 or less over the
# few steps run here, no more than batch composition, dropout and
# augmentation move it, so on some seeds the last epoch's loss was not
# below the first's. The rate does not change the work timed.
LEARNING_RATE = 0.1

SETUP_SAMPLES = 5     # set-up is short, so it is repeated and its median reported
# A shared host's speed drifts over seconds, so the short calls (evaluate and
# the two grad_checks) run in interleaved rounds and each metric samples the
# whole repetition. A sample lasts at least a few tenths of a second: one
# eval_img_s sample times EVAL_CALLS back-to-back evaluate calls.
ROUNDS = 2
EVAL_CALLS = 3        # per round, timed as one sample
GRADCHECK = dict(tolerance=1e-4, step=1e-5, seed=1, samples_per_layer=2)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    dataset: str          # "mnist" or "cifar10"
    n_test: int
    epochs: int           # fewest for which the last epoch's loss is reliably below the first's
    weight_decay: float
    boost: bool

    @property
    def filters(self):
        return (64, 64, 64) if self.dataset == "mnist" else (32, 32, 64)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# File sizes keep the real runs' ratio of evaluated (val + test) to trained
# images per epoch: 16k/54k on MNIST, 15k/45k on CIFAR-10.
WORKLOADS = {w.name: w for w in (
    Workload("mnist-maxmin-f32", "mnist", n_test=21, epochs=3, weight_decay=1e-3, boost=False),
    Workload("cifar-boost-f32", "cifar10", n_test=25, epochs=4, weight_decay=1e-4, boost=True),
)}


def write_inputs(workload, directory, seed):
    writer = synth.write_mnist if workload.dataset == "mnist" else synth.write_cifar
    writer(directory, N_TRAIN_FILE, workload.n_test, seed)


def weights_digest(net):
    h = hashlib.sha256()
    for _, _, value, _ in net.params():
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()[:16]


class Run:
    """Repetitions of one workload in one process, with their checks.

    ``attempted`` and ``failed`` count calls into train, evaluate and
    grad_check; a call fails if it raises or its output check fails.
    """

    def __init__(self, workload, data_dir, work_dir, log):
        self.w = workload
        self.data_dir = data_dir
        self.work_dir = work_dir
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.samples = {k: [] for k in ("train_img_s", "eval_img_s", "gradcheck_maxmin_s",
                                        "gradcheck_baseline_s", "setup_prepare_s",
                                        "setup_load_weights_s", "rep_s", "round_s")}
        self.digests = []
        self.gradcheck_counts = {}
        self.train_sizes = None
        self._round_inputs = None   # what round() runs on: the latest repetition's nets

    def _fail(self, op, why):
        self.failed += 1
        self.log(f"FAILED {op}: {why}")

    def _op(self, op, fn):
        """Run one counted call; returns (ok, seconds, result)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # any raise is a failed operation, reported and counted
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return False, None, None
        return True, time.perf_counter() - t0, result

    def _prepare(self):
        w = self.w
        train_split, val_split, test = cli.load_dataset(w.dataset, self.data_dir, seed=NET_SEED)
        for split in (train_split, val_split, test):
            split.images = split.images.astype(DTYPE)
        net = cli.build_net(w.dataset, "maxmin", w.filters, boost=w.boost,
                            seed=NET_SEED, dtype=DTYPE)
        checked = {arch: cli.build_net(w.dataset, arch, w.filters, boost=w.boost,
                                       seed=NET_SEED, dtype=np.float64)
                   for arch in ("maxmin", "baseline")}
        return train_split, val_split, test, net, checked

    def rep(self, index, span=None):
        """One repetition; ``span(name)`` marks benchmark phases in a traced rep."""
        span = span or (lambda name: contextlib.nullcontext())
        w = self.w
        out_dir = os.path.join(self.work_dir, f"rep{index}")
        t_rep = time.perf_counter()
        self._round_inputs = None   # let the last repetition's nets go before set-up
        for _ in range(SETUP_SAMPLES):
            with span("bench.setup"):
                t0 = time.perf_counter()
                train_split, val_split, test, net, checked = self._prepare()
                self.samples["setup_prepare_s"].append(time.perf_counter() - t0)
        self.train_sizes = (len(train_split), len(val_split), len(test))

        config = T.TrainConfig(
            epochs=w.epochs, batch_size=BATCH, seed=NET_SEED, learning_rate=LEARNING_RATE,
            weight_decay=w.weight_decay, augment=w.boost, hflip=w.dataset != "mnist",
            zca=w.boost, out_dir=out_dir, eval_test=True)
        saved = []
        zca_fit_s = []
        original_save, original_zca_fit = models.save_weights, T.zca_fit

        def save_and_snapshot(net_, path):
            # The in-memory state that best.bin must reproduce on reload.
            original_save(net_, path)
            if os.path.basename(path) == "best.bin":
                saved[:] = [v.copy() for _, _, v, _ in net_.params()]

        def timed_zca_fit(*args, **kwargs):
            # An eigh of the pixel covariance, whose cost does not grow with
            # the images: a real run pays it once over 120 epochs of 45k
            # images, so it is left out of train_img_s (see data.zca_fit_s).
            t0 = time.perf_counter()
            try:
                return original_zca_fit(*args, **kwargs)
            finally:
                zca_fit_s.append(time.perf_counter() - t0)

        models.save_weights, T.zca_fit = save_and_snapshot, timed_zca_fit
        try:
            ok, dt, result = self._op("train", lambda: T.train(
                net, train_split, val_split, config, test_data=test))
        finally:
            models.save_weights, T.zca_fit = original_save, original_zca_fit
        if ok and self._check_train(result[1], net):
            self.samples["train_img_s"].append(w.epochs * len(train_split)
                                               / (dt - sum(zca_fit_s)))

        best = os.path.join(out_dir, "best.bin")
        loaded, reload_error = None, None
        if ok and os.path.exists(best):
            times = []
            for _ in range(SETUP_SAMPLES):
                with span("bench.setup"):
                    t0 = time.perf_counter()
                    loaded = models.load_weights(best, net.spec, seed=NET_SEED, dtype=DTYPE)
                    times.append(time.perf_counter() - t0)
            self.samples["setup_load_weights_s"].extend(times)
        if loaded is None:
            self.attempted += 1
            self._fail("evaluate", "no best.bin to reload")
        else:
            with span("bench.check"):
                reload_error = self._reload_error(loaded, saved, test)
        x = np.ascontiguousarray(test.images[:2], dtype=np.float64)
        y = test.labels[:2]
        self._round_inputs = (loaded, test, reload_error, checked, x, y)
        for _ in range(ROUNDS):
            self.round()
        self.samples["rep_s"].append(time.perf_counter() - t_rep)
        shutil.rmtree(out_dir, ignore_errors=True)

    def round(self):
        """Evaluate the reloaded net, then grad-check both presets, on the latest repetition's nets."""
        t0 = time.perf_counter()
        loaded, test, reload_error, checked, x, y = self._round_inputs
        if loaded is not None:
            self._evaluate(loaded, test, reload_error)
        for arch, gnet in checked.items():
            self._grad_check(arch, gnet, x, y)
        self.samples["round_s"].append(time.perf_counter() - t0)

    def _evaluate(self, net, test, reload_error):
        """EVAL_CALLS back-to-back evaluate calls, timed as one sample."""
        total = 0.0
        for _ in range(EVAL_CALLS):
            ok, dt, _ = self._op("evaluate", lambda: T.evaluate(net, test))
            if not ok:
                return
            if reload_error:
                self._fail("evaluate", reload_error)
                return
            total += dt
        self.samples["eval_img_s"].append(EVAL_CALLS * len(test) / total)

    def _grad_check(self, arch, net, x, y):
        ok, dt, report = self._op(f"grad_check {arch}", lambda: T.grad_check(
            net, x, y, **GRADCHECK))
        if not ok:
            return
        self.gradcheck_counts[arch] = dict(checked=report.checked,
                                           skipped_nonsmooth=report.skipped_nonsmooth,
                                           max_error=report.max_error)
        if report.passed:
            self.samples[f"gradcheck_{arch}_s"].append(dt)
        else:
            self._fail(f"grad_check {arch}", str(report))

    def _check_train(self, metrics, net):
        losses = [m.train_loss for m in metrics]
        if len(losses) != self.w.epochs or not all(np.isfinite(losses)):
            self._fail("train", f"losses {losses}")
            return False
        if not losses[-1] < losses[0]:
            self._fail("train", f"last epoch loss {losses[-1]} not below first {losses[0]}")
            return False
        # Seeded runs are bit-identical: every repetition must end on the same weights.
        self.digests.append(weights_digest(net))
        if self.digests[-1] != self.digests[0]:
            self._fail("train", f"weights digest {self.digests[-1]} != {self.digests[0]}")
            return False
        return True

    def _reload_error(self, loaded, saved, test):
        """Why the reloaded best.bin is not the net train saved, or None."""
        if not saved:
            return "train never wrote best.bin"
        snapshot = cli.build_net(self.w.dataset, "maxmin", self.w.filters, boost=self.w.boost,
                                 seed=NET_SEED, dtype=DTYPE)
        for (_, _, dst, _), src in zip(snapshot.params(), saved):
            dst[...] = src
        if not np.array_equal(loaded.forward(test.images), snapshot.forward(test.images)):
            return "logits of the reloaded best.bin differ from the saved net"
        return None
