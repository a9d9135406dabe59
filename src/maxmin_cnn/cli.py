"""Command-line interface: train, eval, gradcheck, params, compare.

Exit codes: 0 success, 1 check failure, 2 configuration error,
3 data error, 4 training divergence.
"""
import argparse
import json
import os
import sys

import numpy as np

from . import data as D
from . import models
from .models import build_net
from .errors import ConfigError, DataError, DivergenceError, MaxMinError
from .train import TrainConfig, evaluate, grad_check, train

FETCH_HELP = """\
Dataset files were not found. Place them under --data-dir (or $DATA_DIR):
  MNIST (IDX format, decompressed):
    train-images-idx3-ubyte, train-labels-idx1-ubyte,
    t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte
    from http://yann.lecun.com/exdb/mnist/ (gunzip the four .gz files)
  CIFAR-10 (binary version):
    data_batch_1.bin .. data_batch_5.bin, test_batch.bin
    from https://www.cs.toronto.edu/~kriz/cifar-10-binary.tar.gz"""


def _parse_filters(text, sep=",", flag="--filters"):
    try:
        filters = tuple(int(v) for v in text.split(sep))
    except ValueError:
        raise ConfigError(f"{flag} must be integers separated by {sep!r}, got {text!r}")
    if len(filters) != 3 or any(f < 1 for f in filters):
        raise ConfigError(f"{flag} needs 3 positive counts, got {text!r}")
    return filters


# dataset -> (name in messages, training files, test files)
DATA_FILES = {
    "mnist": ("MNIST", ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
              ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")),
    "cifar10": ("CIFAR-10", tuple(f"data_batch_{i}.bin" for i in range(1, 6)),
                ("test_batch.bin",)),
}


def _load_files(name, data_dir, test_only=False):
    """Decodes the training and test splits, or the test split alone,
    once every file they need is found."""
    if not data_dir:
        raise DataError("no data directory given (use --data-dir or $DATA_DIR)\n" + FETCH_HELP)
    title, train_files, test_files = DATA_FILES[name]
    splits = [test_files] if test_only else [train_files, test_files]
    paths = [[os.path.join(data_dir, f) for f in files] for files in splits]
    if not all(os.path.exists(p) for group in paths for p in group):
        raise DataError(f"missing {title} files in {data_dir}\n" + FETCH_HELP)
    loaded = [D.load_mnist(*group) if name == "mnist" else D.load_cifar10(group)
              for group in paths]
    if not len(loaded[-1]):
        raise DataError(f"{title} test files hold no images: {', '.join(paths[-1])}")
    return loaded


def load_dataset(name, data_dir, train_subset=None, seed=0):
    """Returns (train, val, test) splits for mnist or cifar10."""
    full, test = _load_files(name, data_dir)
    if train_subset is not None:
        full = full.subset(np.arange(min(train_subset, len(full))))
    train_split, val_split = D.split_train_val(full, 0.1, seed)
    for split, role in ((train_split, "training"), (val_split, "validation")):
        if not len(split):
            raise ConfigError(f"{len(full)} training images leave the {role} split empty: "
                              "10% of them, rounded, is held out for validation")
    return train_split, val_split, test


def cmd_train(args):
    dtype = np.float32 if args.float32 else np.float64
    net = build_net(args.dataset, args.arch, args.filters, boost=args.boost,
                    seed=args.seed, dtype=dtype)
    train_split, val_split, test = load_dataset(
        args.dataset, args.data_dir, train_subset=args.subset, seed=args.seed)
    if dtype is np.float32:
        for split in (train_split, val_split, test):
            split.images = split.images.astype(np.float32)
    config = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, seed=args.seed,
        learning_rate=args.lr, momentum=args.momentum, weight_decay=args.weight_decay,
        patience=args.patience, lr_factor=args.lr_factor,
        augment=args.boost, hflip=args.dataset != "mnist", zca=args.boost,
        checkpoint_every=args.checkpoint_every, out_dir=args.out, eval_test=True,
    )
    net, metrics = train(net, train_split, val_split, config, test_data=test)
    if metrics:
        last = metrics[-1]
        print(f"final: val_acc={last.val_acc:.4f} test_acc={last.test_acc:.4f} "
              f"params={net.param_count()}")
    return 0


def cmd_eval(args):
    spec = models.preset_spec(args.dataset, args.arch, args.filters, args.boost)
    if args.boost:
        raise ConfigError("eval --boost needs the ZCA whitening transform that train fitted, "
                          "and no run saves it yet; unwhitened test images would be misscored")
    net = models.load_weights(args.weights, spec)
    (test,) = _load_files(args.dataset, args.data_dir, test_only=True)
    acc = evaluate(net, test)
    print(f"test_acc={acc:.6f} n={len(test)}")
    return 0


def cmd_gradcheck(args):
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    net = build_net(args.dataset, args.arch, args.filters, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    shape = (2,) + net.spec.input_shape
    x = rng.random(shape)
    labels = rng.integers(0, net.spec.num_classes, size=2)
    report = grad_check(net, x, labels, tolerance=args.tolerance,
                          samples_per_layer=args.samples, seed=args.seed)
    print(report)
    return 0 if report.passed else 1


def cmd_params(args):
    net = build_net(args.dataset, args.arch, args.filters, boost=args.boost)
    for i, (layer, descs) in enumerate(zip(net.layers, net.spec.layers)):
        count = sum(v.size for _, v, _ in layer.params())
        if count:
            print(f"layer {i} {descs['kind']}: {count}")
    print(f"total: {net.param_count()}")
    return 0


def cmd_compare(args):
    budgets = [_parse_filters(b, "-", "--budgets") for b in args.budgets.split(",")]
    pairs = [(b, models.matched_maxmin_filters(b)) for b in budgets]
    # train and evaluate leave the splits untouched, so every run shares one load
    train_split, val_split, test = load_dataset(
        "cifar10", args.data_dir, train_subset=args.subset, seed=args.seed)
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, seed=args.seed,
                         learning_rate=args.lr, weight_decay=args.weight_decay)
    rows = []
    for base_filters, mm_filters in pairs:
        accs = {}
        counts = {}
        for arch, filters in (("baseline", base_filters), ("maxmin", mm_filters)):
            net = build_net("cifar10", arch, filters, seed=args.seed)
            counts[arch] = net.param_count()
            net, _ = train(net, train_split, val_split, config)
            accs[arch] = evaluate(net, test)
        rows.append(("-".join(map(str, base_filters)), counts["baseline"], counts["maxmin"],
                     accs["baseline"], accs["maxmin"]))
    print(f"{'budget':>12} {'params base/maxmin':>22} {'base_acc':>9} {'maxmin_acc':>10}")
    for budget, base_p, mm_p, base_acc, mm_acc in rows:
        print(f"{budget:>12} {f'{base_p}/{mm_p}':>22} {base_acc:>9.4f} {mm_acc:>10.4f}")
    if args.out:
        with models.write_atomically(args.out) as fh:
            fh.write("budget,baseline_params,maxmin_params,baseline_acc,maxmin_acc\n")
            for budget, base_p, mm_p, base_acc, mm_acc in rows:
                fh.write(f"{budget},{base_p},{mm_p},{base_acc:.4f},{mm_acc:.4f}\n")
    return 0


def _add_run_args(p, seed=True, data_dir=True):
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if data_dir:
        p.add_argument("--data-dir", default=os.environ.get("DATA_DIR"))


def _add_preset_args(p, seed=True, data_dir=True):
    p.add_argument("--dataset", choices=tuple(models.PRESETS), required=True)
    p.add_argument("--arch", choices=("baseline", "maxmin"), default="baseline")
    p.add_argument("--filters", help="comma-separated conv filter counts, e.g. 32,32,64")
    _add_run_args(p, seed, data_dir)


def make_parser():
    parser = argparse.ArgumentParser(prog="maxmin-cnn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a preset and write checkpoints + metrics")
    _add_preset_args(p)
    p.add_argument("--boost", action="store_true",
                   help="augmentation + ZCA + dropout + per-pool LRN (cifar10)")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--lr-factor", type=float, default=0.1)
    p.add_argument("--subset", type=int, help="limit training images (desk-scale runs)")
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--float32", action="store_true", help="single-precision training")
    p.add_argument("--out", default="runs/latest")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved weights on the test split")
    _add_preset_args(p, seed=False)
    p.add_argument("--boost", action="store_true")
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of a preset's gradients")
    _add_preset_args(p, data_dir=False)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("params", help="print per-layer and total parameter counts")
    _add_preset_args(p, seed=False, data_dir=False)
    p.add_argument("--boost", action="store_true")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("compare", help="train parameter-matched baseline/maxmin pairs")
    _add_run_args(p)
    p.add_argument("--budgets", required=True,
                   help="comma-separated baseline filter triples, e.g. 8-8-16,32-32-64")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--subset", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train":
            if args.epochs is None:
                args.epochs = 250 if args.dataset == "mnist" else 60
            if args.weight_decay is None:
                args.weight_decay = 1e-3 if args.dataset == "mnist" else 1e-4
        resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
        print(f"config: {json.dumps(resolved, default=str)}")
        if hasattr(args, "filters"):
            args.filters = _parse_filters(args.filters) if args.filters else None
        return args.func(args)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MaxMinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
