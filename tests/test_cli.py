import builtins
import os
import pathlib
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from maxmin_cnn import cli, models
from maxmin_cnn import data as D
from maxmin_cnn.errors import WeightFileError


def _write_idx(directory, split, images, labels):
    """Write uint8 (n, 28, 28) images and labels as one MNIST IDX split."""
    n = len(labels)
    with open(directory / f"{split}-images-idx3-ubyte", "wb") as fh:
        fh.write(struct.pack(">4i", D.IDX_IMAGES_MAGIC, n, 28, 28))
        fh.write(images.tobytes())
    with open(directory / f"{split}-labels-idx1-ubyte", "wb") as fh:
        fh.write(struct.pack(">2i", D.IDX_LABELS_MAGIC, n))
        fh.write(labels.tobytes())


def _learnable(n, shape, seed):
    """Balanced two-class uint8 images whose label follows from the pixels.

    Every image is noise; a class-1 image adds a bright square over the
    central three quarters, shifted by up to 2 pixels. Labels are 0 and 1,
    so chance is 0.5.
    """
    r = np.random.default_rng(seed)
    labels = r.permutation(np.arange(n) % 2).astype(np.uint8)
    images = r.normal(0.0, 10.0, (n,) + shape)
    lo, hi = shape[-1] // 8, shape[-1] - shape[-1] // 8
    for i in np.flatnonzero(labels):
        dy, dx = r.integers(-2, 3, size=2)
        images[i, ..., lo + dy:hi + dy, lo + dx:hi + dx] += 255.0
    return np.clip(images, 0, 255).astype(np.uint8), labels


@pytest.fixture
def mnist_dir(tmp_path):
    """Tiny synthetic dataset in the canonical MNIST IDX layout."""
    rng = np.random.default_rng(77)
    for split, n in (("train", 40), ("t10k", 10)):
        images = rng.integers(0, 256, (n, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, n, dtype=np.uint8)
        _write_idx(tmp_path, split, images, labels)
    return tmp_path


@pytest.fixture
def cifar_dir(tmp_path):
    """Eight synthetic CIFAR-10 records per binary batch."""
    rng = np.random.default_rng(78)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        records = rng.integers(0, 256, (8, D.CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, 8)
        (tmp_path / name).write_bytes(records.tobytes())
    return tmp_path


CONV1_DIMS = 20  # a weight file's first dims: conv1's rank (u32) sits at byte 16


class TestParams:
    def test_cifar_baseline_conv1(self, capsys):
        assert cli.main(["params", "--dataset", "cifar10", "--arch", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "conv: 2432" in out
        assert "total:" in out

    def test_prints_resolved_config(self, capsys):
        cli.main(["params", "--dataset", "mnist", "--arch", "maxmin"])
        out = capsys.readouterr().out
        assert out.startswith("config: {")
        assert '"arch": "maxmin"' in out

    @pytest.mark.parametrize("flags,lines", [
        (["--dataset", "mnist"], ["layer 0 conv: 1664", "layer 5 conv: 204864",
                                  "layer 10 conv: 204864", "layer 16 dense: 20490",
                                  "total: 431882"]),
        (["--dataset", "cifar10"], ["layer 0 conv: 2432", "layer 4 conv: 51232",
                                    "layer 8 conv: 102464", "layer 13 dense: 131136",
                                    "layer 15 dense: 650", "total: 287914"]),
        (["--dataset", "cifar10", "--boost"], ["layer 0 conv: 2432", "layer 5 conv: 51232",
                                               "layer 10 conv: 102464",
                                               "layer 17 dense: 131136",
                                               "layer 20 dense: 650", "total: 287914"]),
    ], ids=["mnist", "cifar10", "cifar10-boost"])
    def test_maxmin_layer_indices_are_pinned(self, flags, lines, capsys):
        """Parameter indices count the MaxMin and ReLU that a fused pool stands for."""
        assert cli.main(["params", "--arch", "maxmin"] + flags) == 0
        assert capsys.readouterr().out.splitlines()[1:] == lines


class TestValidation:
    def test_invalid_filters_exit_2(self, capsys):
        code = cli.main(["params", "--dataset", "cifar10", "--filters", "0,32,64"])
        assert code == 2

    def test_malformed_filters_exit_2(self):
        assert cli.main(["params", "--dataset", "cifar10", "--filters", "a,b"]) == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["params", "--dataset", "mnist", "--bogus"])
        assert exc.value.code == 2

    def test_missing_data_exit_3(self, tmp_path, capsys):
        code = cli.main(["train", "--dataset", "mnist", "--arch", "baseline",
                         "--epochs", "1", "--data-dir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"missing MNIST files in {tmp_path}" in err
        assert "train-images-idx3-ubyte" in err

    @pytest.mark.parametrize("command,extra", [
        ("train", ["--data-dir", "."]), ("params", []),
        ("eval", ["--weights", "best.bin", "--data-dir", "."]),
    ], ids=["train", "params", "eval"])
    def test_mnist_boost_exit_2(self, command, extra, capsys):
        code = cli.main([command, "--dataset", "mnist", "--boost"] + extra)
        assert code == 2
        assert "boost applies to cifar10 only" in capsys.readouterr().err

    def test_cifar_eval_boost_exit_2_before_loading(self, tmp_path, capsys):
        """train --boost scores ZCA-whitened images, and the fitted transform is not
        saved, so eval cannot reproduce them. Neither the weight file nor the data
        exists, so exit 2 means the flag was refused before either was read."""
        code = cli.main(["eval", "--dataset", "cifar10", "--arch", "maxmin", "--boost",
                         "--weights", str(tmp_path / "best.bin"), "--data-dir", str(tmp_path)])
        assert code == 2
        assert "ZCA whitening transform" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--dataset", "mnist", "--weights", "best.bin", "--seed", "1"],
        ["gradcheck", "--dataset", "mnist", "--data-dir", "."],
        ["params", "--dataset", "mnist", "--seed", "1"],
        ["params", "--dataset", "mnist", "--data-dir", "."],
    ], ids=["eval-seed", "gradcheck-data-dir", "params-seed", "params-data-dir"])
    def test_unread_flag_rejected(self, argv):
        """eval's seed only shuffled a split it never scores; gradcheck reads no
        files; parameter counts depend on neither."""
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,dataset,title,missing", [
        ("train", "mnist", "MNIST", "t10k-labels-idx1-ubyte"),
        ("train", "cifar10", "CIFAR-10", "test_batch.bin"),
        ("compare", "cifar10", "CIFAR-10", "test_batch.bin"),
    ], ids=["train-mnist", "train-cifar10", "compare"])
    def test_every_file_checked_before_decoding(self, command, dataset, title, missing,
                                                request, monkeypatch, capsys):
        """The last file a run needs is missing, so no split may be decoded first."""
        data_dir = request.getfixturevalue("mnist_dir" if dataset == "mnist" else "cifar_dir")
        (data_dir / missing).unlink()
        decoded = []
        for loader in ("load_mnist", "load_cifar10"):
            monkeypatch.setattr(D, loader, lambda *args: decoded.append(args))
        args = (["compare", "--budgets", "2-2-4"] if command == "compare"
                else ["train", "--dataset", dataset])
        assert cli.main(args + ["--epochs", "1", "--data-dir", str(data_dir)]) == 3
        assert f"missing {title} files in {data_dir}" in capsys.readouterr().err
        assert decoded == []

    def test_wrong_image_size_exit_3(self, mnist_dir, capsys):
        """40x40 digits used to reach np.pad with a negative width (exit 2)."""
        with open(mnist_dir / "train-images-idx3-ubyte", "wb") as fh:
            fh.write(struct.pack(">4i", D.IDX_IMAGES_MAGIC, 40, 40, 40))
            fh.write(bytes(40 * 40 * 40))
        code = cli.main(["train", "--dataset", "mnist", "--arch", "baseline",
                         "--epochs", "1", "--data-dir", str(mnist_dir)])
        assert code == 3
        assert "40x40, expected 28x28" in capsys.readouterr().err

    @pytest.mark.parametrize("budgets,bad", [
        ("2-2", "2-2"), ("2-2-4,3-x-6", "3-x-6"), ("2-2-4-8", "2-2-4-8"), ("0-2-4", "0-2-4"),
    ], ids=["two-counts", "not-an-int", "four-counts", "zero"])
    def test_malformed_budget_exit_2_before_loading(self, budgets, bad, tmp_path, capsys):
        """An empty data directory would exit 3, so 2 means the budget failed first."""
        code = cli.main(["compare", "--budgets", budgets, "--data-dir", str(tmp_path)])
        assert code == 2
        assert repr(bad) in capsys.readouterr().err

    def test_negative_checkpoint_every_exit_2_before_loading(self, tmp_path, capsys):
        """An empty data directory would exit 3, so 2 means the config failed first."""
        code = cli.main(["train", "--dataset", "mnist", "--checkpoint-every", "-1",
                         "--data-dir", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "checkpoint_every=-1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,subset,role", [
        ("train", "4", "validation"), ("train", "-1", "training"),
        ("train", "0", "training"), ("compare", "4", "validation"),
    ], ids=["train", "train-negative", "train-zero", "compare"])
    def test_subset_that_empties_a_split_exit_2(self, command, subset, role,
                                                mnist_dir, tmp_path, capsys):
        """--subset 4 holds out round(0.4) = 0 images; evaluate used to divide by zero."""
        data_dir = mnist_dir
        args = ["train", "--dataset", "mnist", "--epochs", "1"]
        if command == "compare":
            data_dir = tmp_path / "cifar"
            data_dir.mkdir()
            for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
                (data_dir / name).write_bytes(bytes(2 * D.CIFAR_RECORD_BYTES))
            args = ["compare", "--budgets", "2-2-4", "--epochs", "1"]
        out = tmp_path / "out"
        code = cli.main(args + ["--subset", subset, "--data-dir", str(data_dir),
                                "--out", str(out)])
        assert code == 2
        assert f"leave the {role} split empty" in capsys.readouterr().err
        assert not out.exists()

    def test_idx_count_past_2_31_exit_3(self, mnist_dir, capsys):
        """The unsigned count fails the truncation check; read signed it was negative (exit 2)."""
        path = mnist_dir / "train-images-idx3-ubyte"
        path.write_bytes(struct.pack(">4I", D.IDX_IMAGES_MAGIC, 0xFFFFFFFF, 28, 28) + bytes(784))
        code = cli.main(["train", "--dataset", "mnist", "--epochs", "1",
                         "--data-dir", str(mnist_dir)])
        assert code == 3
        assert f"{path}: truncated image payload" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_test_split_exit_3(self, command, mnist_dir, capsys):
        """A zero-count t10k pair used to end in evaluate's ZeroDivisionError (exit 1)."""
        _write_idx(mnist_dir, "t10k", np.zeros((0, 28, 28), np.uint8), np.zeros(0, np.uint8))
        args = ["train", "--epochs", "1", "--out", str(mnist_dir / "out")]
        if command == "eval":
            weights = mnist_dir / "weights.bin"
            models.save_weights(models.build_net("mnist"), weights)
            args = ["eval", "--weights", str(weights)]
        code = cli.main(args + ["--dataset", "mnist", "--data-dir", str(mnist_dir)])
        assert code == 3
        err = capsys.readouterr().err
        assert "MNIST test files hold no images" in err
        assert str(mnist_dir / "t10k-images-idx3-ubyte") in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_mnist_label_out_of_range_exit_3(self, command, mnist_dir, capsys):
        """Label byte 12: train used to exit 2 after the build, and eval scored it a miss."""
        for split in ("train", "t10k"):
            path = mnist_dir / f"{split}-labels-idx1-ubyte"
            blob = path.read_bytes()
            path.write_bytes(blob[:8] + bytes([12]) + blob[9:])
        args = ["train", "--epochs", "1", "--out", str(mnist_dir / "out")]
        if command == "eval":
            weights = mnist_dir / "weights.bin"
            models.save_weights(models.build_net("mnist", filters=(2, 2, 2)), weights)
            args = ["eval", "--weights", str(weights)]
        code = cli.main(args + ["--dataset", "mnist", "--filters", "2,2,2",
                                "--data-dir", str(mnist_dir)])
        assert code == 3
        assert "-labels-idx1-ubyte: label 12 at byte 8 is out of range [0, 9]" in (
            capsys.readouterr().err)

    def test_eval_missing_weights_exit_3(self, mnist_dir, capsys):
        weights = mnist_dir / "absent.bin"
        code = cli.main(["eval", "--dataset", "mnist", "--weights", str(weights),
                         "--data-dir", str(mnist_dir)])
        assert code == 3
        assert f"data error: {weights}: cannot read weight file" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt,message", [
        (lambda blob: blob[:11], "truncated at byte 11 in the magic or spec hash"),
        (lambda blob: blob[:18], "truncated at byte 18 reading layer 0 weights"),
        (lambda blob: blob[:-8], "truncated"),
        (lambda blob: blob[:CONV1_DIMS] + struct.pack("<Q", 3) + blob[CONV1_DIMS + 8:],
         r"layer 0 weights: rank or dims are not \(2, 1, 5, 5\)"),
        # 3 * 2**62 wraps int64: dims read from the file once sized a negative count (exit 2)
        (lambda blob: blob[:CONV1_DIMS] + struct.pack("<4Q", 2**62, 3, 1, 1)
         + blob[CONV1_DIMS + 32:], "rank or dims are not"),
        (lambda blob: blob + b"\0", "1 trailing bytes"),
    ], ids=["hash-cut", "header-cut", "payload-cut", "dim-changed", "dims-wrap-int64",
            "trailing-byte"])
    def test_corrupt_weights_exit_3(self, corrupt, message, mnist_dir, capsys):
        spec = models.preset_spec("mnist", "baseline", (2, 2, 2))
        weights = mnist_dir / "weights.bin"
        models.save_weights(models.build_network(spec), weights)
        weights.write_bytes(corrupt(weights.read_bytes()))
        with pytest.raises(WeightFileError, match=message):
            models.load_weights(weights, spec)
        code = cli.main(["eval", "--dataset", "mnist", "--filters", "2,2,2",
                         "--weights", str(weights), "--data-dir", str(mnist_dir)])
        assert code == 3
        assert f"data error: {weights}: " in capsys.readouterr().err

    def test_no_data_dir_exit_3(self, monkeypatch):
        monkeypatch.delenv("DATA_DIR", raising=False)
        parser_default_none = cli.main(["train", "--dataset", "mnist",
                                        "--epochs", "1", "--data-dir", ""])
        assert parser_default_none == 3


def test_cli_builds_through_models():
    assert cli.build_net is models.build_net


def test_divergence_exit_4(mnist_dir, tmp_path, capsys):
    code = cli.main(["train", "--dataset", "mnist", "--filters", "2,2,2", "--epochs", "3",
                     "--batch-size", "8", "--lr", "1e30", "--data-dir", str(mnist_dir),
                     "--out", str(tmp_path / "run")])
    assert code == 4
    assert capsys.readouterr().err == "divergence: non-finite loss at epoch 0 batch 1\n"


class TestGradcheckCommand:
    def test_small_maxmin_net_exits_zero(self, capsys):
        code = cli.main(["gradcheck", "--dataset", "mnist", "--arch", "maxmin",
                         "--filters", "2,2,2", "--samples", "20"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_no_samples_exit_2(self, capsys):
        """--samples 0 used to check nothing and print PASS."""
        code = cli.main(["gradcheck", "--dataset", "mnist", "--samples", "0"])
        assert code == 2
        assert "--samples must be at least 1, got 0" in capsys.readouterr().err


class TestTrainEvalRoundTrip:
    def test_train_writes_metrics_and_eval_reproduces(self, mnist_dir, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = cli.main([
            "train", "--dataset", "mnist", "--arch", "maxmin", "--filters", "2,2,2",
            "--epochs", "2", "--batch-size", "10", "--seed", "1",
            "--data-dir", str(mnist_dir), "--out", str(out_dir),
        ])
        assert code == 0
        metrics = (out_dir / "metrics.csv").read_text().splitlines()
        assert metrics[1] == "epoch,train_loss,train_acc,val_acc,test_acc,lr,seconds"
        assert (out_dir / "best.bin").exists()
        capsys.readouterr()

        code = cli.main([
            "eval", "--dataset", "mnist", "--arch", "maxmin", "--filters", "2,2,2",
            "--weights", str(out_dir / "best.bin"), "--data-dir", str(mnist_dir),
        ])
        assert code == 0
        assert "test_acc=" in capsys.readouterr().out

    def test_float32_train_and_eval(self, mnist_dir, tmp_path, monkeypatch, capsys):
        dtypes = {}

        def spy(net, train_split, val_split, config, test_data=None):
            dtypes["params"] = {v.dtype for _, _, v, _ in net.params()}
            dtypes["splits"] = [s.images.dtype for s in (train_split, val_split, test_data)]
            return train(net, train_split, val_split, config, test_data=test_data)

        train = cli.train
        monkeypatch.setattr(cli, "train", spy)
        out_dir = tmp_path / "run"
        common = ["--dataset", "mnist", "--arch", "maxmin", "--filters", "2,2,2",
                  "--data-dir", str(mnist_dir)]
        assert cli.main(["train", *common, "--float32", "--epochs", "1", "--batch-size", "10",
                         "--out", str(out_dir)]) == 0
        assert dtypes == {"params": {np.dtype(np.float32)}, "splits": [np.float32] * 3}
        assert cli.main(["eval", *common, "--weights", str(out_dir / "best.bin")]) == 0
        assert "test_acc=" in capsys.readouterr().out

    @pytest.mark.parametrize("dataset,test_files,n", [
        ("mnist", ["t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"], 10),
        ("cifar10", ["test_batch.bin"], 8),
    ], ids=["mnist", "cifar10"])
    def test_eval_reads_the_test_files_alone(self, dataset, test_files, n, request,
                                             tmp_path, capsys):
        full_dir = request.getfixturevalue("mnist_dir" if dataset == "mnist" else "cifar_dir")
        test_dir = tmp_path / "test_only"
        test_dir.mkdir()
        for name in test_files:
            shutil.copy(full_dir / name, test_dir / name)
        weights = tmp_path / "best.bin"
        models.save_weights(models.build_net(dataset, "maxmin", (2, 2, 2), seed=3), str(weights))
        lines = []
        for data_dir in (full_dir, test_dir):
            assert cli.main(["eval", "--dataset", dataset, "--arch", "maxmin",
                             "--filters", "2,2,2", "--weights", str(weights),
                             "--data-dir", str(data_dir)]) == 0
            lines.append(capsys.readouterr().out.splitlines()[-1])
        assert lines[0] == lines[1]
        assert lines[0].startswith("test_acc=") and lines[0].endswith(f" n={n}")

    def test_compare_out_failed_write_keeps_previous_csv(self, cifar_dir, monkeypatch):
        """A write that raises after the header leaves the old table and no temp file."""
        out_csv = cifar_dir / "table.csv"
        out_csv.write_text("previous table\n")
        real_open = open

        def open_failing_on_second_write(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if "w" in mode:
                writes = []
                real_write = fh.write

                def write(text):
                    writes.append(text)
                    if len(writes) == 2:
                        raise OSError("no space left on device")
                    return real_write(text)
                fh.write = write
            return fh

        monkeypatch.setattr(builtins, "open", open_failing_on_second_write)
        with pytest.raises(OSError, match="no space left"):
            cli.main(["compare", "--budgets", "2-2-4", "--epochs", "1", "--batch-size", "8",
                      "--data-dir", str(cifar_dir), "--out", str(out_csv)])
        monkeypatch.undo()
        assert out_csv.read_text() == "previous table\n"
        assert sorted(p.name for p in cifar_dir.glob("table.csv*")) == ["table.csv"]

    def test_compare_emits_table(self, tmp_path, capsys, monkeypatch):
        # synthetic CIFAR batches
        rng = np.random.default_rng(79)
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            records = rng.integers(0, 256, (8, D.CIFAR_RECORD_BYTES), dtype=np.uint8)
            records[:, 0] = rng.integers(0, 10, 8)
            (tmp_path / name).write_bytes(records.tobytes())
        out_csv = tmp_path / "table.csv"
        code = cli.main([
            "compare", "--budgets", "2-2-4,3-3-6", "--epochs", "1",
            "--batch-size", "8", "--seed", "0", "--data-dir", str(tmp_path),
            "--out", str(out_csv),
        ])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "budget,baseline_params,maxmin_params,baseline_acc,maxmin_acc"
        assert len(lines) == 3
        for line in lines[1:]:
            _, bp, mp, _, _ = line.split(",")
            assert abs(int(mp) - int(bp)) / int(bp) <= 0.15

    def test_compare_rerun_reproduces_table(self, tmp_path, capsys):
        names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
        for seed, name in enumerate(names):
            images, labels = _learnable(48, (3, 32, 32), seed)
            records = np.concatenate([labels[:, None], images.reshape(48, -1)], axis=1)
            (tmp_path / name).write_bytes(records.tobytes())
        args = ["compare", "--budgets", "8-8-16", "--epochs", "5", "--batch-size", "4",
                "--lr", "0.02", "--seed", "3", "--data-dir", str(tmp_path)]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        accs = [float(v) for v in first.splitlines()[-1].split()[-2:]]
        # A constant prediction scores 0.5, so a higher score shows a trained
        # net. At these sizes a net may stay on its initial plateau: on seeds
        # 0-5 at least one of the pair always left it, and at seed 3 both did.
        assert max(accs) > 0.75
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_compare_loads_data_once(self, cifar_dir, monkeypatch):
        calls = []
        load = cli.load_dataset

        def counting_load(*args, **kwargs):
            calls.append(args[0])
            return load(*args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", counting_load)
        assert cli.main(["compare", "--budgets", "2-2-4,3-3-6", "--epochs", "1",
                         "--batch-size", "8", "--data-dir", str(cifar_dir)]) == 0
        assert calls == ["cifar10"]


@pytest.mark.parametrize("arch", ["baseline", "maxmin"])
def test_train_then_eval_beats_chance_on_idx_files(arch, tmp_path, capsys):
    """Criterion 6's path (IDX files, train, best.bin, eval) on learnable digits.

    With 4 filters a plain ReLU net can lose every unit to the zero side:
    at momentum 0.9 the baseline did on half the seeds tried, and at 0.5 it
    learned on seeds 0, 1, 3 and 4 of 0-5 (maxmin on all six). Seed 1
    checks the path.
    """
    for seed, (split, n) in enumerate((("train", 400), ("t10k", 100))):
        _write_idx(tmp_path, split, *_learnable(n, (28, 28), seed))
    out = tmp_path / arch
    common = ["--dataset", "mnist", "--arch", arch, "--filters", "4,4,4",
              "--data-dir", str(tmp_path)]
    assert cli.main(["train", *common, "--seed", "1", "--epochs", "5", "--batch-size", "4",
                     "--lr", "0.02", "--momentum", "0.5", "--weight-decay", "0",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", *common, "--weights", str(out / "best.bin")]) == 0
    acc = float(capsys.readouterr().out.split("test_acc=")[1].split()[0])
    assert acc > 0.75


SCRIPTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["boosted_cifar10.py", "full_cifar10.py", "full_mnist.py"])
def test_script_flags_parse(script, tmp_path):
    """A script run on an empty data directory fails on the data (3), not on its flags (2)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, DATA_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(SCRIPTS_DIR / script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 3, result.stderr
    assert "data error: missing" in result.stderr
