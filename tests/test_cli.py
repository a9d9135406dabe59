import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

from maxmin_cnn import cli
from maxmin_cnn import data as D

rng = np.random.default_rng(77)


@pytest.fixture
def mnist_dir(tmp_path):
    """Tiny synthetic dataset in the canonical MNIST IDX layout."""
    def write(images_name, labels_name, n):
        images = rng.integers(0, 256, (n, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, n, dtype=np.uint8)
        with open(tmp_path / images_name, "wb") as fh:
            fh.write(struct.pack(">4i", D.IDX_IMAGES_MAGIC, n, 28, 28))
            fh.write(images.tobytes())
        with open(tmp_path / labels_name, "wb") as fh:
            fh.write(struct.pack(">2i", D.IDX_LABELS_MAGIC, n))
            fh.write(labels.tobytes())

    write("train-images-idx3-ubyte", "train-labels-idx1-ubyte", 40)
    write("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", 10)
    return tmp_path


@pytest.fixture
def cifar_dir(tmp_path):
    """Eight synthetic CIFAR-10 records per binary batch."""
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        records = rng.integers(0, 256, (8, D.CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, 8)
        (tmp_path / name).write_bytes(records.tobytes())
    return tmp_path


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
        ("train", []), ("params", []), ("eval", ["--weights", "best.bin"]),
    ], ids=["train", "params", "eval"])
    def test_mnist_boost_exit_2(self, command, extra, tmp_path, capsys):
        code = cli.main([command, "--dataset", "mnist", "--boost",
                         "--data-dir", str(tmp_path)] + extra)
        assert code == 2
        assert "boost applies to cifar10 only" in capsys.readouterr().err

    def test_wrong_image_size_exit_3(self, mnist_dir, capsys):
        """40x40 digits used to reach np.pad with a negative width (exit 2)."""
        with open(mnist_dir / "train-images-idx3-ubyte", "wb") as fh:
            fh.write(struct.pack(">4i", D.IDX_IMAGES_MAGIC, 40, 40, 40))
            fh.write(bytes(40 * 40 * 40))
        code = cli.main(["train", "--dataset", "mnist", "--arch", "baseline",
                         "--epochs", "1", "--data-dir", str(mnist_dir)])
        assert code == 3
        assert "40x40, expected 28x28" in capsys.readouterr().err

    def test_no_data_dir_exit_3(self, monkeypatch):
        monkeypatch.delenv("DATA_DIR", raising=False)
        parser_default_none = cli.main(["train", "--dataset", "mnist",
                                        "--epochs", "1", "--data-dir", ""])
        assert parser_default_none == 3


class TestGradcheckCommand:
    def test_small_maxmin_net_exits_zero(self, capsys):
        code = cli.main(["gradcheck", "--dataset", "mnist", "--arch", "maxmin",
                         "--filters", "2,2,2", "--samples", "20"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out


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

    def test_compare_emits_table(self, tmp_path, capsys, monkeypatch):
        # synthetic CIFAR batches
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
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            records = rng.integers(0, 256, (8, D.CIFAR_RECORD_BYTES), dtype=np.uint8)
            records[:, 0] = rng.integers(0, 10, 8)
            (tmp_path / name).write_bytes(records.tobytes())
        args = ["compare", "--budgets", "2-2-4", "--epochs", "1", "--batch-size", "8",
                "--seed", "3", "--data-dir", str(tmp_path)]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second

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
