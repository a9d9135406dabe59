import struct

import numpy as np
import pytest

from maxmin_cnn import data as D
from maxmin_cnn.errors import DataError

rng = None  # each test gets its own generator, seeded in conftest.py


def write_idx_images(path, images):
    """images: uint8 array (N, rows, cols)."""
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4i", D.IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(images.tobytes())


def serialize_cifar10(data):
    """Inverse of load_cifar10 for one batch."""
    pixels = np.round(data.images * 255.0).astype(np.uint8).reshape(len(data), 3072)
    records = np.concatenate([data.labels.astype(np.uint8)[:, None], pixels], axis=1)
    return records.tobytes()


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">2i", D.IDX_LABELS_MAGIC, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


@pytest.fixture
def mnist_files(tmp_path):
    images = rng.integers(0, 256, (20, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, 20, dtype=np.uint8)
    labels[0] = 5
    ip, lp = tmp_path / "imgs", tmp_path / "lbls"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return ip, lp, images, labels


class TestLoadMnist:
    def test_parses_and_pads(self, mnist_files):
        ip, lp, images, labels = mnist_files
        data = D.load_mnist(ip, lp)
        assert data.images.shape == (20, 1, 32, 32)
        assert data.labels[0] == 5
        np.testing.assert_array_equal(data.labels, labels)
        np.testing.assert_allclose(data.images[:, 0, 2:30, 2:30], images / 255.0)
        assert not data.images[:, :, :2, :].any()
        assert float(data.images.min()) >= 0.0 and float(data.images.max()) <= 1.0

    def test_bit_exact_reload(self, mnist_files):
        ip, lp, _, _ = mnist_files
        a = D.load_mnist(ip, lp)
        b = D.load_mnist(ip, lp)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_bad_magic(self, mnist_files, tmp_path):
        ip, lp, _, _ = mnist_files
        bad = tmp_path / "bad"
        bad.write_bytes(struct.pack(">4i", 0x12345678, 1, 28, 28) + b"\x00" * 784)
        with pytest.raises(DataError, match="magic"):
            D.load_mnist(bad, lp)

    def test_truncated_payload_reports_offset(self, mnist_files, tmp_path):
        ip, lp, _, _ = mnist_files
        cut = tmp_path / "cut"
        for path, keep, part in [(ip, -100, "image payload"), (ip, 10, "IDX header"),
                                 (lp, -3, "label payload"), (lp, 6, "IDX header")]:
            blob = path.read_bytes()[:keep]
            cut.write_bytes(blob)
            with pytest.raises(DataError, match=f"{cut}: truncated {part} at byte {len(blob)}"):
                D.load_mnist(*((cut, lp) if path == ip else (ip, cut)))

    def test_label_out_of_range(self, mnist_files, tmp_path):
        ip, _, _, labels = mnist_files
        labels = labels.copy()
        labels[3] = 12
        lp = tmp_path / "bad_labels"
        write_idx_labels(lp, labels)
        with pytest.raises(DataError, match=f"{lp}: label 12 at byte 11 is out of range"):
            D.load_mnist(ip, lp)

    def test_label_count_mismatch(self, mnist_files, tmp_path):
        ip, _, _, _ = mnist_files
        lp = tmp_path / "short_labels"
        write_idx_labels(lp, np.zeros(7, dtype=np.uint8))
        with pytest.raises(DataError, match="labels"):
            D.load_mnist(ip, lp)

    @pytest.mark.parametrize("count", [0x80000000, 0xFFFFFFFF])
    def test_count_past_2_31_fails_truncation_check(self, mnist_files, tmp_path, count):
        """IDX header fields are unsigned: such a count once read as negative."""
        _, lp, _, _ = mnist_files
        ip = tmp_path / "huge"
        ip.write_bytes(struct.pack(">4I", D.IDX_IMAGES_MAGIC, count, 28, 28) + bytes(784))
        with pytest.raises(DataError, match=f"{ip}: truncated image payload"):
            D.load_mnist(ip, lp)

    @pytest.mark.parametrize("rows,cols", [(29, 29), (30, 28)])
    def test_non_28x28_images_rejected(self, mnist_files, tmp_path, rows, cols):
        _, lp, _, _ = mnist_files
        ip = tmp_path / f"imgs_{rows}x{cols}"
        write_idx_images(ip, rng.integers(0, 256, (20, rows, cols), dtype=np.uint8))
        with pytest.raises(DataError, match=f"{rows}x{cols}, expected 28x28"):
            D.load_mnist(ip, lp)


class TestLoadCifar10:
    def make_batch(self, path, n=4):
        records = rng.integers(0, 256, (n, D.CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, n)
        path.write_bytes(records.tobytes())
        return records

    def test_layout_and_scaling(self, tmp_path):
        path = tmp_path / "batch.bin"
        records = self.make_batch(path)
        data = D.load_cifar10([path])
        assert data.images.shape == (4, 3, 32, 32)
        np.testing.assert_array_equal(data.labels, records[:, 0])
        # channel-planar R,G,B order
        np.testing.assert_allclose(
            data.images[1, 2].reshape(-1), records[1, 1 + 2048:] / 255.0)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "batch.bin"
        self.make_batch(path)
        data = D.load_cifar10([path])
        assert serialize_cifar10(data) == path.read_bytes()

    def test_bad_record_size(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 5000)
        with pytest.raises(DataError, match="3073"):
            D.load_cifar10([path])

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.bin"
        record = np.zeros(D.CIFAR_RECORD_BYTES, dtype=np.uint8)
        record[0] = 11
        path.write_bytes(record.tobytes())
        with pytest.raises(DataError, match="out of range"):
            D.load_cifar10([path])


class TestSplit:
    def make_data(self, n=50):
        return D.LabeledImages(rng.random((n, 1, 4, 4)), rng.integers(0, 10, n))

    def test_sizes(self):
        train, val = D.split_train_val(self.make_data(50), 0.1, seed=0)
        assert len(train) == 45 and len(val) == 5

    def test_same_seed_identical(self):
        data = self.make_data()
        t1, v1 = D.split_train_val(data, 0.2, seed=4)
        t2, v2 = D.split_train_val(data, 0.2, seed=4)
        np.testing.assert_array_equal(t1.images, t2.images)
        np.testing.assert_array_equal(v1.labels, v2.labels)

    def test_different_seeds_differ(self):
        data = self.make_data(100)
        t1, _ = D.split_train_val(data, 0.2, seed=1)
        t2, _ = D.split_train_val(data, 0.2, seed=2)
        assert not np.array_equal(t1.images, t2.images)

    def test_disjoint_exhaustive(self):
        data = self.make_data(30)
        train, val = D.split_train_val(data, 0.3, seed=3)
        merged = np.concatenate([train.images, val.images])
        assert merged.shape[0] == 30
        key = np.sort(merged.reshape(30, -1)[:, 0])
        np.testing.assert_array_equal(key, np.sort(data.images.reshape(30, -1)[:, 0]))


class TestAugment:
    def test_double_flip_identity(self):
        x = rng.random((3, 1, 6, 6))
        np.testing.assert_array_equal(x[:, :, :, ::-1][:, :, :, ::-1], x)

    def test_shift_compose_identity_on_interior(self):
        x = rng.random((1, 1, 8, 8))

        def shift(img, dy, dx):
            padded = np.pad(img, ((0, 0), (0, 0), (2, 2), (2, 2)))
            return padded[:, :, 2 - dy:10 - dy, 2 - dx:10 - dx]

        out = shift(shift(x, 2, 0), -2, 0)
        np.testing.assert_array_equal(out[:, :, :-2, :], x[:, :, :-2, :])
        assert not out[:, :, -2:, :].any()  # zero fill swept through this margin

    @staticmethod
    def per_image_augment(images, rng, max_translate, hflip):
        """Reference: one slice of the zero-padded batch per image."""
        n, c, h, w = images.shape
        m = max_translate
        padded = np.pad(images, ((0, 0), (0, 0), (m, m), (m, m)))
        shifts = rng.integers(-m, m + 1, size=(n, 2))
        out = np.empty_like(images)
        for i, (dy, dx) in enumerate(shifts):
            out[i] = padded[i, :, m - dy:m - dy + h, m - dx:m - dx + w]
        if hflip:
            flip = rng.random(n) < 0.5
            out[flip] = out[flip][:, :, :, ::-1]
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hflip", [False, True])
    @pytest.mark.parametrize("max_translate", [4])  # the shift bound augment draws from
    def test_matches_per_image_reference(self, max_translate, hflip, dtype):
        x = rng.random((17, 3, 9, 7)).astype(dtype)
        before = x.tobytes()
        ref_rng, rng_ = np.random.default_rng(8), np.random.default_rng(8)
        ref = self.per_image_augment(x, ref_rng, max_translate, hflip)
        out = D.augment(x, rng_, hflip=hflip)
        assert out.dtype == dtype and out.shape == x.shape and out.flags.c_contiguous
        assert out.tobytes() == ref.tobytes()
        assert rng_.random() == ref_rng.random()  # same draws, in the same order
        assert x.tobytes() == before

    def test_preserves_shape_and_range(self):
        x = rng.random((10, 3, 8, 8))
        out = D.augment(x, np.random.default_rng(1), hflip=True)
        assert out.shape == x.shape
        assert float(out.min()) >= 0.0 and float(out.max()) <= 1.0


class TestZca:
    def test_white_data_gives_near_identity(self):
        x = rng.standard_normal((5000, 1, 4, 4)) * 1.0
        t = D.zca_fit(x, epsilon=1e-6)
        scaled = t.matrix / t.matrix[0, 0]
        np.testing.assert_allclose(scaled, np.eye(16), atol=0.05)

    def test_large_epsilon_is_pure_rescale(self):
        x = rng.random((200, 1, 3, 3))
        eps = 1e6
        t = D.zca_fit(x, epsilon=eps)
        np.testing.assert_allclose(t.matrix * np.sqrt(eps), np.eye(9), atol=1e-3)

    def test_whitened_covariance_near_identity(self):
        # correlated synthetic images
        base = rng.standard_normal((3000, 8))
        mix = rng.standard_normal((8, 8)) + np.eye(8)
        x = (base @ mix).reshape(3000, 1, 2, 4)
        t = D.zca_fit(x, epsilon=1e-8)
        white = D.zca_apply(t, x).reshape(3000, -1)
        assert np.abs(white.mean(axis=0)).max() <= 1e-8
        cov = white.T @ white / 3000
        rel = np.linalg.norm(cov - np.eye(8)) / np.linalg.norm(np.eye(8))
        assert rel <= 1e-3

    def test_matrix_symmetric(self):
        x = rng.random((500, 1, 3, 3))
        t = D.zca_fit(x, epsilon=0.1)
        assert np.abs(t.matrix - t.matrix.T).max() <= 1e-8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matrix_matches_eigh_of_the_covariance(self, dtype):
        """Byte for byte the matrix of an eigh called on the covariance in the input dtype."""
        x = rng.random((40, 3, 4, 4)).astype(dtype)
        flat = x.reshape(40, -1)
        centered = flat - flat.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / 40)
        ref = (eigvecs * (1.0 / np.sqrt(np.maximum(eigvals, 0.0) + 0.1))) @ eigvecs.T
        matrix = D.zca_fit(x, epsilon=0.1).matrix
        assert matrix.dtype == dtype
        assert matrix.tobytes() == ref.tobytes()

    def test_degenerate_covariance(self):
        x = np.ones((10, 1, 3, 3))
        with pytest.raises(DataError, match="degenerate"):
            D.zca_fit(x)
