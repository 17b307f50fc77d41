import numpy as np
import pytest

import synth
from conftest import mnist_paths, requires_mnist
from senseline import dataset
from senseline.dataset import (
    CountMismatchError,
    GridSpec,
    IdxFormatError,
    LabeledImageSet,
    SplitSpec,
)


class TestLoadIdx:
    def test_load_pair(self, idx_dir):
        s = dataset.load_idx(*idx_dir["train"])
        assert len(s) == 500
        assert s.images.shape == (500, 28, 28)
        assert s.labels.shape == (500,)

    def test_load_gzipped_pair(self, idx_dir):
        s = dataset.load_idx(*idx_dir["test"])
        assert len(s) == 100

    def test_bad_magic(self, tmp_path):
        images, labels = synth.make_corpus(10, seed=0)
        path = tmp_path / "bad-images"
        synth.write_idx_images(path, images, magic=0x1234)
        with pytest.raises(IdxFormatError, match="magic"):
            dataset.read_idx_images(path)

    def test_label_magic_rejected_for_images(self, tmp_path):
        images, labels = synth.make_corpus(10, seed=0)
        img_path, lab_path = synth.write_idx_pair(tmp_path, images, labels, "x")
        with pytest.raises(IdxFormatError, match="magic"):
            dataset.read_idx_images(lab_path)

    def test_truncated_payload(self, tmp_path):
        images, labels = synth.make_corpus(10, seed=0)
        path = tmp_path / "trunc-images"
        synth.write_idx_images(path, images)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(IdxFormatError, match="truncated"):
            dataset.read_idx_images(path)

    def test_gzip_flipped_byte_fails_crc(self, tmp_path):
        images, _ = synth.make_corpus(20, seed=0)
        path = tmp_path / "flip-images.gz"
        synth.write_idx_images(path, images, compress=True)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="gzip"):
            dataset.read_idx_images(path)

    def test_gzip_truncated_to_half(self, tmp_path):
        images, _ = synth.make_corpus(20, seed=0)
        path = tmp_path / "half-images.gz"
        synth.write_idx_images(path, images, compress=True)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(IdxFormatError, match="gzip"):
            dataset.read_idx_images(path)

    def test_bytes_after_payload_rejected(self, tmp_path):
        _, labels = synth.make_corpus(20, seed=0)
        path = tmp_path / "long-labels"
        synth.write_idx_labels(path, labels)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(IdxFormatError, match="1 bytes after"):
            dataset.read_idx_labels(path)

    def test_count_mismatch(self, tmp_path):
        images, labels = synth.make_corpus(20, seed=0)
        img_path = tmp_path / "imgs"
        lab_path = tmp_path / "labs"
        synth.write_idx_images(img_path, images)
        synth.write_idx_labels(lab_path, labels[:19])
        with pytest.raises(CountMismatchError):
            dataset.load_idx(img_path, lab_path)


class TestNormalize:
    def test_pixel_extremes_and_midpoint(self):
        img = np.zeros((1, 28, 28), dtype=np.uint8)
        img[0, 0, 0] = 255
        img[0, 0, 1] = 128
        s = LabeledImageSet(img, np.array([3], dtype=np.uint8))
        x = dataset.normalize(s)
        assert x[0, 0] == 1.0
        assert x[0, 1] == pytest.approx(128 / 255)
        assert x[0, 2] == 0.0
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_labels_untouched(self, idx_dir):
        s = dataset.load_idx(*idx_dir["train"])
        before = np.bincount(s.labels, minlength=10)
        dataset.normalize(s)
        assert np.array_equal(np.bincount(s.labels, minlength=10), before)


class TestDownsample:
    def test_constant_image(self):
        out = dataset.downsample(np.full(784, 0.3))
        assert out.shape == (64,)
        assert np.allclose(out, 0.3)

    def test_selection_map(self):
        # Identity ramp exposes exactly which input pixel each output takes.
        v = np.arange(784, dtype=float)
        out = dataset.downsample(v)
        g = GridSpec()
        for i in range(8):
            for j in range(8):
                assert out[i * 8 + j] == g.row_indices[i] * 28 + g.col_indices[j]

    def test_single_hot_pixel(self):
        # 1.0 at image (row 2, col 5) lands at output (0, 1) under the default grid.
        v = np.zeros(784)
        v[2 * 28 + 5] = 1.0
        out = dataset.downsample(v)
        expected = np.zeros(64)
        expected[0 * 8 + 1] = 1.0
        assert np.array_equal(out, expected)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="784"):
            dataset.downsample(np.zeros(785))

    def test_commutes_with_scaling(self):
        rng = np.random.default_rng(11)
        v = rng.random((5, 784))
        for alpha in (0.0, 0.5, 2.0):
            assert np.allclose(dataset.downsample(alpha * v), alpha * dataset.downsample(v))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(12)
        V = rng.random((4, 784))
        batch = dataset.downsample(V)
        for i in range(4):
            assert np.array_equal(batch[i], dataset.downsample(V[i]))


class TestGridSpec:
    def test_default_is_valid(self):
        g = GridSpec()
        assert len(g.row_indices) == 8

    @pytest.mark.parametrize("bad", [
        {"row_indices": (1, 2, 3)},
        {"row_indices": (0, 1, 2, 3, 4, 5, 6, 30)},
        {"col_indices": (5, 2, 9, 12, 16, 19, 23, 26)},
        {"col_indices": (2, 2, 9, 12, 16, 19, 23, 26)},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            GridSpec(**bad)


class TestSplit:
    def _pools(self):
        images, labels = synth.make_corpus(300, seed=5)
        return (LabeledImageSet(images[:200], labels[:200]),
                LabeledImageSet(images[200:], labels[200:]))

    def test_counts(self):
        train_pool, test_pool = self._pools()
        spl = dataset.split(train_pool, test_pool, SplitSpec(150, 50, 100, shuffle_seed=1))
        assert (len(spl.train), len(spl.val), len(spl.test)) == (150, 50, 100)

    def test_same_seed_identical(self):
        train_pool, test_pool = self._pools()
        spec = SplitSpec(120, 60, 100, shuffle_seed=9)
        a = dataset.split(train_pool, test_pool, spec)
        b = dataset.split(train_pool, test_pool, spec)
        assert np.array_equal(a.train.images, b.train.images)
        assert np.array_equal(a.val.labels, b.val.labels)

    def test_different_seed_changes_train_not_test(self):
        train_pool, test_pool = self._pools()
        a = dataset.split(train_pool, test_pool, SplitSpec(120, 60, 100, shuffle_seed=1))
        b = dataset.split(train_pool, test_pool, SplitSpec(120, 60, 100, shuffle_seed=2))
        assert not np.array_equal(a.train.labels, b.train.labels)
        assert np.array_equal(a.test.images, b.test.images)

    def test_partitions_disjoint(self):
        train_pool, test_pool = self._pools()
        spl = dataset.split(train_pool, test_pool, SplitSpec(120, 60, 100, shuffle_seed=3))
        # Reconstruct which pool rows went where via exact image matches.
        pool_bytes = {train_pool.images[i].tobytes(): i for i in range(len(train_pool))}
        train_rows = {pool_bytes[img.tobytes()] for img in spl.train.images}
        val_rows = {pool_bytes[img.tobytes()] for img in spl.val.images}
        assert not train_rows & val_rows

    def test_train_val_alone_equals_split(self):
        train_pool, test_pool = self._pools()
        spec = SplitSpec(120, 60, 100, shuffle_seed=4)
        full = dataset.split(train_pool, test_pool, spec)
        train, val = dataset.split_train_val(train_pool, spec)
        for got, want in ((train, full.train), (val, full.val)):
            assert np.array_equal(got.images, want.images)
            assert np.array_equal(got.labels, want.labels)
        with pytest.raises(ValueError, match="exceeds"):
            dataset.split_train_val(train_pool, SplitSpec(180, 60, 0))

    def test_overflow_errors(self):
        train_pool, test_pool = self._pools()
        with pytest.raises(ValueError, match="exceeds"):
            dataset.split(train_pool, test_pool, SplitSpec(180, 60, 100))
        with pytest.raises(ValueError, match="exceeds"):
            dataset.split(train_pool, test_pool, SplitSpec(100, 60, 101))

    def test_default_spec_counts_are_mnist(self):
        spec = SplitSpec()
        assert (spec.train_count, spec.val_count, spec.test_count) == (45_000, 15_000, 10_000)


@requires_mnist
class TestRealMnist:
    def test_standard_pair_counts(self):
        paths = mnist_paths()
        train = dataset.load_idx(paths["train_images"], paths["train_labels"])
        test = dataset.load_idx(paths["test_images"], paths["test_labels"])
        assert len(train) == 60_000
        assert train.images.shape[1:] == (28, 28)
        assert len(test) == 10_000

    def test_default_split(self):
        paths = mnist_paths()
        train = dataset.load_idx(paths["train_images"], paths["train_labels"])
        test = dataset.load_idx(paths["test_images"], paths["test_labels"])
        spl = dataset.split(train, test, SplitSpec())
        assert (len(spl.train), len(spl.val), len(spl.test)) == (45_000, 15_000, 10_000)
