import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import synth
from conftest import clear_process_caches, mnist_paths, requires_mnist
from senseline import cli, dataset
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
            dataset._decode_idx(path, path.read_bytes(), *dataset._IMAGE_FORMAT)

    def test_label_magic_rejected_for_images(self, tmp_path):
        images, labels = synth.make_corpus(10, seed=0)
        img_path, lab_path = synth.write_idx_pair(tmp_path, images, labels, "x")
        with pytest.raises(IdxFormatError, match="magic"):
            dataset._decode_idx(lab_path, Path(lab_path).read_bytes(), *dataset._IMAGE_FORMAT)

    def test_truncated_payload(self, tmp_path):
        images, labels = synth.make_corpus(10, seed=0)
        path = tmp_path / "trunc-images"
        synth.write_idx_images(path, images)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(IdxFormatError, match="truncated"):
            dataset._decode_idx(path, path.read_bytes(), *dataset._IMAGE_FORMAT)

    def test_gzip_flipped_byte_fails_crc(self, tmp_path):
        images, _ = synth.make_corpus(20, seed=0)
        path = tmp_path / "flip-images.gz"
        synth.write_idx_images(path, images, compress=True)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="gzip"):
            dataset._decode_idx(path, path.read_bytes(), *dataset._IMAGE_FORMAT)

    def test_gzip_truncated_to_half(self, tmp_path):
        images, _ = synth.make_corpus(20, seed=0)
        path = tmp_path / "half-images.gz"
        synth.write_idx_images(path, images, compress=True)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(IdxFormatError, match="gzip"):
            dataset._decode_idx(path, path.read_bytes(), *dataset._IMAGE_FORMAT)

    def test_bytes_after_payload_rejected(self, tmp_path):
        _, labels = synth.make_corpus(20, seed=0)
        path = tmp_path / "long-labels"
        synth.write_idx_labels(path, labels)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(IdxFormatError, match="1 bytes after"):
            dataset._decode_idx(path, path.read_bytes(), *dataset._LABEL_FORMAT)

    def test_count_mismatch(self, tmp_path):
        images, labels = synth.make_corpus(20, seed=0)
        img_path = tmp_path / "imgs"
        lab_path = tmp_path / "labs"
        synth.write_idx_images(img_path, images)
        synth.write_idx_labels(lab_path, labels[:19])
        with pytest.raises(CountMismatchError):
            dataset.load_idx(img_path, lab_path)


class TestLoadCache:
    """load_idx reuses its last decoded pair only while both files' bytes match."""

    grid = None  # the grid every load in this class passes

    @pytest.fixture(autouse=True)
    def decodes(self, monkeypatch):
        clear_process_caches(monkeypatch)
        paths = []
        decode = dataset._decode_idx

        def counting(path, *args):
            paths.append(path)
            return decode(path, *args)

        monkeypatch.setattr(dataset, "_decode_idx", counting)
        return paths

    def load(self, images_path, labels_path):
        return dataset.load_idx(images_path, labels_path, self.grid)

    def test_unchanged_files_decode_once(self, idx_dir, tmp_path, decodes):
        first = self.load(*idx_dir["test"])
        assert self.load(*idx_dir["test"]) is first
        # Equal bytes under other paths (and mtimes) are the same pair.
        copies = [shutil.copy(p, tmp_path / f"copy-{os.path.basename(p)}")
                  for p in idx_dir["test"]]
        assert self.load(*copies) is first
        assert len(decodes) == 2

    def test_other_pair_replaces_the_entry(self, idx_dir, decodes):
        test = self.load(*idx_dir["test"])
        train = self.load(*idx_dir["train"])
        assert self.load(*idx_dir["test"]) is not test
        assert len(train) == 500 and len(decodes) == 6

    def _rewrite_keeping_stat(self, path, data: bytes):
        st = os.stat(path)
        assert len(data) == st.st_size
        Path(path).write_bytes(data)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))

    def test_same_size_same_mtime_rewrite_is_read(self, idx_dir):
        img_path, lab_path = idx_dir["train"]
        before = self.load(img_path, lab_path)
        images, labels = synth.make_corpus(500, seed=4)
        raw = bytearray(Path(img_path).read_bytes())
        raw[16:] = images.tobytes()
        self._rewrite_keeping_stat(img_path, bytes(raw))
        after = self.load(img_path, lab_path)
        want = dataset.grid_pixels(LabeledImageSet(images, labels), self.grid).images
        assert np.array_equal(after.images, want)
        assert not np.array_equal(after.images, before.images)

    def test_flipped_byte_in_cached_gz_raises(self, idx_dir):
        img_path, lab_path = idx_dir["test"]
        self.load(img_path, lab_path)
        raw = bytearray(Path(img_path).read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        self._rewrite_keeping_stat(img_path, bytes(raw))
        with pytest.raises(IdxFormatError, match="gzip"):
            self.load(img_path, lab_path)

    def test_deleted_cached_file_raises(self, idx_dir):
        img_path, lab_path = idx_dir["test"]
        self.load(img_path, lab_path)
        os.remove(lab_path)
        with pytest.raises(FileNotFoundError):
            self.load(img_path, lab_path)

    def test_count_mismatch_raises_every_call(self, tmp_path):
        images, labels = synth.make_corpus(20, seed=0)
        synth.write_idx_images(tmp_path / "imgs", images)
        synth.write_idx_labels(tmp_path / "labs", labels[:19])
        for _ in range(2):
            with pytest.raises(CountMismatchError):
                self.load(tmp_path / "imgs", tmp_path / "labs")

    @pytest.mark.parametrize("pair", ["train", "test"])  # raw and gzip
    def test_returned_arrays_read_only(self, idx_dir, pair):
        s = self.load(*idx_dir[pair])
        for arr in (s.images, s.labels):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1


OTHER_GRID = GridSpec(row_indices=(0, 3, 4, 10, 11, 20, 26, 27),
                      col_indices=(1, 2, 7, 8, 13, 14, 22, 25))


class TestGridLoadCache(TestLoadCache):
    """The same reuse rules when load_idx keeps only a grid's pixels of the pair."""

    grid = OTHER_GRID

    @pytest.mark.parametrize("pair", ["train", "test"])  # raw and gzip
    def test_keeps_only_the_grid_pixels(self, idx_dir, pair):
        s = self.load(*idx_dir[pair])
        decoded = dataset.decode_idx_pair(*idx_dir[pair],
                                          *(Path(p).read_bytes() for p in idx_dir[pair]))
        assert s.images.shape == (len(decoded), 8, 8) and s.images.nbytes == 64 * len(s)
        want = dataset.downsample(decoded.images.reshape(len(s), -1), self.grid)
        assert np.array_equal(s.images.reshape(len(s), -1), want)
        assert np.array_equal(s.labels, decoded.labels)

    @pytest.mark.parametrize("grid", [GridSpec(), None], ids=["default-grid", "no-grid"])
    def test_other_grid_decodes_again(self, idx_dir, decodes, grid):
        first = self.load(*idx_dir["train"])
        other = dataset.load_idx(*idx_dir["train"], grid)
        assert len(decodes) == 4
        assert np.array_equal(other.images, dataset.grid_pixels(
            dataset.load_idx(*idx_dir["train"]), grid).images)
        assert not np.array_equal(other.images, first.images)


class TestFeatures:
    @pytest.mark.parametrize("grid", [GridSpec(), OTHER_GRID])
    def test_64_path_is_downsampled_normalize_bit_for_bit(self, grid):
        rng = np.random.default_rng(21)
        images = rng.integers(0, 256, size=(300, 28, 28), dtype=np.uint8)
        s = LabeledImageSet(images, rng.integers(0, 10, size=300).astype(np.uint8))
        X, y = cli._features_of(dataset.grid_pixels(s, grid))
        want = dataset.downsample(dataset.normalize(s), grid)
        assert X.dtype == want.dtype == np.float64 and X.shape == (300, 64)
        assert np.array_equal(X.view(np.int64), want.view(np.int64))
        assert np.array_equal(y, s.labels.astype(int))


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
        spec = SplitSpec(150, 50, 100, shuffle_seed=1)
        train, val = dataset.split_train_val(train_pool, spec)
        test = dataset.select_test(test_pool, spec)
        assert (len(train), len(val), len(test)) == (150, 50, 100)

    def test_same_seed_identical(self):
        train_pool, _ = self._pools()
        spec = SplitSpec(120, 60, 100, shuffle_seed=9)
        a_train, a_val = dataset.split_train_val(train_pool, spec)
        b_train, b_val = dataset.split_train_val(train_pool, spec)
        assert np.array_equal(a_train.images, b_train.images)
        assert np.array_equal(a_val.labels, b_val.labels)

    def test_different_seed_changes_train_not_test(self):
        train_pool, test_pool = self._pools()
        a, b = SplitSpec(120, 60, 100, shuffle_seed=1), SplitSpec(120, 60, 100, shuffle_seed=2)
        a_train, _ = dataset.split_train_val(train_pool, a)
        b_train, _ = dataset.split_train_val(train_pool, b)
        assert not np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(dataset.select_test(test_pool, a).images,
                              dataset.select_test(test_pool, b).images)

    def test_partitions_disjoint(self):
        train_pool, _ = self._pools()
        train, val = dataset.split_train_val(train_pool, SplitSpec(120, 60, 100, shuffle_seed=3))
        # Reconstruct which pool rows went where via exact image matches.
        pool_bytes = {train_pool.images[i].tobytes(): i for i in range(len(train_pool))}
        train_rows = {pool_bytes[img.tobytes()] for img in train.images}
        val_rows = {pool_bytes[img.tobytes()] for img in val.images}
        assert not train_rows & val_rows

    def test_train_val_follows_the_seeded_permutation(self):
        train_pool, _ = self._pools()
        spec = SplitSpec(120, 60, 100, shuffle_seed=4)
        perm = np.random.default_rng(4).permutation(len(train_pool))
        train, val = dataset.split_train_val(train_pool, spec)
        for got, rows in ((train, perm[:120]), (val, perm[120:180])):
            assert np.array_equal(got.images, train_pool.images[rows])
            assert np.array_equal(got.labels, train_pool.labels[rows])

    def test_overflow_errors(self):
        train_pool, test_pool = self._pools()
        with pytest.raises(ValueError, match="exceeds"):
            dataset.split_train_val(train_pool, SplitSpec(180, 60, 100))
        with pytest.raises(ValueError, match="exceeds"):
            dataset.select_test(test_pool, SplitSpec(100, 60, 101))

    def test_test_split_is_a_read_only_view_of_the_pool(self, idx_dir):
        # A slice, not a copy of the decoded pool; also of a writable pool.
        for pool in (dataset.load_idx(*idx_dir["test"]), self._pools()[1]):
            test = dataset.select_test(pool, SplitSpec(0, 0, 60))
            for got, whole in ((test.images, pool.images), (test.labels, pool.labels)):
                assert np.shares_memory(got, whole)
                assert np.array_equal(got, whole[:60])
                with pytest.raises(ValueError, match="read-only"):
                    got[0] = 1

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
        train, val = dataset.split_train_val(train, SplitSpec())
        test = dataset.select_test(test, SplitSpec())
        assert (len(train), len(val), len(test)) == (45_000, 15_000, 10_000)
