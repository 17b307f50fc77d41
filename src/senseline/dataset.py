"""MNIST ingestion and preprocessing.

Reads the IDX binary container format, normalizes pixels to [0, 1],
downsamples 28x28 images to an 8x8 pixel-selection grid, and produces
deterministic train/validation/test splits. All arrays are numpy; image
sets are immutable after loading.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# Centered uniform sampling of 28 pixels into 8: each selected pixel sits in
# the middle of its 3.5-pixel cell.
DEFAULT_GRID_INDICES = (2, 5, 9, 12, 16, 19, 23, 26)


class IdxFormatError(ValueError):
    """Malformed IDX file: wrong magic number or truncated payload."""


class CountMismatchError(ValueError):
    """Image and label files disagree on record count."""


@dataclass(frozen=True)
class LabeledImageSet:
    """Raw digit images with labels.

    images: (n, rows, cols) uint8 pixel grids, values 0..255.
    labels: (n,) uint8 digits 0..9.
    """

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 3:
            raise ValueError(f"images must be (n, rows, cols), got shape {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise CountMismatchError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise ValueError("labels must be digits 0..9")

    def __len__(self) -> int:
        return len(self.images)

    def subset(self, idx: np.ndarray) -> "LabeledImageSet":
        return LabeledImageSet(self.images[idx], self.labels[idx])


@dataclass(frozen=True)
class GridSpec:
    """Row/column pixel indices selecting the 8x8 downsampling grid."""

    row_indices: tuple[int, ...] = DEFAULT_GRID_INDICES
    col_indices: tuple[int, ...] = DEFAULT_GRID_INDICES

    def __post_init__(self):
        for name, idx in (("row_indices", self.row_indices), ("col_indices", self.col_indices)):
            if len(idx) != 8:
                raise ValueError(f"{name} must have exactly 8 entries, got {len(idx)}")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"{name} must be strictly increasing")
            if idx[0] < 0 or idx[-1] > 27:
                raise ValueError(f"{name} entries must lie in [0, 27]")


@dataclass(frozen=True)
class SplitSpec:
    """Counts and shuffle seed for the train/validation/test partition."""

    train_count: int = 45_000
    val_count: int = 15_000
    test_count: int = 10_000
    shuffle_seed: int = 42

    def __post_init__(self):
        if min(self.train_count, self.val_count, self.test_count) < 0:
            raise ValueError("split counts must be non-negative")


@dataclass(frozen=True)
class DataSplits:
    train: LabeledImageSet
    val: LabeledImageSet
    test: LabeledImageSet


def _open_maybe_gzip(path):
    # Sniff the two-byte gzip magic so both raw and .gz IDX files load.
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path, magic: int, n_dims: int, what: str) -> np.ndarray:
    """Parse an IDX file: big-endian uint32 magic and n_dims sizes, then uint8 data.

    The whole stream is read, so a gzip file's CRC and length are checked;
    a corrupt or cut-off gzip stream is an IdxFormatError.
    """
    try:
        with _open_maybe_gzip(path) as f:
            data = f.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:
        raise IdxFormatError(f"{path}: corrupt gzip stream ({e})") from None
    header = 4 * (1 + n_dims)
    if len(data) < header:
        raise IdxFormatError(f"{path}: truncated header (wanted {header} bytes, got {len(data)})")
    found, *shape = struct.unpack_from(f">{1 + n_dims}I", data)
    if found != magic:
        raise IdxFormatError(f"{path}: bad magic number 0x{found:08x}, expected 0x{magic:08x}")
    size, got = math.prod(shape), len(data) - header
    if got < size:
        raise IdxFormatError(f"{path}: truncated {what} (wanted {size} bytes, got {got})")
    if got > size:
        raise IdxFormatError(f"{path}: {got - size} bytes after the {what}")
    return np.frombuffer(data, dtype=np.uint8, count=size, offset=header).reshape(shape)


def read_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into a (n, rows, cols) uint8 array."""
    return _read_idx(path, IMAGE_MAGIC, 3, "pixel payload")


def read_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into a (n,) uint8 array."""
    return _read_idx(path, LABEL_MAGIC, 1, "label payload")


def load_idx(images_path, labels_path) -> LabeledImageSet:
    """Load a matched image/label IDX file pair, cross-checking counts."""
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if len(images) != len(labels):
        raise CountMismatchError(
            f"{images_path} has {len(images)} images but {labels_path} has {len(labels)} labels"
        )
    return LabeledImageSet(images, labels)


def normalize(s: LabeledImageSet) -> np.ndarray:
    """Map each image to a flat feature vector with pixels scaled to [0, 1].

    Returns a (n, rows*cols) float64 matrix; each pixel p becomes p/255.
    """
    n = len(s)
    return s.images.reshape(n, -1).astype(np.float64) / 255.0


def downsample(features: np.ndarray, grid: GridSpec = GridSpec()) -> np.ndarray:
    """Select the 8x8 grid pixels out of 784-dimensional feature vectors.

    Pure pixel selection, no averaging: output[i*8+j] picks the input pixel
    at (row_indices[i], col_indices[j]). Accepts a single vector (784,) or a
    matrix (n, 784) and returns 64-dimensional output(s).
    """
    features = np.asarray(features)
    if features.shape[-1] != 784:
        raise ValueError(f"expected 784 features, got {features.shape[-1]}")
    rows = np.asarray(grid.row_indices)
    cols = np.asarray(grid.col_indices)
    flat = (rows[:, None] * 28 + cols[None, :]).ravel()
    return features[..., flat]


def split(train_pool: LabeledImageSet, test_pool: LabeledImageSet,
          spec: SplitSpec = SplitSpec()) -> DataSplits:
    """Partition the training pool into train/val; pass the test pool through.

    The test pool is never shuffled into training.
    """
    train, val = split_train_val(train_pool, spec)
    return DataSplits(train=train, val=val, test=select_test(test_pool, spec))


def split_train_val(train_pool: LabeledImageSet, spec: SplitSpec = SplitSpec()):
    """The (train, val) partition of the training pool alone.

    The shuffle over the training pool is a seeded permutation, so equal
    seeds give identical partitions.
    """
    if spec.train_count + spec.val_count > len(train_pool):
        raise ValueError(
            f"train_count + val_count = {spec.train_count + spec.val_count} "
            f"exceeds the {len(train_pool)} available training records"
        )
    rng = np.random.default_rng(spec.shuffle_seed)
    perm = rng.permutation(len(train_pool))
    train_idx = perm[: spec.train_count]
    val_idx = perm[spec.train_count: spec.train_count + spec.val_count]
    return train_pool.subset(train_idx), train_pool.subset(val_idx)


def select_test(test_pool: LabeledImageSet, spec: SplitSpec = SplitSpec()) -> LabeledImageSet:
    """The first spec.test_count records of the test pool, unshuffled."""
    if spec.test_count > len(test_pool):
        raise ValueError(
            f"test_count = {spec.test_count} exceeds the {len(test_pool)} available test records"
        )
    return test_pool.subset(np.arange(spec.test_count))
