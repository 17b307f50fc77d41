"""MNIST ingestion and preprocessing.

Reads the IDX binary container format, normalizes pixels to [0, 1],
downsamples 28x28 images to an 8x8 pixel-selection grid, and produces
deterministic train/validation/test splits. All arrays are numpy; image
sets are immutable after loading, so load_idx can hand its last pair to
every caller that reads the same bytes: with a grid, it keeps only the
grid's pixels of the pair, not the 28x28 decode.
"""

from __future__ import annotations

import functools
import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .trainer import LastParse, _check_fields

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
# (magic, n_dims, what) of each IDX kind, as _decode_idx takes them.
_IMAGE_FORMAT = (IMAGE_MAGIC, 3, "pixel payload")
_LABEL_FORMAT = (LABEL_MAGIC, 1, "label payload")

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

    def subset(self, idx: np.ndarray | slice) -> "LabeledImageSet":
        """The records at idx, read-only: a view for a slice, a copy for an index array."""
        images, labels = self.images[idx], self.labels[idx]
        images.flags.writeable = labels.flags.writeable = False
        return LabeledImageSet(images, labels)


@dataclass(frozen=True)
class GridSpec:
    """Row/column pixel indices selecting the 8x8 downsampling grid."""

    row_indices: tuple[int, ...] = DEFAULT_GRID_INDICES
    col_indices: tuple[int, ...] = DEFAULT_GRID_INDICES

    def __post_init__(self):
        _check_fields("grid", self, row_indices="indices", col_indices="indices")
        for name, idx in (("row_indices", self.row_indices), ("col_indices", self.col_indices)):
            if len(idx) != 8:
                raise ValueError(f"grid.{name} must have exactly 8 entries, got {len(idx)}")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"grid.{name} must be strictly increasing")
            if idx[-1] > 27:
                raise ValueError(f"grid.{name} entries must lie in [0, 27]")


@dataclass(frozen=True)
class SplitSpec:
    """Counts and shuffle seed for the train/validation/test partition."""

    train_count: int = 45_000
    val_count: int = 15_000
    test_count: int = 10_000
    shuffle_seed: int = 42

    def __post_init__(self):
        _check_fields("split", self, train_count="count0", val_count="count0",
                      test_count="count0", shuffle_seed="count0")


def _decode_idx(path, data: bytes, magic: int, n_dims: int, what: str) -> np.ndarray:
    """Parse an IDX file's bytes: big-endian uint32 magic and n_dims sizes, then uint8 data.

    Data that starts with the two-byte gzip magic is decompressed whole, so
    its CRC and length are checked; a corrupt or cut-off gzip stream is an
    IdxFormatError. `path` only names the file in error messages. The
    returned array is a read-only view of the (decompressed) bytes.
    """
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
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


# The last pair load_idx decoded, as its grid pixels when given a grid: the
# training pool that prepare, train and select read in turn.
_last_pair = LastParse()


def decode_idx_pair(images_path, labels_path, image_bytes: bytes, label_bytes: bytes,
                    grid: GridSpec | None = None) -> LabeledImageSet:
    """The read-only set of an image/label IDX pair's bytes, cross-checking counts.

    With a grid, the set holds only the grid's (n, 8, 8) pixels of each
    image (see grid_pixels). The paths only name the files in error messages.
    """
    images = _decode_idx(images_path, image_bytes, *_IMAGE_FORMAT)
    labels = _decode_idx(labels_path, label_bytes, *_LABEL_FORMAT)
    if len(images) != len(labels):
        raise CountMismatchError(
            f"{images_path} has {len(images)} images but {labels_path} has {len(labels)} labels"
        )
    return grid_pixels(LabeledImageSet(images, labels), grid)


def grid_pixels(s: LabeledImageSet, grid: GridSpec | None) -> LabeledImageSet:
    """The read-only set of s's grid pixels, (n, 8, 8) images; s itself for no grid.

    images[k, i, j] is pixel (row_indices[i], col_indices[j]) of image k, so
    a flattened image is downsample() of the flattened 28x28 one.
    """
    if grid is None:
        return s
    images = s.images[:, np.asarray(grid.row_indices)[:, None], np.asarray(grid.col_indices)]
    images.flags.writeable = False
    return LabeledImageSet(images, s.labels)


def load_idx(images_path, labels_path, grid: GridSpec | None = None) -> LabeledImageSet:
    """decode_idx_pair of a matched image/label IDX file pair at grid.

    The files are checked on every call: while their bytes and the grid
    equal those of the last pair loaded, that pair's (read-only) set is
    returned again.
    """
    parse = functools.partial(decode_idx_pair, images_path, labels_path, grid=grid)
    return _last_pair.load((images_path, labels_path), parse, grid)


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
    return test_pool.subset(slice(spec.test_count))
