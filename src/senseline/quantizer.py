"""Five-bit quantization of features and weights onto gate-bias levels.

Features and weight magnitudes map to integer levels 0..2^bits-1 spaced
step_volts apart. A weight's sign picks the device polarity: positive
weights become p-type devices tied to the VDD rail, negative weights n-type
devices tied to ground. Level 0 coincides with the gating-off voltage, so
weights that quantize to level 0 produce no device at all.

Gate-window placement (matching the device model's bias windows):

    bottom gate  P: (max_level - level) * step        full drive at 0 V
                 N: vdd - (max_level - level) * step  full drive at vdd
    top gate     P: vdd - level * step                off at vdd
                 N: level * step                      off at 0 V
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trainer import BinaryClassifier


@dataclass(frozen=True)
class QuantSpec:
    bits: int = 5
    step_volts: float = 0.040
    vdd: float = 3.0

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if self.step_volts <= 0 or self.vdd <= 0:
            raise ValueError("step_volts and vdd must be positive")
        if self.window_span > self.vdd / 2:
            raise ValueError(
                f"gate window {self.window_span:.3f} V exceeds vdd/2 = {self.vdd / 2:.3f} V; "
                "no off band would remain between the p and n bias windows"
            )

    @property
    def levels(self) -> int:
        return 2 ** self.bits

    @property
    def max_level(self) -> int:
        return 2 ** self.bits - 1

    @property
    def window_span(self) -> float:
        return self.max_level * self.step_volts


# P devices source charge from VDD; N devices sink it to ground.
RAILS = {"P": "VDD", "N": "GND"}


@dataclass(frozen=True)
class DeviceConfig:
    """One array device: polarity, weight level, and the feature it serves."""

    feature_index: int
    dtype: str  # "P" or "N"
    w_level: int

    def __post_init__(self):
        if self.dtype not in ("P", "N"):
            raise ValueError(f"dtype must be 'P' or 'N', got {self.dtype!r}")
        if self.w_level < 0:
            raise ValueError("w_level must be non-negative")

    @property
    def rail(self) -> str:
        return RAILS[self.dtype]


def quantize_unit(v, q: QuantSpec = QuantSpec()):
    """Quantize values in [0, 1] to integer levels, ties to even.

    Accepts scalars or arrays.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all((v >= 0) & (v <= 1)):  # written so that NaN fails too
        raise ValueError("values must lie in [0, 1]")
    level = np.rint(v * q.max_level).astype(int)
    return int(level) if level.ndim == 0 else level


def weight_levels(c: BinaryClassifier, q: QuantSpec = QuantSpec()) -> np.ndarray:
    """Signed weight level of each of a classifier's weights, in one call.

    Weights are scaled by 1/max|w| over the classifier so the largest
    magnitude uses the full dynamic range, then quantized. +level is a
    p-type device, -level an n-type one, and 0 (a zero weight or one that
    quantizes to level 0) is no device.
    """
    if c.intercept != 0.0:
        raise ValueError(
            f"classifier {c.class_pair} has a nonzero intercept; "
            "the array has no device to realize it"
        )
    w = np.asarray(c.weights, dtype=np.float64)
    scale = np.max(np.abs(w))
    if scale == 0.0:
        raise ValueError(f"classifier {c.class_pair} has an all-zero weight vector")
    return np.sign(w).astype(np.int64) * quantize_unit(np.abs(w) / scale, q)


def map_weights(c: BinaryClassifier, q: QuantSpec = QuantSpec()) -> list[DeviceConfig]:
    """Device configurations of a classifier's nonzero weight levels."""
    return [DeviceConfig(int(fi), "P" if level > 0 else "N", abs(int(level)))
            for fi, level in zip(c.feature_indices, weight_levels(c, q)) if level]


def _check_level(level, q: QuantSpec):
    if isinstance(level, (int, np.integer)):
        if not 0 <= level <= q.max_level:
            raise ValueError(f"level {level} outside [0, {q.max_level}]")
        return int(level)
    level = np.asarray(level)
    if np.any(level < 0) or np.any(level > q.max_level):
        raise ValueError(f"level outside [0, {q.max_level}]")
    return level


def level_to_vbg(level, dtype: str, q: QuantSpec = QuantSpec()):
    """Bottom-gate bias for a weight level; stronger drive toward the rail.

    Scalar or array levels.
    """
    level = _check_level(level, q)
    if dtype == "P":
        v = (q.max_level - level) * q.step_volts
    elif dtype == "N":
        v = q.vdd - (q.max_level - level) * q.step_volts
    else:
        raise ValueError(f"dtype must be 'P' or 'N', got {dtype!r}")
    return v


def level_to_vtg(level, dtype: str, q: QuantSpec = QuantSpec()):
    """Top-gate bias for a feature level; level 0 is the gating-off voltage.

    Scalar or array levels.
    """
    level = _check_level(level, q)
    if dtype == "P":
        v = q.vdd - level * q.step_volts
    elif dtype == "N":
        v = level * q.step_volts
    else:
        raise ValueError(f"dtype must be 'P' or 'N', got {dtype!r}")
    return v


def off_vtg(dtype: str, q: QuantSpec = QuantSpec()) -> float:
    """Top-gate voltage that gates the device off (precharge value)."""
    return level_to_vtg(0, dtype, q)
