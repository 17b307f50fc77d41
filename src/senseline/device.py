"""Behavioral model of the dual-gate ambipolar transistor.

The bottom-gate bias selects one of three operating regions: p-type
conduction in a low window near ground, n-type in a high window near vdd,
and OFF in the dead band between them. Within a region the channel current
is a separable product

    |I| = i_on * g_tg * g_bg * min(|v_a - v_b| / v_dsat, 1)

where g_tg and g_bg are piecewise-linear gate drives in [0, 1] and the last
factor is a triode-to-saturation clamp. Conduction is bi-directional: drain
and source roles follow the terminal potentials, so swapping terminals
negates the current exactly. The channel is memoryless; all dynamics live
on the sensing line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantizer import DeviceConfig, QuantSpec, level_to_vbg, off_vtg

REGION_P = "P"
REGION_N = "N"
REGION_OFF = "OFF"


class RegionMismatchError(ValueError):
    """Bottom-gate bias sits outside the window of the requested polarity."""


@dataclass(frozen=True)
class DeviceParams:
    """Calibration of the behavioral transistor.

    Only vdd is fixed by the target system; the windows, on-current, and
    saturation knee are calibration knobs. The default bias windows each
    span exactly the 31-step quantizer window (1.24 V), anchored at the
    rails, leaving a 0.52 V off band in between.
    """

    i_on: float = 2e-6
    v_dsat: float = 0.2
    vdd: float = 3.0
    p_window: tuple[float, float] = (0.0, 1.24)
    n_window: tuple[float, float] = (1.76, 3.0)
    tg_window_span: float = 1.24

    def __post_init__(self):
        p_lo, p_hi = self.p_window
        n_lo, n_hi = self.n_window
        values = (self.i_on, self.v_dsat, self.vdd, self.tg_window_span, p_lo, p_hi, n_lo, n_hi)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("device parameters and bias window bounds must be finite")
        if self.i_on <= 0 or self.v_dsat <= 0 or self.tg_window_span <= 0:
            raise ValueError("i_on, v_dsat, and tg_window_span must be positive")
        if not (p_lo < p_hi and n_lo < n_hi):
            raise ValueError("bias windows must have low < high")
        if p_hi >= n_lo:
            raise ValueError("p and n bias windows overlap; no OFF band remains")


@dataclass(frozen=True)
class DeviceInstance:
    """A configured array device: fixed weight bias, per-digit feature bias.

    v_bg is set once from the weight level; v_tg defaults to the gating-off
    voltage and is applied per classification from the feature level.
    """

    config: DeviceConfig
    v_bg: float
    v_tg: float

    @property
    def feature_index(self) -> int:
        return self.config.feature_index

    @property
    def dtype(self) -> str:
        return self.config.dtype


def make_instance(config: DeviceConfig, q: QuantSpec, params: DeviceParams) -> DeviceInstance:
    """Build a device with its bottom-gate bias derived from the weight level."""
    v_bg = level_to_vbg(config.w_level, config.dtype, q)
    inst = DeviceInstance(config=config, v_bg=v_bg, v_tg=off_vtg(config.dtype, q))
    if region_of(v_bg, params) != config.dtype:
        raise RegionMismatchError(
            f"v_bg = {v_bg:.3f} V is outside the {config.dtype} window; "
            "quantizer step/window and device windows are inconsistent"
        )
    return inst


def region_of(v_bg: float, p: DeviceParams = DeviceParams()) -> str:
    """Operating region selected by the bottom-gate bias (windows inclusive)."""
    if p.p_window[0] <= v_bg <= p.p_window[1]:
        return REGION_P
    if p.n_window[0] <= v_bg <= p.n_window[1]:
        return REGION_N
    return REGION_OFF


def _unit_clip(x):
    if isinstance(x, float):
        return min(1.0, max(0.0, x))
    return np.clip(x, 0.0, 1.0)


def gate_drive_tg(v_tg, dtype: str, p: DeviceParams = DeviceParams()):
    """Top-gate drive factor in [0, 1]; array-capable over v_tg."""
    if dtype == REGION_P:
        return _unit_clip((p.vdd - v_tg) / p.tg_window_span)
    if dtype == REGION_N:
        return _unit_clip(v_tg / p.tg_window_span)
    raise ValueError(f"dtype must be 'P' or 'N', got {dtype!r}")


def gate_drive_bg(v_bg, dtype: str, p: DeviceParams = DeviceParams()):
    """Bottom-gate drive factor in [0, 1]; array-capable over v_bg."""
    if dtype == REGION_P:
        lo, hi = p.p_window
        return _unit_clip((hi - v_bg) / (hi - lo))
    if dtype == REGION_N:
        lo, hi = p.n_window
        return _unit_clip((v_bg - lo) / (hi - lo))
    raise ValueError(f"dtype must be 'P' or 'N', got {dtype!r}")


def channel_current(v_tg, v_bg: float, v_a, v_b, p: DeviceParams = DeviceParams()):
    """Signed current into terminal b for arbitrary gate biases.

    Physical tri-state map: an OFF-band bottom gate conducts nothing for any
    top-gate or terminal voltages. Positive current flows into b when
    v_a > v_b; swapping terminals negates the result exactly.
    """
    region = region_of(v_bg, p)
    if region == REGION_OFF:
        shape = np.broadcast(np.asarray(v_tg), np.asarray(v_a), np.asarray(v_b)).shape
        return 0.0 if shape == () else np.zeros(shape)
    g = gate_drive_tg(v_tg, region, p) * gate_drive_bg(v_bg, region, p)
    dv = (v_a - v_b) / p.v_dsat
    if isinstance(dv, float):
        return p.i_on * g * min(1.0, max(-1.0, dv))
    i = p.i_on * g * np.clip(dv, -1.0, 1.0)
    return float(i) if np.ndim(i) == 0 else i
