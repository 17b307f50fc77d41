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

The supply and both bias windows come from the quantizer (QuantSpec), which
also places every weight level inside its window; DeviceParams holds only
i_on and v_dsat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantizer import DeviceConfig, QuantSpec, level_to_vbg, off_vtg
from .trainer import _check_fields

REGION_P = "P"
REGION_N = "N"
REGION_OFF = "OFF"


@dataclass(frozen=True)
class DeviceParams:
    """Calibration of the behavioral transistor: on-current and saturation knee.

    The supply and the bias windows are the quantizer's (QuantSpec); at the
    default quantizer they leave a 0.52 V off band at vdd 3 V.
    """

    i_on: float = 2e-6
    v_dsat: float = 0.2

    def __post_init__(self):
        _check_fields("device", self, i_on="positive", v_dsat="positive")


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


def make_instance(config: DeviceConfig, q: QuantSpec) -> DeviceInstance:
    """Build a device with its bottom-gate bias derived from the weight level.

    The bias lies in the window of config.dtype for every level (QuantSpec
    places both).
    """
    return DeviceInstance(config=config, v_bg=level_to_vbg(config.w_level, config.dtype, q),
                          v_tg=off_vtg(config.dtype, q))


def region_of(v_bg: float, q: QuantSpec = QuantSpec()) -> str:
    """Operating region selected by the bottom-gate bias (windows inclusive)."""
    if q.p_window[0] <= v_bg <= q.p_window[1]:
        return REGION_P
    if q.n_window[0] <= v_bg <= q.n_window[1]:
        return REGION_N
    return REGION_OFF


def _unit_clip(x):
    if isinstance(x, float):
        return min(1.0, max(0.0, x))
    return np.clip(x, 0.0, 1.0)


def gate_drive_tg(v_tg, dtype: str, q: QuantSpec = QuantSpec()):
    """Top-gate drive factor in [0, 1]; array-capable over v_tg."""
    if dtype == REGION_P:
        return _unit_clip((q.vdd - v_tg) / q.window_span)
    if dtype == REGION_N:
        return _unit_clip(v_tg / q.window_span)
    raise ValueError(f"dtype must be 'P' or 'N', got {dtype!r}")


def gate_drive_bg(v_bg, dtype: str, q: QuantSpec = QuantSpec()):
    """Bottom-gate drive factor in [0, 1]; array-capable over v_bg."""
    if dtype == REGION_P:
        lo, hi = q.p_window
        return _unit_clip((hi - v_bg) / (hi - lo))
    if dtype == REGION_N:
        lo, hi = q.n_window
        return _unit_clip((v_bg - lo) / (hi - lo))
    raise ValueError(f"dtype must be 'P' or 'N', got {dtype!r}")


def channel_current(v_tg, v_bg: float, v_a, v_b, p: DeviceParams = DeviceParams(),
                    q: QuantSpec = QuantSpec()):
    """Signed current into terminal b for arbitrary gate biases.

    Physical tri-state map: an OFF-band bottom gate conducts nothing for any
    top-gate or terminal voltages. Positive current flows into b when
    v_a > v_b; swapping terminals negates the result exactly. p gives
    i_on and v_dsat, q the supply and the windows.
    """
    region = region_of(v_bg, q)
    if region == REGION_OFF:
        shape = np.broadcast(np.asarray(v_tg), np.asarray(v_a), np.asarray(v_b)).shape
        return 0.0 if shape == () else np.zeros(shape)
    g = gate_drive_tg(v_tg, region, q) * gate_drive_bg(v_bg, region, q)
    dv = (v_a - v_b) / p.v_dsat
    if isinstance(dv, float):
        return p.i_on * g * min(1.0, max(-1.0, dv))
    i = p.i_on * g * np.clip(dv, -1.0, 1.0)
    return float(i) if np.ndim(i) == 0 else i
