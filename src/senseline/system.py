"""Array assembly, netlist serialization, and system-level metrics.

assemble() compiles a trained ensemble into the device array, held as one
signed weight-level matrix L (input features x lines): L[f, k] = +w for a
p-type device of weight level w on line k's feature f, -w for an n-type
device, and 0 where there is none (a feature eliminated by selection or a
weight that quantizes to level 0). The line simulator's drive sums and the
integer decision margins are both products of the feature levels with L.
The netlist is a line-oriented text export of the array. Metrics follow the
transistor-count accounting: area is a pure per-device footprint, and the
reported charge-based energy covers the MAC array and line precharge only.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import line_sim
from .device import DeviceParams
from .line_sim import LineTiming
from .quantizer import RAILS, QuantSpec, quantize_unit, weight_levels
from .trainer import OvOModel, pair_votes, score_votes

# Input features driving the array: the 8x8 downsampled grid.
N_FEATURES = 64

# Calibrated so a 1,021-device array occupies 3.8 square microns.
DEFAULT_FOOTPRINT_UM2 = 3.8 / 1021

ENERGY_SCOPE = ("MAC array charge + line precharge only; buffers, voltage dividers, "
                "and feature MUXes are ideal and excluded")

EVAL_MODES = ("digital-float", "digital-quantized", "analog")


@dataclass(eq=False)
class SystemConfig:
    """The compiled 45-line array (L, see the module docstring) and its parameters.

    The source model rides along so the float pipeline can be evaluated
    against the same system.
    """

    pairs: list[tuple[int, int]]
    L: np.ndarray
    quant: QuantSpec = QuantSpec()
    params: DeviceParams = DeviceParams()
    timing: LineTiming = LineTiming()
    model: OvOModel | None = None

    def __post_init__(self):
        self.L = np.asarray(self.L, dtype=np.int64)
        if self.L.ndim != 2 or self.L.shape[1] != len(self.pairs):
            raise ValueError(f"L must be (features, {len(self.pairs)}), got {self.L.shape}")

    @property
    def device_count(self) -> int:
        return int(np.count_nonzero(self.L))


def assemble(model: OvOModel, quant: QuantSpec = QuantSpec(),
             params: DeviceParams = DeviceParams(), timing: LineTiming = LineTiming(),
             n_features: int = N_FEATURES) -> SystemConfig:
    """Compile a trained model onto the device array."""
    L = np.zeros((n_features, len(model.classifiers)), dtype=np.int64)
    for k, c in enumerate(model.classifiers):
        feats = c.feature_indices
        if len(np.unique(feats)) != len(feats):
            raise ValueError(f"classifier {c.class_pair} references a feature index twice")
        if feats.min() < 0 or feats.max() >= n_features:
            raise ValueError(f"classifier {c.class_pair} references a feature outside "
                             f"the {n_features}-feature array")
        if not np.any(c.weights):
            # Tolerated here (strict weight_levels rejects it): the line keeps
            # no devices and always votes for the smaller digit.
            warnings.warn(f"classifier {c.class_pair} has no surviving devices after "
                          "quantization", RuntimeWarning)
            continue
        L[feats, k] = weight_levels(c, quant)
    return SystemConfig(model.pairs, L, quant, params, timing, model)


def estimate_area(s: SystemConfig) -> float:
    """Area in square microns from transistor count alone."""
    return s.device_count * DEFAULT_FOOTPRINT_UM2


def emit_netlist(s: SystemConfig, path):
    """Write the array as text, one device per line, with a parameter header.

    Devices are listed line by line, in ascending feature order.
    """
    header = {
        "quant": {"bits": s.quant.bits, "step_volts": s.quant.step_volts, "vdd": s.quant.vdd},
        # The device model at its supply and bias windows, which the quantizer sets.
        "device": {
            "i_on": s.params.i_on, "v_dsat": s.params.v_dsat, "vdd": s.quant.vdd,
            "p_window": list(s.quant.p_window), "n_window": list(s.quant.n_window),
            "tg_window_span": s.quant.window_span,
        },
        "line": dataclasses.asdict(s.timing),
        "pairs": [f"{a}-{b}" for a, b in s.pairs],
    }
    lines, feats = np.nonzero(s.L.T)
    with open(path, "w") as f:
        f.write("* senseline netlist v1\n")
        for key, value in header.items():
            f.write(f"* {key} {json.dumps(value)}\n")
        for k, (line, feat, level) in enumerate(zip(lines.tolist(), feats.tolist(),
                                                    s.L[feats, lines].tolist())):
            a, b = s.pairs[line]
            dtype = "P" if level > 0 else "N"
            f.write(f"D{k} line={a}-{b} feat={feat} type={dtype} "
                    f"wlevel={abs(level)} rail={RAILS[dtype]}\n")


def quantized_margins(s: SystemConfig, X: np.ndarray) -> np.ndarray:
    """Integer decision margins of the quantized array, sign-exact.

    margin[:, k] = sum over line k's devices of +/- w_level * x_level, with
    + for p-type and - for n-type: levels @ L. This is the digital oracle
    the analog lines are checked against. The float64 gemm is exact, as in
    the line simulator's drive sums.
    """
    levels = quantize_unit(np.atleast_2d(X), s.quant).astype(np.float64)
    return (levels @ s.L.astype(np.float64)).astype(np.int64)


def digital_votes(s: SystemConfig, X: np.ndarray, mode: str) -> np.ndarray:
    """(n, 45) +/-1 pair votes of a digital mode, in the system's line order.

    digital-float votes with the retained real-weight model, and
    digital-quantized with the signs of the integer margins.
    """
    if mode == "digital-float":
        if s.model is None:
            raise ValueError("system carries no float model; assemble it from a trained model")
        return pair_votes(s.model, X)
    return np.where(quantized_margins(s, X) >= 0, 1, -1)


@dataclass
class MetricsReport:
    mode: str
    n_evaluated: int
    accuracy: float
    confusion: np.ndarray                    # (10, 10), rows true, cols predicted
    device_count: int
    area_um2: float
    throughput_hz: float
    energy_per_decision: float | None        # joules; analog mode only
    total_current_per_decision: float | None  # energy / vdd, ampere-seconds
    energy_scope: str

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_evaluated": self.n_evaluated,
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "device_count": self.device_count,
            "area_um2": self.area_um2,
            "throughput_hz": self.throughput_hz,
            "energy_per_decision_j": self.energy_per_decision,
            "total_current_per_decision_As": self.total_current_per_decision,
            "energy_scope": self.energy_scope,
        }


def evaluate(s: SystemConfig, X: np.ndarray, labels: np.ndarray,
             mode: str = "digital-quantized") -> MetricsReport:
    """Run the chosen pipeline over a test set and collect all metrics.

    digital-float uses the retained real-weight model; digital-quantized
    evaluates the integer margins of the assembled array; analog runs the
    transient simulation.
    """
    if len(X) == 0:
        raise ValueError("test set is empty")
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    if mode == "analog":
        result = line_sim.simulate_batch(s, X)
        votes, energy = result.votes, float(np.mean(result.energies))
    else:
        votes, energy = digital_votes(s, X, mode), None
    accuracy, confusion, _ = score_votes(s.pairs, votes, labels)

    return MetricsReport(
        mode=mode,
        n_evaluated=len(X),
        accuracy=accuracy,
        confusion=confusion,
        device_count=s.device_count,
        area_um2=estimate_area(s),
        throughput_hz=1.0 / (s.timing.t_precharge + s.timing.t_classify),
        energy_per_decision=energy,
        total_current_per_decision=None if energy is None else energy / s.quant.vdd,
        energy_scope=ENERGY_SCOPE,
    )


def save_confusion_csv(confusion: np.ndarray, path, header: str = ""):
    np.savetxt(path, confusion, fmt="%d", delimiter=",", header=header)
