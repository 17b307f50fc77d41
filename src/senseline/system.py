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
from .quantizer import RAILS, QuantSpec, check_exact_sums, weight_levels
from .trainer import OvOModel, pair_votes, score_predictions, tally_votes

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
        L = np.asarray(self.L)
        if not (L.dtype.kind in "biu" or L.dtype.kind == "f" and np.all(np.isfinite(L))
                and np.all(L == np.round(L))):
            raise ValueError("L must hold integer weight levels")
        self.L = L.astype(np.int64, copy=False)
        if self.L.ndim != 2 or self.L.shape[1] != len(self.pairs):
            raise ValueError(f"L must be (features, {len(self.pairs)}), got {self.L.shape}")
        check_exact_sums(self.quant, self.L.shape[0])

    @property
    def device_count(self) -> int:
        return int(np.count_nonzero(self.L))


def assemble(model: OvOModel, quant: QuantSpec = QuantSpec(),
             params: DeviceParams = DeviceParams(), timing: LineTiming = LineTiming(),
             n_features: int = N_FEATURES) -> SystemConfig:
    """Compile a trained model onto the device array, all lines at once.

    A ValueError names the first classifier whose features repeat or leave
    the array, after a warning for each line before it whose weights are all
    zero. Such a line is tolerated (strict weight_levels rejects it): it
    keeps no devices and always votes for the smaller digit.
    """
    cs = model.classifiers
    sizes = [len(c.feature_indices) for c in cs]
    line = np.repeat(np.arange(len(cs)), sizes)
    feats = np.concatenate([c.feature_indices for c in cs])
    weights = np.concatenate([c.weights for c in cs])
    scales = np.maximum.reduceat(np.abs(weights), np.cumsum([0] + sizes[:-1]))
    by_line = feats[np.lexsort((feats, line))]  # line is sorted already, so stays aligned
    twice = line[1:][(np.diff(by_line) == 0) & (np.diff(line) == 0)]
    outside = line[(feats < 0) | (feats >= n_features)]
    first_bad = min(np.concatenate([twice, outside]).tolist(), default=len(cs))
    for k in np.flatnonzero(scales[:first_bad] == 0).tolist():
        warnings.warn(f"classifier {cs[k].class_pair} has no surviving devices after "
                      "quantization", RuntimeWarning)
    if first_bad < len(cs):
        what = ("a feature index twice" if first_bad in twice
                else f"a feature outside the {n_features}-feature array")
        raise ValueError(f"classifier {cs[first_bad].class_pair} references {what}")
    L = np.zeros((n_features, len(cs)), dtype=np.int64)
    L[feats, line] = weight_levels(weights, quant, np.repeat(np.where(scales, scales, 1.0), sizes))
    return SystemConfig(model.pairs, L, quant, params, timing, model)


def estimate_area(s: SystemConfig) -> float:
    """Area in square microns from transistor count alone."""
    return s.device_count * DEFAULT_FOOTPRINT_UM2


def device_lines(s: SystemConfig) -> str:
    """The netlist's device lines: line by line, in ascending feature order."""
    lines, feats = np.nonzero(s.L.T)
    rows = []
    for k, (line, feat, level) in enumerate(zip(lines.tolist(), feats.tolist(),
                                                s.L[feats, lines].tolist())):
        a, b = s.pairs[line]
        dtype = "P" if level > 0 else "N"
        rows.append(f"D{k} line={a}-{b} feat={feat} type={dtype} "
                    f"wlevel={abs(level)} rail={RAILS[dtype]}\n")
    return "".join(rows)


def emit_netlist(s: SystemConfig, path, lines: str | None = None):
    """Write the array as text, one device per line, with a parameter header.

    `lines` are the array's device_lines(s), formatted here if not given.
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
    with open(path, "w") as f:
        f.write("* senseline netlist v1\n")
        for key, value in header.items():
            f.write(f"* {key} {json.dumps(value)}\n")
        f.write(device_lines(s) if lines is None else lines)


def quantized_margins(s: SystemConfig, X: np.ndarray | None = None, *, products=None) -> np.ndarray:
    """Integer decision margins of the quantized array, sign-exact.

    margin[:, k] = sum over line k's devices of +/- w_level * x_level, with
    + for p-type and - for n-type: levels @ L, for normalized inputs X or
    their levels' (P, N) line_sim.level_products. This is the digital oracle
    the analog lines are checked against: P - N in int64, the same exact
    products that the line simulator's drive sums scale.
    """
    P, N = line_sim.products_of(s, X, products)
    return np.subtract(P, N, dtype=np.int64)


def digital_votes(s: SystemConfig, X: np.ndarray | None, mode: str, *,
                  products=None) -> np.ndarray:
    """(n, 45) +/-1 pair votes of a digital mode, in the system's line order.

    digital-float votes with the retained real-weight model on normalized
    inputs X, and digital-quantized with the signs of the integer margins
    of X or of their levels' level products.
    """
    if mode == "digital-float":
        if s.model is None:
            raise ValueError("system carries no float model; assemble it from a trained model")
        if X is None:
            raise ValueError("digital-float votes on normalized inputs, not level products")
        return pair_votes(s.model, X)
    # int64 +/-1 votes; the 1 comes off in place, so no second (n, 45) array.
    votes = 2 * (quantized_margins(s, X, products=products) >= 0)
    votes -= 1
    return votes


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


def evaluate(s: SystemConfig, X: np.ndarray | None, labels: np.ndarray,
             mode: str = "digital-quantized", *, products=None) -> MetricsReport:
    """Run the chosen pipeline over a labelled test set and collect all metrics.

    digital-float uses the retained real-weight model on normalized inputs
    X; digital-quantized evaluates the integer margins of the assembled
    array and analog runs the transient simulation, on X or on their
    levels' (P, N) line_sim.level_products.
    """
    n = len(labels)
    if n == 0:
        raise ValueError("test set is empty")
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    if mode == "analog":
        result = line_sim.simulate_batch(s, X, products=products)
        preds, energy = result.predictions, float(np.mean(result.energies))
    else:
        _, preds = tally_votes(s.pairs, digital_votes(s, X, mode, products=products))
        energy = None
    accuracy, confusion = score_predictions(preds, labels)

    return MetricsReport(
        mode=mode,
        n_evaluated=n,
        accuracy=accuracy,
        confusion=confusion,
        device_count=s.device_count,
        area_um2=estimate_area(s),
        throughput_hz=1.0 / (s.timing.t_precharge + s.timing.t_classify),
        energy_per_decision=energy,
        total_current_per_decision=None if energy is None else energy / s.quant.vdd,
        energy_scope=ENERGY_SCOPE,
    )
