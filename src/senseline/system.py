"""Array assembly, netlist serialization, and system-level metrics.

assemble() compiles a trained ensemble into the device array, held as one
signed weight-level matrix L (input features x lines): L[f, k] = +w for a
p-type device of weight level w on line k's feature f, -w for an n-type
device, and 0 where there is none (a feature eliminated by selection or a
weight that quantizes to level 0). The bottom-gate drive matrices of the
line simulator and the integer decision margins both derive from L. The
netlist is a line-oriented text format that round-trips to an equal
system. Metrics follow the transistor-count accounting: area is a pure
per-device footprint, and the reported charge-based energy covers the MAC
array and line precharge only.
"""

from __future__ import annotations

import dataclasses
import json
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import line_sim
from .device import DeviceParams, RegionMismatchError, gate_drive_bg
from .line_sim import LineTiming
from .quantizer import RAILS, QuantSpec, level_to_vbg, quantize_unit, weight_levels
from .trainer import OvOModel, all_pairs, pair_votes, score_votes

# Input features driving the array: the 8x8 downsampled grid.
N_FEATURES = 64

# Calibrated so a 1,021-device array occupies 3.8 square microns.
DEFAULT_FOOTPRINT_UM2 = 3.8 / 1021

ENERGY_SCOPE = ("MAC array charge + line precharge only; buffers, voltage dividers, "
                "and feature MUXes are ideal and excluded")

EVAL_MODES = ("digital-float", "digital-quantized", "analog")


def _bottom_gate_drives(L: np.ndarray, quant: QuantSpec, params: DeviceParams):
    """Bottom-gate drive matrices (G_p, G_n) of the p- and n-type devices in L.

    Raises RegionMismatchError if a device's bias falls outside the window
    of its polarity.
    """
    drives = []
    for dtype, levels, window in (("P", np.maximum(L, 0), params.p_window),
                                  ("N", np.maximum(-L, 0), params.n_window)):
        v_bg = level_to_vbg(levels, dtype, quant)
        outside = (levels > 0) & ((v_bg < window[0]) | (v_bg > window[1]))
        if np.any(outside):
            raise RegionMismatchError(
                f"v_bg = {v_bg[outside][0]:.3f} V is outside the {dtype} window; "
                "quantizer step/window and device windows are inconsistent")
        drives.append(np.where(levels > 0, gate_drive_bg(v_bg, dtype, params), 0.0))
    return drives


@dataclass(eq=False)
class SystemConfig:
    """The compiled 45-line array (L, see the module docstring) and its parameters.

    G_p and G_n, derived from L, hold each device's bottom-gate drive in
    [0, 1] at its polarity's position and 0 elsewhere. The source model
    rides along (excluded from equality) so the float pipeline can be
    evaluated against the same system.
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
        self.G_p, self.G_n = _bottom_gate_drives(self.L, self.quant, self.params)

    def __eq__(self, other):
        if not isinstance(other, SystemConfig):
            return NotImplemented
        return (self.pairs == other.pairs and np.array_equal(self.L, other.L)
                and (self.quant, self.params, self.timing)
                == (other.quant, other.params, other.timing))

    @property
    def device_count(self) -> int:
        return int(np.count_nonzero(self.L))


def check_euler_stability(s: SystemConfig):
    """Reject an analog simulation whose explicit-Euler step can overshoot.

    Every line's line_sim.euler_factor, taken at its summed bottom-gate
    drives (sum G_p + sum G_n), must lie in (0, 1]. Digital evaluation does
    not step the lines, so only the analog paths check this.
    """
    factor = line_sim.euler_factor(s.timing, s.params, (s.G_p + s.G_n).sum(axis=0))
    bad = np.flatnonzero(factor <= 0)
    if bad.size:
        a, b = s.pairs[bad[0]]
        raise ValueError(f"unstable Euler step on line {a}-{b}: worst-case factor "
                         f"{factor[bad[0]]:.3g} is outside (0, 1]; "
                         "lower line.dt or raise line.c_line")


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


def estimate_area(s: SystemConfig, footprint_um2: float = DEFAULT_FOOTPRINT_UM2) -> float:
    """Area in square microns from transistor count alone."""
    if footprint_um2 <= 0:
        raise ValueError("footprint must be positive")
    return s.device_count * footprint_um2


def emit_netlist(s: SystemConfig, path):
    """Write the array as text, one device per line, with a parameter header.

    Devices are listed line by line, in ascending feature order.
    """
    header = {
        "quant": {"bits": s.quant.bits, "step_volts": s.quant.step_volts, "vdd": s.quant.vdd},
        "device": {
            "i_on": s.params.i_on, "v_dsat": s.params.v_dsat, "vdd": s.params.vdd,
            "p_window": list(s.params.p_window), "n_window": list(s.params.n_window),
            "tg_window_span": s.params.tg_window_span,
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


_DEVICE_FIELDS = ("line", "feat", "type", "wlevel", "rail")


def _parse_device(tokens: list[str], columns: dict, quant: QuantSpec):
    """One netlist device line -> (line column, feature, signed weight level).

    Raises a ValueError naming the device for any missing or invalid field.
    """
    name = tokens[0]
    fields = dict(tok.partition("=")[::2] for tok in tokens[1:])
    missing = [key for key in _DEVICE_FIELDS if key not in fields]
    if missing:
        raise ValueError(f"netlist device {name} is missing "
                         + ", ".join(f"{key}=" for key in missing))
    try:
        pair = tuple(int(x) for x in fields["line"].split("-"))
        feat, level = int(fields["feat"]), int(fields["wlevel"])
    except ValueError:
        raise ValueError(f"netlist device {name}: line, feat and wlevel must be integers") from None
    if pair not in columns:
        raise ValueError(f"netlist device {name}: line {fields['line']} is not declared "
                         "in the 'pairs' header")
    if not 0 <= feat < N_FEATURES:
        raise ValueError(f"netlist device {name}: feat={feat} is outside the "
                         f"{N_FEATURES}-feature array")
    if not 1 <= level <= quant.max_level:
        raise ValueError(f"netlist device {name}: wlevel={level} is outside "
                         f"1..{quant.max_level}")
    dtype = fields["type"]
    if dtype not in RAILS:
        raise ValueError(f"netlist device {name}: type must be P or N, got {dtype!r}")
    if fields["rail"] != RAILS[dtype]:
        raise ValueError(f"netlist device {name}: rail {fields['rail']} contradicts "
                         f"type {dtype}")
    return columns[pair], feat, level if dtype == "P" else -level


def _header_section(path, key: str, values, cls):
    """The dataclass cls built from the netlist's `key` header, which must be
    a JSON object with exactly cls's fields; a list value becomes a tuple.

    Raises a ValueError naming the header if a key is missing or extra, or
    if cls rejects a value.
    """
    names = sorted(f.name for f in dataclasses.fields(cls))
    if not isinstance(values, dict) or sorted(values) != names:
        raise ValueError(f"netlist {path}: the '{key}' header must be an object with "
                         f"exactly the keys {names}, got {values!r}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"netlist {path}: invalid '{key}' header: {e}") from None


def _header_pairs(path, values) -> list[tuple[int, int]]:
    """The lines' digit pairs from the 'pairs' header: distinct "a-b" with 0 <= a < b <= 9."""
    if not isinstance(values, list):
        raise ValueError(f"netlist {path}: the 'pairs' header must be a list, got {values!r}")
    valid = all_pairs()
    pairs = []
    for value in values:
        digits = re.fullmatch(r"([0-9])-([0-9])", value) if isinstance(value, str) else None
        pair = (int(digits[1]), int(digits[2])) if digits else None
        if pair not in valid:
            raise ValueError(f"netlist {path}: 'pairs' header entry {value!r} is not a "
                             "digit pair a-b with a < b")
        if pair in pairs:
            raise ValueError(f"netlist {path}: the 'pairs' header repeats {value}")
        pairs.append(pair)
    return pairs


def parse_netlist(path) -> SystemConfig:
    """Rebuild a SystemConfig from a netlist file (structural round trip).

    The parsed system carries no float model. A malformed file raises a
    ValueError naming the header or device at fault.
    """
    header: dict = {}
    devices: list[list[str]] = []
    with open(path) as f:
        for raw in f:
            tokens = raw.split()
            if not tokens:
                continue
            if tokens[0] == "*":
                if len(tokens) >= 3 and tokens[1] in ("quant", "device", "line", "pairs"):
                    try:
                        header[tokens[1]] = json.loads(raw.split(None, 2)[2])
                    except json.JSONDecodeError as e:
                        raise ValueError(f"netlist {path}: the '{tokens[1]}' header is not "
                                         f"valid JSON: {e}") from None
                continue
            devices.append(tokens)
    for key in ("quant", "device", "line", "pairs"):
        if key not in header:
            raise ValueError(f"netlist {path} is missing the '{key}' header")

    quant = _header_section(path, "quant", header["quant"], QuantSpec)
    params = _header_section(path, "device", header["device"], DeviceParams)
    timing = _header_section(path, "line", header["line"], LineTiming)
    pairs = _header_pairs(path, header["pairs"])
    columns = {pair: k for k, pair in enumerate(pairs)}
    L = np.zeros((N_FEATURES, len(pairs)), dtype=np.int64)
    for tokens in devices:
        k, feat, level = _parse_device(tokens, columns, quant)
        if L[feat, k]:
            a, b = pairs[k]
            raise ValueError(f"netlist device {tokens[0]}: a second device on line {a}-{b} "
                             f"feature {feat}")
        L[feat, k] = level
    return SystemConfig(pairs, L, quant, params, timing)


def quantized_margins(s: SystemConfig, X: np.ndarray) -> np.ndarray:
    """Integer decision margins of the quantized array, sign-exact.

    margin[:, k] = sum over line k's devices of +/- w_level * x_level, with
    + for p-type and - for n-type: levels @ L. This is the digital oracle
    the analog lines are checked against.
    """
    return quantize_unit(np.atleast_2d(X), s.quant) @ s.L


def digital_votes(s: SystemConfig, X: np.ndarray, mode: str) -> np.ndarray:
    """(n, 45) +/-1 pair votes of a digital mode, in the system's line order.

    digital-float votes with the retained real-weight model, and
    digital-quantized with the signs of the integer margins.
    """
    if mode == "digital-float":
        if s.model is None:
            raise ValueError("system carries no float model (parsed from netlist?)")
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
             mode: str = "digital-quantized",
             footprint_um2: float = DEFAULT_FOOTPRINT_UM2) -> MetricsReport:
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
        check_euler_stability(s)
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
        area_um2=estimate_area(s, footprint_um2),
        throughput_hz=1.0 / (s.timing.t_precharge + s.timing.t_classify),
        energy_per_decision=energy,
        total_current_per_decision=None if energy is None else energy / s.params.vdd,
        energy_scope=ENERGY_SCOPE,
    )


def save_confusion_csv(confusion: np.ndarray, path, header: str = ""):
    np.savetxt(path, confusion, fmt="%d", delimiter=",", header=header)
