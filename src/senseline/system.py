"""Array assembly, netlist serialization, and system-level metrics.

assemble() compiles a trained ensemble into the device array: one sensing
line per binary classifier, one device per surviving quantized weight.
Features eliminated by selection or zero-quantized weights leave gaps in
the array. The netlist is a line-oriented text format that round-trips to
an equal system. Metrics follow the transistor-count accounting: area is a
pure per-device footprint, and the reported charge-based energy covers the
MAC array and line precharge only.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import line_sim
from .device import DeviceInstance, DeviceParams, make_instance
from .quantizer import DeviceConfig, QuantSpec, map_weights, quantize_features
from .trainer import OvOModel, evaluate_model

# Calibrated so a 1,021-device array occupies 3.8 square microns.
DEFAULT_FOOTPRINT_UM2 = 3.8 / 1021

ENERGY_SCOPE = ("MAC array charge + line precharge only; buffers, voltage dividers, "
                "and feature MUXes are ideal and excluded")

EVAL_MODES = ("digital-float", "digital-quantized", "analog")


@dataclass
class SystemConfig:
    """The assembled 45-line device array plus its electrical parameters.

    The source model rides along (excluded from equality) so the float
    pipeline can be evaluated against the same system.
    """

    lines: list[line_sim.LineConfig]
    quant: QuantSpec
    params: DeviceParams
    model: OvOModel | None = field(default=None, compare=False)

    def __post_init__(self):
        for cfg in self.lines:
            feats = [d.feature_index for d in cfg.devices]
            if len(feats) != len(set(feats)):
                raise ValueError(f"line {cfg.pair} references a feature index twice")

    @property
    def device_count(self) -> int:
        return sum(len(cfg.devices) for cfg in self.lines)


def assemble(model: OvOModel, quant: QuantSpec = QuantSpec(),
             params: DeviceParams = DeviceParams(),
             c_line: float = 10e-15, t_precharge: float = 2e-9,
             t_classify: float = 2e-9, dt: float = 10e-12) -> SystemConfig:
    """Compile a trained model onto the device array."""
    lines = []
    for c in model.classifiers:
        if np.all(np.asarray(c.weights) == 0.0):
            # Tolerated here (strict map_weights rejects it): the line keeps
            # no devices and always votes for the smaller digit.
            warnings.warn(f"classifier {c.class_pair} has no surviving devices after "
                          "quantization", RuntimeWarning)
            configs = []
        else:
            configs = map_weights(c, quant)
        devices = [make_instance(cfg, quant, params) for cfg in configs]
        lines.append(line_sim.LineConfig(pair=c.class_pair, devices=devices,
                                         c_line=c_line, t_precharge=t_precharge,
                                         t_classify=t_classify, dt=dt))
    return SystemConfig(lines=lines, quant=quant, params=params, model=model)


def estimate_area(s: SystemConfig, footprint_um2: float = DEFAULT_FOOTPRINT_UM2) -> float:
    """Area in square microns from transistor count alone."""
    if footprint_um2 <= 0:
        raise ValueError("footprint must be positive")
    return s.device_count * footprint_um2


def emit_netlist(s: SystemConfig, path):
    """Write the array as text, one device per line, with a parameter header."""
    base = s.lines[0]
    header = {
        "quant": {"bits": s.quant.bits, "step_volts": s.quant.step_volts, "vdd": s.quant.vdd},
        "device": {
            "i_on": s.params.i_on, "v_dsat": s.params.v_dsat, "vdd": s.params.vdd,
            "p_window": list(s.params.p_window), "n_window": list(s.params.n_window),
            "tg_window_span": s.params.tg_window_span,
        },
        "line": {"c_line": base.c_line, "t_precharge": base.t_precharge,
                 "t_classify": base.t_classify, "dt": base.dt},
        "pairs": [f"{a}-{b}" for a, b in (cfg.pair for cfg in s.lines)],
    }
    with open(path, "w") as f:
        f.write("* senseline netlist v1\n")
        for key, value in header.items():
            f.write(f"* {key} {json.dumps(value)}\n")
        k = 0
        for cfg in s.lines:
            a, b = cfg.pair
            for d in cfg.devices:
                f.write(f"D{k} line={a}-{b} feat={d.feature_index} type={d.dtype} "
                        f"wlevel={d.config.w_level} rail={d.config.rail}\n")
                k += 1


def parse_netlist(path) -> SystemConfig:
    """Rebuild a SystemConfig from a netlist file (structural round trip).

    The parsed system carries no float model.
    """
    header: dict = {}
    records: list[dict] = []
    with open(path) as f:
        for raw in f:
            tokens = raw.split()
            if not tokens:
                continue
            if tokens[0] == "*":
                if len(tokens) >= 3 and tokens[1] in ("quant", "device", "line", "pairs"):
                    header[tokens[1]] = json.loads(raw.split(None, 2)[2])
                continue
            fields = dict(tok.split("=", 1) for tok in tokens[1:])
            records.append(fields)
    for key in ("quant", "device", "line", "pairs"):
        if key not in header:
            raise ValueError(f"netlist {path} is missing the '{key}' header")

    quant = QuantSpec(**header["quant"])
    d = header["device"]
    params = DeviceParams(i_on=d["i_on"], v_dsat=d["v_dsat"], vdd=d["vdd"],
                          p_window=tuple(d["p_window"]), n_window=tuple(d["n_window"]),
                          tg_window_span=d["tg_window_span"])

    per_pair: dict[tuple[int, int], list[DeviceInstance]] = {
        tuple(int(x) for x in p.split("-")): [] for p in header["pairs"]
    }
    for rec in records:
        pair = tuple(int(x) for x in rec["line"].split("-"))
        if pair not in per_pair:
            raise ValueError(f"device on line {rec['line']} not declared in the 'pairs' header")
        cfg = DeviceConfig(feature_index=int(rec["feat"]), dtype=rec["type"],
                           w_level=int(rec["wlevel"]))
        if rec["rail"] != cfg.rail:
            raise ValueError(f"device on line {pair}: rail {rec['rail']} contradicts type {cfg.dtype}")
        per_pair[pair].append(make_instance(cfg, quant, params))

    ln = header["line"]
    lines = [line_sim.LineConfig(pair=pair, devices=devs, c_line=ln["c_line"],
                                 t_precharge=ln["t_precharge"],
                                 t_classify=ln["t_classify"], dt=ln["dt"])
             for pair, devs in per_pair.items()]
    return SystemConfig(lines=lines, quant=quant, params=params, model=None)


def quantized_margins(s: SystemConfig, X: np.ndarray) -> np.ndarray:
    """Integer decision margins of the quantized array, sign-exact.

    margin[:, k] = sum over line k's devices of +/- w_level * x_level, with
    + for p-type and - for n-type. This is the digital oracle the analog
    lines are checked against.
    """
    X = np.atleast_2d(X)
    levels = quantize_features(X, s.quant)
    margins = np.zeros((len(X), len(s.lines)), dtype=np.int64)
    for k, cfg in enumerate(s.lines):
        for d in cfg.devices:
            sign = 1 if d.dtype == "P" else -1
            margins[:, k] += sign * d.config.w_level * levels[:, d.feature_index]
    return margins


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
    labels = np.asarray(labels, dtype=int)
    energy = None
    if mode == "digital-float":
        if s.model is None:
            raise ValueError("system carries no float model (parsed from netlist?)")
        accuracy, confusion, _ = evaluate_model(s.model, X, labels)
    elif mode == "digital-quantized":
        margins = quantized_margins(s, X)
        votes = np.where(margins >= 0, 1, -1)
        _, preds = line_sim.tally_votes([c.pair for c in s.lines], votes)
        confusion = _confusion(labels, preds)
        accuracy = float(np.trace(confusion) / len(labels))
    else:
        result = line_sim.simulate_batch(s.lines, s.quant, s.params, X)
        confusion = _confusion(labels, result.predictions)
        accuracy = float(np.trace(confusion) / len(labels))
        energy = float(np.mean(result.energies))

    base = s.lines[0]
    return MetricsReport(
        mode=mode,
        n_evaluated=len(X),
        accuracy=accuracy,
        confusion=confusion,
        device_count=s.device_count,
        area_um2=estimate_area(s, footprint_um2),
        throughput_hz=1.0 / (base.t_precharge + base.t_classify),
        energy_per_decision=energy,
        total_current_per_decision=None if energy is None else energy / s.params.vdd,
        energy_scope=ENERGY_SCOPE,
    )


def _confusion(labels: np.ndarray, preds: np.ndarray) -> np.ndarray:
    confusion = np.zeros((10, 10), dtype=int)
    np.add.at(confusion, (labels, np.asarray(preds, dtype=int)), 1)
    return confusion


def save_metrics(report: MetricsReport, path, metadata: dict | None = None):
    doc = report.to_dict()
    if metadata:
        doc["metadata"] = metadata
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def save_confusion_csv(confusion: np.ndarray, path, header: str = ""):
    np.savetxt(path, confusion, fmt="%d", delimiter=",", header=header)
