"""Independent correctness checks for the benchmark, numpy only.

Nothing here imports senseline. From the saved float model JSON and the raw
test images the oracle redoes the 5-bit quantization, computes the integer
margin of every line for every test digit, and compares each artifact the
pipeline wrote against that and against properties of the sensing lines.
It never reads model_quant.json.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

GRID = (2, 5, 9, 12, 16, 19, 23, 26)
N_FEATURES = len(GRID) ** 2
MAX_LEVEL = 31          # 5-bit levels 0..31
N_LINES = 45


def features(images: np.ndarray) -> np.ndarray:
    """Raw (n, 28, 28) uint8 images -> (n, 64) pixels in [0, 1] on the 8x8 grid."""
    g = np.asarray(GRID)
    return images[:, g][:, :, g].reshape(len(images), -1).astype(np.float64) / 255.0


def levels(v: np.ndarray) -> np.ndarray:
    """Values in [0, 1] -> integer levels, rounded half to even."""
    return np.rint(np.asarray(v) * MAX_LEVEL).astype(np.int64)


def quantize(model_doc: dict):
    """Float model -> (pairs, signed level matrix L of shape (features, 45)).

    Each classifier's |w| is normalized by its maximum and rounded onto the
    levels; a positive weight is a p-type device (+level), a negative one an
    n-type device (-level), and level 0 is no device.
    """
    pairs = []
    L = np.zeros((N_FEATURES, len(model_doc["classifiers"])), dtype=np.int64)
    for k, c in enumerate(model_doc["classifiers"]):
        pairs.append(tuple(c["pair"]))
        w = np.asarray(c["weights"], dtype=np.float64)
        scale = np.max(np.abs(w))
        if scale > 0:
            L[np.asarray(c["feature_indices"], dtype=int), k] = (
                np.sign(w).astype(np.int64) * levels(np.abs(w) / scale))
    return pairs, L


def tally(pairs, votes: np.ndarray):
    """(n, 45) votes of +/-1 -> (tallies (n, 10), predictions, ties to the smaller digit)."""
    t = np.zeros((len(votes), 10), dtype=np.int64)
    rows = np.arange(len(votes))
    for k, (a, b) in enumerate(pairs):
        np.add.at(t, (rows, np.where(votes[:, k] > 0, a, b)), 1)
    return t, np.argmax(t, axis=1)


def confusion(labels: np.ndarray, preds: np.ndarray) -> np.ndarray:
    c = np.zeros((10, 10), dtype=np.int64)
    np.add.at(c, (labels, preds), 1)
    return c


def float_accuracy(model_doc: dict, X: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy of the float model's one-vs-one vote (for reference figures)."""
    pairs = [tuple(c["pair"]) for c in model_doc["classifiers"]]
    Z = np.stack([X[:, c["feature_indices"]] @ np.asarray(c["weights"]) + c.get("intercept", 0.0)
                  for c in model_doc["classifiers"]], axis=1)
    _, preds = tally(pairs, np.where(Z >= 0, 1, -1))
    return float(np.mean(preds == labels))


def _read_csv(path: Path):
    with open(path) as f:
        rows = list(csv.reader(line for line in f if not line.startswith("#")))
    return rows[0], rows[1:]


def read_traces(path: Path) -> dict:
    """traces.csv -> {(digit_index, "a-b"): (t array, v array)} in file order."""
    _, rows = _read_csv(path)
    grouped: dict = {}
    for digit, pair, t, v in rows:
        grouped.setdefault((int(digit), pair), []).append((float(t), float(v)))
    return {key: tuple(np.array(col) for col in zip(*samples))
            for key, samples in grouped.items()}


def read_netlist(path: Path) -> tuple[dict, int]:
    """netlist.txt -> ({"line": ..., "device": ...} header sections, number of device lines)."""
    header: dict = {}
    n_devices = 0
    with open(path) as f:
        for line in f:
            if line.startswith("D"):
                n_devices += 1
            elif line.startswith(("* line ", "* device ")):
                _, section, value = line.split(None, 2)
                header[section] = json.loads(value)
    return header, n_devices


def check_outputs(out_dir, check: dict) -> tuple[list[str], dict]:
    """Compare one pipeline output directory with the oracle.

    `check` names the float model file, the raw test set, the configured
    trace-digit count, the evaluated modes and the line/device parameters.
    Returns (failure messages, figures); figures hold the end-to-end
    quality values read from the outputs.
    """
    out = Path(out_dir)
    fails: list[str] = []

    def expect(ok, msg):
        if not ok:
            fails.append(msg)
        return ok

    model_doc = json.loads((out / check["model_file"]).read_text())
    test = np.load(check["test_npz"])
    X, y = features(test["images"]), test["labels"].astype(np.int64)
    pairs, L = quantize(model_doc)
    xl = levels(X)
    margins = xl @ L
    votes = np.where(margins >= 0, 1, -1)     # a zero margin votes +1
    tallies, preds = tally(pairs, votes)
    n_dev = int(np.count_nonzero(L))
    n_p = int(np.count_nonzero(L > 0))
    vdd, c_line, dt, t_cls = check["vdd"], check["c_line"], check["dt"], check["t_classify"]
    n_steps = int(round(t_cls / dt))

    # Euler stability of the point: worst case is every feature at full level.
    g_sum = np.abs(L).sum(axis=0) / MAX_LEVEL
    factor = 1.0 - dt * check["i_on"] * g_sum / (c_line * check["v_dsat"])
    expect(np.all((factor > 0) & (factor <= 1)),
           f"worst-case Euler factor {factor.min():.3f} outside (0, 1]")
    expect(t_cls / dt >= 10, f"t_classify / dt = {t_cls / dt:.1f} < 10")

    e_floor = N_LINES * c_line * (vdd / 2) ** 2
    e_ceil = e_floor + vdd * t_cls * check["i_on"] * n_p

    system = json.loads((out / "system.json").read_text())
    expect(system["device_count"] == n_dev,
           f"system.json device_count {system['device_count']} != oracle {n_dev}")
    header, n_lines = read_netlist(out / "netlist.txt")
    expect(n_lines == n_dev, f"netlist.txt has {n_lines} device lines, oracle {n_dev}")
    # The array must be built at this step's line/device point.
    for section, key in (("line", "c_line"), ("line", "dt"), ("line", "t_classify"),
                         ("device", "v_dsat"), ("device", "i_on")):
        value = header.get(section, {}).get(key)
        expect(value == check[key], f"netlist.txt {section} {key} {value} != point {check[key]}")

    cm = confusion(y, preds)
    acc = float(np.trace(cm) / len(y))
    metrics = {}
    for mode in check["modes"]:
        m = json.loads((out / f"metrics_{mode}.json").read_text())
        metrics[mode] = m
        expect(m["n_evaluated"] == len(y), f"{mode}: n_evaluated {m['n_evaluated']} != {len(y)}")
        expect(np.array_equal(np.asarray(m["confusion"]), cm), f"{mode}: confusion != oracle")
        expect(m["accuracy"] == acc, f"{mode}: accuracy {m['accuracy']} != oracle {acc}")
        expect(m["device_count"] == n_dev, f"{mode}: device_count != oracle {n_dev}")
    energy = metrics["analog"]["energy_per_decision_j"]
    expect(energy is not None and e_floor <= energy <= e_ceil,
           f"energy/decision {energy} outside [{e_floor:.4g}, {e_ceil:.4g}]")

    records = json.loads((out / "digit_records.json").read_text())["digits"]
    expect(len(records) == check["trace_digits"],
           f"{len(records)} digit records, expected {check['trace_digits']}")
    for rec in records:
        i = rec["index"]
        t = np.asarray(rec["tally"])
        expect(rec["votes"] == votes[i].tolist(), f"digit {i}: line votes != oracle")
        expect(t.sum() == N_LINES, f"digit {i}: tally sums to {t.sum()}, not {N_LINES}")
        expect(np.array_equal(t, tallies[i]), f"digit {i}: tally != oracle")
        expect(rec["predicted"] == int(np.argmax(t)) == preds[i],
               f"digit {i}: predicted {rec['predicted']} is not the smallest top-tally digit "
               f"{int(np.argmax(t))} / oracle {preds[i]}")
        expect(e_floor <= rec["energy_j"] <= e_ceil, f"digit {i}: energy outside bounds")

    traces = read_traces(out / "traces.csv")
    expect(len(traces) == check["trace_digits"] * N_LINES,
           f"{len(traces)} traces, expected {check['trace_digits'] * N_LINES}")
    line_of = {f"{a}-{b}": k for k, (a, b) in enumerate(pairs)}
    for (i, pair), (ts, vs) in traces.items():
        where = f"trace digit {i} line {pair}"
        dv = np.diff(vs)
        expect(len(vs) == n_steps + 1, f"{where}: {len(vs)} samples, expected {n_steps + 1}")
        expect(vs[0] == vdd / 2, f"{where}: starts at {vs[0]}, not vdd/2")
        expect(vs.min() >= 0 and vs.max() <= vdd, f"{where}: leaves [0, vdd]")
        expect(np.all(dv >= 0) or np.all(dv <= 0), f"{where}: not monotone")
        expect(np.all(np.diff(ts) > 0), f"{where}: time does not increase")
        expect((vs[-1] >= vdd / 2) == (votes[i, line_of[pair]] > 0),
               f"{where}: ends at {vs[-1]} on the wrong side of its vote")

    figures = {"test_accuracy": metrics["analog"]["accuracy"], "energy_per_decision_j": energy,
               "device_count": system["device_count"],
               "float_accuracy": float_accuracy(model_doc, X, y)}
    return fails, figures
