"""Command-line pipeline driver.

Subcommands: prepare, train, select, quantize, build, simulate, evaluate,
report, run-all. A single JSON config (with full defaults) drives every
stage; a handful of flags override the most common keys. Exit codes: 0
success, 2 data error, 3 training/simulation failure, 4 bad configuration.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import json
import os
import pathlib
import sys

import numpy as np

from . import dataset, system, trainer
from .config import RunConfig, config_from_dict, config_hash
from .dataset import CountMismatchError, IdxFormatError
from .line_sim import simulate_batch
from .quantizer import quantize_unit
from .trainer import TrainingDivergedError, tally_votes

EXIT_DATA = 2
EXIT_COMPUTE = 3
EXIT_CONFIG = 4


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _out(cfg: RunConfig, name: str) -> str:
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"out_dir {cfg.out_dir!r} is not a directory") from None
    return os.path.join(cfg.out_dir, name)


def _write_json(path, doc: dict):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def _check_paths(cfg: RunConfig, keys):
    paths = dataclasses.asdict(cfg.data)
    for key in keys:
        if not os.path.isfile(paths[key]):
            problem = "is not a regular file" if os.path.exists(paths[key]) else "not found"
            raise FileNotFoundError(f"data file for '{key}' {problem}: {paths[key]}")


def _pixels_of(cfg: RunConfig, s: dataset.LabeledImageSet) -> np.ndarray:
    """(n, feature_space) uint8 pixels: the grid's at 64 features, all of them at 784."""
    pixels = s.images.reshape(len(s), -1)
    return dataset.downsample(pixels, cfg.grid) if cfg.feature_space == 64 else pixels


def _features_of(cfg: RunConfig, s: dataset.LabeledImageSet):
    """(n, feature_space) float64 pixels scaled to [0, 1], and the labels as ints.

    At 64 features the grid pixels are selected from the uint8 images before
    scaling. Selection and p/255 are both elementwise, so this equals
    downsample(normalize(s)) bit for bit without the (n, 784) float matrix.
    """
    return _pixels_of(cfg, s) / 255.0, s.labels.astype(int)


def _load_train_val_features(cfg: RunConfig):
    """Features of the train and val splits, each pair with validation rows; no test pool."""
    _check_paths(cfg, ("train_images", "train_labels"))
    train_pool = dataset.load_idx(cfg.data.train_images, cfg.data.train_labels)
    train, val = dataset.split_train_val(train_pool, cfg.split)
    trainer.check_pair_rows(trainer.all_pairs(), val.labels)
    return _features_of(cfg, train), _features_of(cfg, val)


def _load_test_features(cfg: RunConfig):
    """Features of the test split alone; the training pool is not read."""
    _check_paths(cfg, ("test_images", "test_labels"))
    test_pool = dataset.load_idx(cfg.data.test_images, cfg.data.test_labels)
    return _features_of(cfg, dataset.select_test(test_pool, cfg.split))


# The test split as feature levels, reused while the test IDX bytes and every
# setting the levels depend on match. Only these small integer levels stay
# resident: float test features are built only for digital-float votes.
_test_split = trainer.LastParse()


def _test_levels(cfg: RunConfig):
    """The test split's read-only (n, feature_space) feature levels and int labels.

    A pixel p's level is quantize_unit(p / 255), tabulated per byte value, so
    the levels equal quantize_unit of _features_of bit for bit. They are
    uint8 up to 8 quantizer bits.
    """
    _check_paths(cfg, ("test_images", "test_labels"))
    paths = (cfg.data.test_images, cfg.data.test_labels)

    def parse(image_bytes, label_bytes):
        pool = dataset.decode_idx_pair(*paths, image_bytes, label_bytes)
        test = dataset.select_test(pool, cfg.split)
        table = quantize_unit(np.arange(256) / 255.0, cfg.quant)
        levels = table.astype(np.uint8 if cfg.quant.max_level < 256 else np.int64)
        levels = levels[_pixels_of(cfg, test)]
        labels = test.labels.astype(int)
        levels.flags.writeable = labels.flags.writeable = False
        return levels, labels

    return _test_split.load(paths, parse, cfg.split.test_count, cfg.grid, cfg.feature_space,
                            cfg.quant)


def _test_inputs(cfg: RunConfig):
    """(X, levels, labels) of the test split for the configured mode.

    digital-float votes on the normalized features X; the other modes on the
    feature levels. The input a mode does not use is None.
    """
    if cfg.evaluate.mode == "digital-float":
        X, labels = _load_test_features(cfg)
        return X, None, labels
    levels, labels = _test_levels(cfg)
    return None, levels, labels


def _head(n, *arrays):
    """The first n rows (all for None) of each array; None stays None."""
    return tuple(None if a is None else a[:n] for a in arrays)


# What `select` writes from model.json; `train` deletes them as stale.
SELECT_ARTIFACTS = ("model_sbs.json", "sbs_report.json")


def _model_path(cfg: RunConfig) -> str:
    """The model to compile: the selected one if selection is on and has run."""
    candidates = ["model_sbs.json", "model.json"] if cfg.sbs.enabled else ["model.json"]
    for name in candidates:
        path = os.path.join(cfg.out_dir, name)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(
        f"no trained model in {cfg.out_dir} (expected one of {candidates}); run `train` first"
    )


def cmd_prepare(cfg: RunConfig) -> int:
    """Validate the dataset files, report split statistics and keep the test split's levels."""
    _check_paths(cfg, ("train_images", "train_labels", "test_images", "test_labels"))
    _, test_labels = _test_levels(cfg)
    train_pool = dataset.load_idx(cfg.data.train_images, cfg.data.train_labels)
    train, val = dataset.split_train_val(train_pool, cfg.split)
    labels = {"train": train.labels, "val": val.labels, "test": test_labels}
    doc = {
        "counts": {part: len(y) for part, y in labels.items()},
        "label_histogram": {part: np.bincount(y, minlength=10).tolist()
                            for part, y in labels.items()},
        "feature_space": cfg.feature_space,
        "grid": {"row_indices": list(cfg.grid.row_indices),
                 "col_indices": list(cfg.grid.col_indices)},
        "metadata": {"config_hash": config_hash(cfg), "created": _now()},
    }
    _write_json(_out(cfg, "prepare.json"), doc)
    print(f"prepared: train={len(train)} val={len(val)} test={len(test_labels)}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    """Train the 45 pairwise classifiers without feature selection.

    Deletes the outputs of an earlier `select`, which the new model makes stale.
    """
    (train_x, train_y), (val_x, val_y) = _load_train_val_features(cfg)
    model = trainer.build_ovo(train_x, train_y, val_x, val_y, cfg.hyper, sbs=None)
    _write_json(_out(cfg, "model.json"),
                dict(trainer.model_to_dict(model), metadata={"config_hash": config_hash(cfg)}))
    for name in SELECT_ARTIFACTS:
        pathlib.Path(cfg.out_dir, name).unlink(missing_ok=True)
    pair_acc = trainer.per_pair_val_accuracy(model, val_x, val_y)
    val_acc, _, _ = trainer.evaluate_model(model, val_x, val_y)
    _write_json(_out(cfg, "train_report.json"), {
        "validation_accuracy": val_acc,
        "per_pair_validation_accuracy": {f"{a}-{b}": acc for (a, b), acc in pair_acc.items()},
        "feature_space": cfg.feature_space,
        "metadata": {"config_hash": config_hash(cfg), "created": _now()},
    })
    print(f"trained 45 classifiers ({cfg.feature_space} features); "
          f"validation accuracy {val_acc:.4f}")
    return 0


def cmd_select(cfg: RunConfig) -> int:
    """Backward feature selection per pair; writes the reduced model."""
    base_path = os.path.join(cfg.out_dir, "model.json")
    if not os.path.exists(base_path):
        raise FileNotFoundError(f"trained model not found: {base_path}; run `train` first")
    if cfg.feature_space != 64:
        raise ValueError("feature selection expects the 64-feature downsampled space")
    base_model = trainer.load_model(base_path)
    (train_x, train_y), (val_x, val_y) = _load_train_val_features(cfg)
    try:
        base_acc, _, _ = trainer.evaluate_model(base_model, val_x, val_y)
    except IndexError as e:
        raise ValueError(f"{base_path} does not fit the {cfg.feature_space}-feature space "
                         f"({e}); rerun `train`") from None
    model = trainer.build_ovo(train_x, train_y, val_x, val_y, cfg.hyper, sbs=cfg.sbs)
    _write_json(_out(cfg, "model_sbs.json"),
                dict(trainer.model_to_dict(model), metadata={"config_hash": config_hash(cfg)}))

    val_acc, _, _ = trainer.evaluate_model(model, val_x, val_y)
    mean_count = model.mean_feature_count()
    _write_json(_out(cfg, "sbs_report.json"), {
        "mean_selected_features": mean_count,
        "selected_features": {"%d-%d" % c.class_pair: len(c.feature_indices)
                              for c in model.classifiers},
        "validation_accuracy_full": base_acc,
        "validation_accuracy_selected": val_acc,
        "metadata": {"config_hash": config_hash(cfg), "created": _now()},
    })
    print(f"selected features: mean {mean_count:.1f} per classifier; "
          f"validation accuracy {base_acc:.4f} -> {val_acc:.4f}")
    return 0


def cmd_quantize(cfg: RunConfig) -> int:
    """Report how many devices the quantized model compiles to; writes nothing.

    `build` quantizes the weights itself, into the netlist.
    """
    sysc = _assemble(cfg)
    print(f"quantized model: {sysc.device_count} devices at {cfg.quant.bits}-bit resolution")
    return 0


# The array compiled from the model file's content, quantizer and feature
# space, and its netlist device lines, formatted on first use (by `build`).
# Which device sits where depends on nothing else, so each stage gets it with
# its own device and line parameters, sharing the one read-only L.
_compiled = trainer.LastParse()


def _compile(cfg: RunConfig):
    """The model file's array at cfg's parameters, and a memoized thunk of its device lines."""
    def parse(data):
        s = system.assemble(trainer.model_from_dict(json.loads(data)), cfg.quant,
                            n_features=cfg.feature_space)
        s.L.flags.writeable = False
        return s, functools.cache(lambda: system.device_lines(s))

    base, lines = _compiled.load([_model_path(cfg)], parse, cfg.quant, cfg.feature_space)
    return dataclasses.replace(base, params=cfg.device, timing=cfg.line), lines


def _assemble(cfg: RunConfig) -> system.SystemConfig:
    return _compile(cfg)[0]


def cmd_build(cfg: RunConfig) -> int:
    """Assemble the device array and emit the netlist."""
    sysc, lines = _compile(cfg)
    system.emit_netlist(sysc, _out(cfg, "netlist.txt"), lines())
    _write_json(_out(cfg, "system.json"), {
        "device_count": sysc.device_count,
        "area_um2": system.estimate_area(sysc),
        "throughput_hz": 1.0 / (cfg.line.t_precharge + cfg.line.t_classify),
        "metadata": {"config_hash": config_hash(cfg), "created": _now()},
    })
    print(f"built array: {sysc.device_count} devices, "
          f"{system.estimate_area(sysc):.3g} um^2, netlist written")
    return 0


def _evaluate(cfg: RunConfig, sysc: system.SystemConfig, test) -> system.MetricsReport:
    """Evaluate the configured mode on the first `subset` test digits; write its metrics."""
    mode = cfg.evaluate.mode
    X, levels, labels = _head(cfg.evaluate.subset, *test)
    report = system.evaluate(sysc, X, labels, mode=mode, levels=levels)
    _write_json(_out(cfg, f"metrics_{mode}.json"), dict(
        report.to_dict(), metadata={"config_hash": config_hash(cfg), "created": _now()}))
    return report


def _trace_rows(i: int, pairs, times, voltages) -> str:
    """One digit's traces.csv rows, as csv.writer writes them (no quoting, \\r\\n ends).

    times is the formatted time axis that every line shares, voltages the
    digit's (n_steps + 1, lines) record; `%.6f` of a float is `f"{v:.6f}"`.
    """
    rows = []
    for (a, b), v in zip(pairs, voltages.T.tolist()):
        rows += map(f"{i},{a}-{b},%s,%.6f\r\n".__mod__, zip(times, v))
    return "".join(rows)


def cmd_simulate(cfg: RunConfig) -> int:
    """Per-digit vote records (and transient traces in analog mode) + metrics."""
    sysc = _assemble(cfg)
    test = _test_inputs(cfg)
    test_x, test_levels, test_y = test
    mode = cfg.evaluate.mode
    n_trace = min(cfg.evaluate.trace_digits, len(test_y))

    records = []
    if mode == "analog":
        if n_trace:  # one traced call for every trace digit, and their shared time axis
            res = simulate_batch(sysc, levels=test_levels[:n_trace], record_traces=True)
            t = np.arange(sysc.timing.n_steps + 1) * sysc.timing.dt
            times = [f"{v:.3e}" for v in t.tolist()]
        with open(_out(cfg, "traces.csv"), "w", newline="") as tf:
            tf.write(f"# config_hash={config_hash(cfg)}\n")
            csv.writer(tf).writerow(["digit_index", "pair", "t_seconds", "v_sen"])
            for i in range(n_trace):
                records.append({"index": i, "true_label": int(test_y[i]),
                                "predicted": int(res.predictions[i]),
                                "tally": res.tallies[i].tolist(), "votes": res.votes[i].tolist(),
                                "energy_j": float(res.energies[i])})
                tf.write(_trace_rows(i, sysc.pairs, times, res.line_traces[:, i]))
    else:
        # An earlier analog run's traces would not match these records.
        pathlib.Path(cfg.out_dir, "traces.csv").unlink(missing_ok=True)
        X, levels = _head(n_trace, test_x, test_levels)
        votes = system.digital_votes(sysc, X, mode, levels=levels)
        tallies, preds = tally_votes(sysc.pairs, votes)
        for i in range(n_trace):
            rec = {"index": i, "true_label": int(test_y[i]), "predicted": int(preds[i]),
                   "tally": tallies[i].tolist(), "energy_j": None}
            if mode == "digital-quantized":  # float-model records carry no line votes
                rec["votes"] = votes[i].tolist()
            records.append(rec)
    _write_json(_out(cfg, "digit_records.json"), {
        "mode": mode,
        "digits": records,
        "metadata": {"config_hash": config_hash(cfg), "created": _now()},
    })

    report = _evaluate(cfg, sysc, test)
    print(f"simulate [{mode}]: {n_trace} vote records; accuracy {report.accuracy:.4f} "
          f"over {report.n_evaluated} digits")
    if report.energy_per_decision is not None:
        print(f"  energy/decision {report.energy_per_decision:.3e} J "
              f"({report.energy_scope})")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    """Metrics JSON for the configured mode."""
    sysc = _assemble(cfg)
    report = _evaluate(cfg, sysc, _test_inputs(cfg))
    print(f"evaluate [{cfg.evaluate.mode}]: accuracy {report.accuracy:.4f} "
          f"over {report.n_evaluated} digits")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    """Consolidate existing artifacts into one report."""
    doc = {"metadata": {"config_hash": config_hash(cfg), "created": _now()}}
    for name in ("system.json", "sbs_report.json", "train_report.json"):
        path = os.path.join(cfg.out_dir, name)
        if os.path.exists(path):
            with open(path) as f:
                section = json.load(f)
            section.pop("metadata", None)
            doc[name.removesuffix(".json")] = section
    metrics = {}
    for mode in system.EVAL_MODES:
        path = os.path.join(cfg.out_dir, f"metrics_{mode}.json")
        if os.path.exists(path):
            with open(path) as f:
                m = json.load(f)
            m.pop("confusion", None)
            m.pop("metadata", None)
            metrics[mode] = m
    doc["metrics"] = metrics
    _write_json(_out(cfg, "report.json"), doc)
    print("system summary")
    if "system" in doc:
        print(f"  devices: {doc['system']['device_count']}   "
              f"area: {doc['system']['area_um2']:.3g} um^2   "
              f"throughput: {doc['system']['throughput_hz']:.3g} Hz")
    for mode, m in metrics.items():
        line = f"  {mode}: accuracy {m['accuracy']:.4f} (n={m['n_evaluated']})"
        if m.get("energy_per_decision_j") is not None:
            line += (f", energy {m['energy_per_decision_j']:.3e} J, "
                     f"current {m['total_current_per_decision_As']:.3e} A*s")
        print(line)
        if m.get("energy_per_decision_j") is not None:
            print(f"    scope: {m['energy_scope']}")
    return 0


def cmd_run_all(cfg: RunConfig) -> int:
    """prepare -> train -> select -> build -> simulate -> report.

    `build` quantizes the weights into the netlist, and `simulate` already
    writes the mode's metrics, so the standalone
    `quantize` and `evaluate` stages are not repeated here.
    """
    if cfg.sbs.enabled and cfg.feature_space != 64:
        raise ValueError(f"feature_space {cfg.feature_space} with sbs.enabled: feature selection "
                         "expects the 64-feature downsampled space; pass --no-sbs")
    for fn in (cmd_prepare, cmd_train):
        fn(cfg)
    if cfg.sbs.enabled:
        cmd_select(cfg)
    for fn in (cmd_build, cmd_simulate, cmd_report):
        fn(cfg)
    return 0


_COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "select": cmd_select,
    "quantize": cmd_quantize,
    "build": cmd_build,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
    "run-all": cmd_run_all,
}


def _apply_overrides(doc: dict, args) -> dict:
    """The document with the flags set; a non-object doc or section is left to config_from_dict."""
    if not isinstance(doc, dict):
        return doc
    flags = {"out_dir": args.out_dir, "seed": args.seed, "feature_space": args.feature_space,
             "evaluate.mode": args.mode, "evaluate.subset": args.subset,
             "sbs.enabled": False if args.no_sbs else None}
    for key, value in flags.items():
        if value is None:
            continue
        section, _, name = key.rpartition(".")
        target = doc.setdefault(section, {}) if section else doc
        if isinstance(target, dict):
            target[name] = value
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="senseline",
        description="Train, quantize, and transient-simulate the single-sensing-line classifier.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("-c", "--config", help="JSON config file (defaults apply without one)")
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mode", choices=system.EVAL_MODES, default=None)
    parser.add_argument("--subset", type=int, default=None)
    parser.add_argument("--feature-space", type=int, choices=(64, 784), default=None)
    parser.add_argument("--no-sbs", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as f:
                doc = json.load(f)
        else:
            doc = {}
        cfg = config_from_dict(_apply_overrides(doc, args))
    except (OSError, ValueError, TypeError) as e:  # json.JSONDecodeError is a ValueError
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _COMMANDS[args.command](cfg)
    except (FileNotFoundError, IdxFormatError, CountMismatchError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as e:
        print(f"compute error: {e}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
