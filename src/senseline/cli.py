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
import json
import os
import pathlib
import sys

import numpy as np

from . import dataset, system, trainer
from .config import RunConfig, config_from_dict, config_hash
from .dataset import CountMismatchError, IdxFormatError
from .line_sim import simulate_digit
from .trainer import TrainingDivergedError, tally_votes

EXIT_DATA = 2
EXIT_COMPUTE = 3
EXIT_CONFIG = 4


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _write_json(path, doc: dict):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def _check_paths(cfg: RunConfig, keys):
    paths = dataclasses.asdict(cfg.data)
    for key in keys:
        if not os.path.exists(paths[key]):
            raise FileNotFoundError(f"data file for '{key}' not found: {paths[key]}")


def _load_splits(cfg: RunConfig) -> dataset.DataSplits:
    _check_paths(cfg, ("train_images", "train_labels", "test_images", "test_labels"))
    train_pool = dataset.load_idx(cfg.data.train_images, cfg.data.train_labels)
    test_pool = dataset.load_idx(cfg.data.test_images, cfg.data.test_labels)
    return dataset.split(train_pool, test_pool, cfg.split)


def _features_of(cfg: RunConfig, s: dataset.LabeledImageSet):
    X = dataset.normalize(s)
    if cfg.feature_space == 64:
        X = dataset.downsample(X, cfg.grid)
    return X, s.labels.astype(int)


def _load_train_val_features(cfg: RunConfig):
    """Features of the train and val splits; the test pool is not read."""
    _check_paths(cfg, ("train_images", "train_labels"))
    train_pool = dataset.load_idx(cfg.data.train_images, cfg.data.train_labels)
    return tuple(_features_of(cfg, s) for s in dataset.split_train_val(train_pool, cfg.split))


def _load_test_features(cfg: RunConfig):
    """Features of the test split alone; the training pool is not read."""
    _check_paths(cfg, ("test_images", "test_labels"))
    test_pool = dataset.load_idx(cfg.data.test_images, cfg.data.test_labels)
    return _features_of(cfg, dataset.select_test(test_pool, cfg.split))


# What `select` writes from model.json; `train` deletes them as stale.
SELECT_ARTIFACTS = ("model_sbs.json", "sbs_report.json", "feature_counts.csv")


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
    """Validate the dataset files and report split statistics."""
    splits = _load_splits(cfg)
    doc = {
        "counts": {"train": len(splits.train), "val": len(splits.val), "test": len(splits.test)},
        "label_histogram": {
            part: np.bincount(getattr(splits, part).labels, minlength=10).tolist()
            for part in ("train", "val", "test")
        },
        "feature_space": cfg.feature_space,
        "grid": {"row_indices": list(cfg.grid.row_indices),
                 "col_indices": list(cfg.grid.col_indices)},
        "metadata": {"config_hash": config_hash(cfg), "created": _now()},
    }
    _write_json(_out(cfg, "prepare.json"), doc)
    print(f"prepared: train={len(splits.train)} val={len(splits.val)} test={len(splits.test)}")
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
    model = trainer.build_ovo(train_x, train_y, val_x, val_y, cfg.hyper, sbs=cfg.sbs)
    _write_json(_out(cfg, "model_sbs.json"),
                dict(trainer.model_to_dict(model), metadata={"config_hash": config_hash(cfg)}))

    counts = {c.class_pair: len(c.feature_indices) for c in model.classifiers}
    with open(_out(cfg, "feature_counts.csv"), "w", newline="") as f:
        f.write(f"# config_hash={config_hash(cfg)}\n")
        writer = csv.writer(f)
        writer.writerow(["digit_a", "digit_b", "selected_features"])
        for (a, b), n in counts.items():
            writer.writerow([a, b, n])
    base_acc, _, _ = trainer.evaluate_model(base_model, val_x, val_y)
    val_acc, _, _ = trainer.evaluate_model(model, val_x, val_y)
    mean_count = model.mean_feature_count()
    _write_json(_out(cfg, "sbs_report.json"), {
        "mean_selected_features": mean_count,
        "selected_features": {f"{a}-{b}": n for (a, b), n in counts.items()},
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


def _assemble(cfg: RunConfig) -> system.SystemConfig:
    model = trainer.load_model(_model_path(cfg))
    return system.assemble(model, cfg.quant, cfg.device, cfg.line,
                           n_features=cfg.feature_space)


def cmd_build(cfg: RunConfig) -> int:
    """Assemble the device array and emit the netlist."""
    sysc = _assemble(cfg)
    system.emit_netlist(sysc, _out(cfg, "netlist.txt"))
    _write_json(_out(cfg, "system.json"), {
        "device_count": sysc.device_count,
        "area_um2": system.estimate_area(sysc),
        "throughput_hz": 1.0 / (cfg.line.t_precharge + cfg.line.t_classify),
        "metadata": {"config_hash": config_hash(cfg), "created": _now()},
    })
    print(f"built array: {sysc.device_count} devices, "
          f"{system.estimate_area(sysc):.3g} um^2, netlist written")
    return 0


def _evaluate(cfg: RunConfig, sysc: system.SystemConfig, test_x, test_y) -> system.MetricsReport:
    """Evaluate the configured mode on the first `subset` test digits; write its metrics."""
    mode = cfg.evaluate.mode
    n = cfg.evaluate.subset
    report = system.evaluate(sysc, test_x[:n], test_y[:n], mode=mode)
    _write_json(_out(cfg, f"metrics_{mode}.json"), dict(
        report.to_dict(), metadata={"config_hash": config_hash(cfg), "created": _now()}))
    system.save_confusion_csv(report.confusion, _out(cfg, f"confusion_{mode}.csv"),
                              header=f"config_hash={config_hash(cfg)}")
    return report


def cmd_simulate(cfg: RunConfig) -> int:
    """Per-digit vote records (and transient traces in analog mode) + metrics."""
    sysc = _assemble(cfg)
    test_x, test_y = _load_test_features(cfg)
    mode = cfg.evaluate.mode
    n_trace = min(cfg.evaluate.trace_digits, len(test_x))

    records = []
    with open(_out(cfg, "votes.csv"), "w", newline="") as f:
        f.write(f"# config_hash={config_hash(cfg)}\n")
        writer = csv.writer(f)
        writer.writerow(["digit_index", "true_label", "predicted"]
                        + [f"votes_class_{k}" for k in range(10)])
        if mode == "analog":
            system.check_euler_stability(sysc)
            trace_rows = []
            for i in range(n_trace):
                rec = simulate_digit(sysc, test_x[i], record_traces=True)
                writer.writerow([i, int(test_y[i]), rec.predicted] + rec.tally.tolist())
                records.append({"index": i, "true_label": int(test_y[i]),
                                "predicted": rec.predicted, "tally": rec.tally.tolist(),
                                "votes": rec.votes.tolist(), "energy_j": rec.energy})
                for (a, b), tr in zip(sysc.pairs, rec.line_traces):
                    trace_rows += [[i, f"{a}-{b}", f"{t:.3e}", f"{v:.6f}"] for t, v in tr]
            with open(_out(cfg, "traces.csv"), "w", newline="") as tf:
                tf.write(f"# config_hash={config_hash(cfg)}\n")
                tw = csv.writer(tf)
                tw.writerow(["digit_index", "pair", "t_seconds", "v_sen"])
                tw.writerows(trace_rows)
        else:
            votes = system.digital_votes(sysc, test_x[:n_trace], mode)
            tallies, preds = tally_votes(sysc.pairs, votes)
            for i in range(n_trace):
                writer.writerow([i, int(test_y[i]), int(preds[i])] + tallies[i].tolist())
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

    report = _evaluate(cfg, sysc, test_x, test_y)
    print(f"simulate [{mode}]: {n_trace} vote records; accuracy {report.accuracy:.4f} "
          f"over {report.n_evaluated} digits")
    if report.energy_per_decision is not None:
        print(f"  energy/decision {report.energy_per_decision:.3e} J "
              f"({report.energy_scope})")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    """Metrics JSON + confusion CSV for the configured mode."""
    sysc = _assemble(cfg)
    test_x, test_y = _load_test_features(cfg)
    report = _evaluate(cfg, sysc, test_x, test_y)
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
    writes the mode's metrics and confusion matrix, so the standalone
    `quantize` and `evaluate` stages are not repeated here.
    """
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
    if args.out_dir is not None:
        doc["out_dir"] = args.out_dir
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.mode is not None:
        doc.setdefault("evaluate", {})["mode"] = args.mode
    if args.subset is not None:
        doc.setdefault("evaluate", {})["subset"] = args.subset
    if args.feature_space is not None:
        doc["feature_space"] = args.feature_space
    if args.no_sbs:
        doc.setdefault("sbs", {})["enabled"] = False
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
    except (FileNotFoundError, json.JSONDecodeError, ValueError, TypeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _COMMANDS[args.command](cfg)
    except (FileNotFoundError, IdxFormatError, CountMismatchError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, FloatingPointError) as e:
        print(f"compute error: {e}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
