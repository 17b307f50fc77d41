import csv
import json
import os

import numpy as np
import pytest

from senseline import cli
from senseline.config import config_from_dict


def run(args, **kw):
    return cli.main([str(a) for a in args], **kw)


@pytest.fixture()
def workdir(idx_dir, tmp_path):
    """Config pointing at the small on-disk synthetic corpus."""
    cfg = {
        "data": {
            "train_images": str(idx_dir["train"][0]),
            "train_labels": str(idx_dir["train"][1]),
            "test_images": str(idx_dir["test"][0]),
            "test_labels": str(idx_dir["test"][1]),
        },
        "split": {"train_count": 400, "val_count": 100, "test_count": 100},
        "hyper": {"max_epochs": 120},
        "sbs": {"candidate_epochs": 8, "full_epochs": 30, "candidate_rows": 200},
        "evaluate": {"subset": 60, "trace_digits": 3},
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return {"config": cfg_path, "doc": cfg, "tmp": tmp_path}


def read_csv_rows(path):
    with open(path) as f:
        rows = [r for r in csv.reader(line for line in f if not line.startswith("#"))]
    return rows[0], rows[1:]


class TestPrepareAndTrain:
    def test_prepare_writes_summary(self, workdir):
        assert run(["prepare", "-c", workdir["config"]]) == 0
        doc = json.loads((workdir["tmp"] / "out" / "prepare.json").read_text())
        assert doc["counts"] == {"train": 400, "val": 100, "test": 100}
        assert "config_hash" in doc["metadata"]

    def test_train_writes_45_classifiers(self, workdir):
        assert run(["train", "-c", workdir["config"]]) == 0
        model = json.loads((workdir["tmp"] / "out" / "model.json").read_text())
        assert len(model["classifiers"]) == 45
        report = json.loads((workdir["tmp"] / "out" / "train_report.json").read_text())
        assert len(report["per_pair_validation_accuracy"]) == 45

    def test_rerun_byte_identical_model(self, workdir):
        run(["train", "-c", workdir["config"]])
        first = (workdir["tmp"] / "out" / "model.json").read_bytes()
        run(["train", "-c", workdir["config"], "--out-dir", workdir["tmp"] / "out2"])
        second = (workdir["tmp"] / "out2" / "model.json").read_bytes()
        assert first == second

    def test_different_seed_changes_model(self, workdir):
        run(["train", "-c", workdir["config"]])
        first = (workdir["tmp"] / "out" / "model.json").read_bytes()
        run(["train", "-c", workdir["config"], "--seed", 7,
             "--out-dir", workdir["tmp"] / "out3"])
        assert first != (workdir["tmp"] / "out3" / "model.json").read_bytes()

    def test_missing_data_path_names_it(self, workdir, capsys):
        doc = dict(workdir["doc"])
        doc["data"] = dict(doc["data"], train_images="/nonexistent/mnist-images")
        bad = workdir["tmp"] / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["train", "-c", bad]) == cli.EXIT_DATA
        assert "/nonexistent/mnist-images" in capsys.readouterr().err

    def test_truncated_gzip_exits_2(self, workdir, capsys):
        path = workdir["doc"]["data"]["test_images"]
        with open(path, "rb") as f:
            raw = f.read()
        with open(path, "wb") as f:
            f.write(raw[:len(raw) // 2])
        assert run(["prepare", "-c", workdir["config"]]) == cli.EXIT_DATA
        assert "corrupt gzip stream" in capsys.readouterr().err


class TestSelect:
    def test_select_requires_model(self, workdir):
        assert run(["select", "-c", workdir["config"]]) == cli.EXIT_DATA

    def test_select_disabled_keeps_all_features(self, workdir, capsys):
        run(["train", "-c", workdir["config"]])
        assert run(["select", "-c", workdir["config"], "--no-sbs"]) == 0
        _, rows = read_csv_rows(workdir["tmp"] / "out" / "feature_counts.csv")
        assert len(rows) == 45
        assert all(int(r[2]) == 64 for r in rows)
        assert "mean 64.0" in capsys.readouterr().out

    def test_train_and_select_read_only_the_training_pool(self, workdir):
        for key in ("test_images", "test_labels"):
            os.remove(workdir["doc"]["data"][key])
        assert run(["train", "-c", workdir["config"]]) == 0
        assert run(["select", "-c", workdir["config"]]) == 0

    def test_select_reduces_features(self, workdir):
        run(["train", "-c", workdir["config"]])
        assert run(["select", "-c", workdir["config"]]) == 0
        report = json.loads((workdir["tmp"] / "out" / "sbs_report.json").read_text())
        assert len(report["selected_features"]) == 45
        assert report["mean_selected_features"] < 64


class TestPipelineArtifacts:
    @pytest.fixture()
    def trained(self, workdir):
        run(["train", "-c", workdir["config"]])
        run(["build", "-c", workdir["config"]])
        return workdir

    def test_quantize_and_build(self, trained, capsys):
        out = trained["tmp"] / "out"
        before = sorted(out.iterdir())
        assert run(["quantize", "-c", trained["config"]]) == 0
        assert sorted(out.iterdir()) == before  # quantize only reports
        sysdoc = json.loads((out / "system.json").read_text())
        netlist = (out / "netlist.txt").read_text()
        dev_lines = [l for l in netlist.splitlines() if l.startswith("D")]
        assert sysdoc["device_count"] == len(dev_lines)
        assert f"quantized model: {len(dev_lines)} devices" in capsys.readouterr().out

    def test_simulate_digital_mode_no_traces(self, trained):
        assert run(["simulate", "-c", trained["config"], "--mode", "digital-float"]) == 0
        out = trained["tmp"] / "out"
        header, rows = read_csv_rows(out / "votes.csv")
        assert len(rows) == 3
        for r in rows:
            assert sum(int(v) for v in r[3:]) == 45
        assert not (out / "traces.csv").exists()
        assert (out / "metrics_digital-float.json").exists()

    def test_simulate_analog_traces_and_metrics(self, trained):
        assert run(["simulate", "-c", trained["config"], "--mode", "analog"]) == 0
        out = trained["tmp"] / "out"
        metrics = json.loads((out / "metrics_analog.json").read_text())
        assert metrics["n_evaluated"] == 60
        assert metrics["energy_per_decision_j"] > 0
        assert metrics["total_current_per_decision_As"] == \
            metrics["energy_per_decision_j"] / 3.0
        header, rows = read_csv_rows(out / "traces.csv")
        assert header == ["digit_index", "pair", "t_seconds", "v_sen"]
        # 3 digits x 45 lines x 201 sampled points
        assert len(rows) == 3 * 45 * 201
        v = np.array([float(r[3]) for r in rows])
        assert v.min() >= 0.0 and v.max() <= 3.0

    def test_evaluate_confusion_csv(self, trained):
        assert run(["evaluate", "-c", trained["config"]]) == 0
        out = trained["tmp"] / "out"
        confusion = np.loadtxt(out / "confusion_digital-quantized.csv", delimiter=",")
        assert confusion.shape == (10, 10)
        assert confusion.sum() == 60

    def test_simulate_and_evaluate_read_only_the_test_pool(self, trained):
        for key in ("train_images", "train_labels"):
            os.remove(trained["doc"]["data"][key])
        assert run(["simulate", "-c", trained["config"]]) == 0
        assert run(["evaluate", "-c", trained["config"]]) == 0

    def test_unstable_analog_line_exits_4(self, trained, capsys):
        doc = dict(trained["doc"], line={"c_line": 1e-16})
        bad = trained["tmp"] / "unstable.json"
        bad.write_text(json.dumps(doc))
        assert run(["simulate", "-c", bad, "--mode", "analog"]) == cli.EXIT_CONFIG
        assert "Euler" in capsys.readouterr().err
        assert run(["evaluate", "-c", bad]) == 0

    def test_full_resolution_array_digital_evaluation(self, workdir):
        args = ["-c", workdir["config"], "--feature-space", 784]
        assert run(["train"] + args) == 0
        assert run(["build"] + args) == 0
        assert run(["evaluate"] + args) == 0

    def test_unstable_full_resolution_analog_rejected_before_training(self, workdir, capsys):
        # 1 - dt * i_on * 784 / (c_line * v_dsat) = -6.84 at the default line and device.
        assert run(["run-all", "-c", workdir["config"], "--feature-space", 784,
                    "--mode", "analog"]) == cli.EXIT_CONFIG
        assert "unstable Euler step" in capsys.readouterr().err
        assert not (workdir["tmp"] / "out" / "model.json").exists()

    def test_report_consolidates(self, trained, capsys):
        run(["evaluate", "-c", trained["config"]])
        assert run(["report", "-c", trained["config"]]) == 0
        doc = json.loads((trained["tmp"] / "out" / "report.json").read_text())
        assert "digital-quantized" in doc["metrics"]
        assert "system" in doc


class TestRunAll:
    def test_run_all_with_sbs(self, workdir):
        assert run(["run-all", "-c", workdir["config"]]) == 0
        out = workdir["tmp"] / "out"
        for name in ("prepare.json", "model.json", "model_sbs.json",
                     "netlist.txt", "system.json", "votes.csv", "report.json"):
            assert (out / name).exists(), name
        assert not (out / "model_quant.json").exists()

    def test_run_all_writes_mode_metrics_once(self, workdir, monkeypatch):
        evaluated = []
        monkeypatch.setattr(cli, "cmd_evaluate", lambda cfg: evaluated.append(cfg))
        assert run(["run-all", "-c", workdir["config"], "--no-sbs", "--mode", "analog"]) == 0
        assert evaluated == []
        out = workdir["tmp"] / "out"
        metrics = json.loads((out / "metrics_analog.json").read_text())
        assert metrics["n_evaluated"] == 60
        confusion = np.loadtxt(out / "confusion_analog.csv", delimiter=",")
        assert confusion.sum() == 60
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["analog"]["accuracy"] == metrics["accuracy"]

    def test_outputs_embed_config_hash(self, workdir):
        run(["run-all", "-c", workdir["config"], "--no-sbs"])
        out = workdir["tmp"] / "out"
        from senseline.config import config_hash
        doc = dict(workdir["doc"])
        doc.setdefault("sbs", {})["enabled"] = False
        h = config_hash(config_from_dict(doc))
        for name in ("model.json", "system.json", "metrics_digital-quantized.json"):
            assert json.loads((out / name).read_text())["metadata"]["config_hash"] == h
        assert f"# config_hash={h}" in (out / "votes.csv").read_text()


class TestConfigErrors:
    def test_unknown_key_rejected(self, workdir, capsys):
        bad = workdir["tmp"] / "bad2.json"
        bad.write_text(json.dumps({"unknown_section": 1}))
        assert run(["prepare", "-c", bad]) == cli.EXIT_CONFIG
        assert "unknown" in capsys.readouterr().err

    def test_negative_subset_rejected(self, workdir, capsys):
        assert run(["evaluate", "-c", workdir["config"], "--subset", -5]) == cli.EXIT_CONFIG
        assert "subset" in capsys.readouterr().err

    @pytest.mark.parametrize("evaluate", [{"mode": "bogus"}, {"subset": 0}, {"subset": 2.5},
                                          {"trace_digits": -1}])
    def test_invalid_evaluate_section_rejected(self, evaluate):
        with pytest.raises(ValueError, match="evaluate"):
            config_from_dict({"evaluate": evaluate})

    @pytest.mark.parametrize("doc", [
        {"device": {"i_on": float("inf")}},
        {"device": {"v_dsat": float("nan")}},
        {"device": {"n_window": [1.76, float("inf")]}},
        {"line": {"c_line": float("inf")}},
        {"line": {"t_precharge": 0.0}},
        {"line": {"dt": -1e-12}},
        {"line": {"dt": 1e-9}},          # t_classify / dt = 2 < 10
        {"line": {"dt": 3e-12}},         # t_classify / dt = 666.67 steps
    ])
    def test_invalid_device_or_line_section_exits_4(self, workdir, doc, capsys):
        bad = workdir["tmp"] / "bad_section.json"
        bad.write_text(json.dumps(doc))  # non-finite floats as JSON Infinity / NaN
        assert run(["prepare", "-c", bad]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert run(["prepare", "-c", "/nonexistent/config.json"]) == cli.EXIT_CONFIG
