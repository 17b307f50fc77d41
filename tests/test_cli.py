import csv
import dataclasses
import importlib.util
import io
import json
import os
import pathlib
import pkgutil
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import senseline
from conftest import PROCESS_CACHES, clear_process_caches
from outdiff import out_dir_diff
from senseline import cli, dataset, system, trainer
from senseline.config import config_from_dict, config_hash
from senseline.line_sim import LineTiming, simulate_batch
from senseline.quantizer import QuantSpec, quantize_unit


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

    def test_data_path_naming_a_directory_exits_2(self, workdir, capsys):
        # Was an IsADirectoryError traceback from reading the directory.
        doc = dict(workdir["doc"])
        doc["data"] = dict(doc["data"], test_labels=str(workdir["tmp"]))
        bad = workdir["tmp"] / "dir_data.json"
        bad.write_text(json.dumps(doc))
        assert run(["prepare", "-c", bad]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "test_labels" in err and "not a regular file" in err

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
        report = json.loads((workdir["tmp"] / "out" / "sbs_report.json").read_text())
        assert len(report["selected_features"]) == 45
        assert set(report["selected_features"].values()) == {64}
        assert "mean 64.0" in capsys.readouterr().out

    def test_train_and_select_read_only_the_training_pool(self, workdir):
        for key in ("test_images", "test_labels"):
            os.remove(workdir["doc"]["data"][key])
        assert run(["train", "-c", workdir["config"]]) == 0
        assert run(["select", "-c", workdir["config"]]) == 0

    def test_select_after_full_resolution_train_exits_4(self, workdir, monkeypatch, capsys):
        # The 784-feature model is rejected before any pair is selected.
        assert run(["train", "-c", workdir["config"], "--feature-space", 784]) == 0
        monkeypatch.setattr(trainer, "build_ovo", lambda *a, **kw: pytest.fail("selection ran"))
        assert run(["select", "-c", workdir["config"]]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "64-feature space" in err and "rerun `train`" in err
        assert not (workdir["tmp"] / "out" / "model_sbs.json").exists()

    @pytest.mark.parametrize("val_count", [0, 3])
    def test_pair_without_validation_rows_exits_4_before_training(self, workdir, monkeypatch,
                                                                  capsys, val_count):
        # 3 validation rows leave most pairs none: `train` wrote NaN accuracies
        # and `select` eliminated on them; 0 rows failed inside numpy.
        assert run(["train", "-c", workdir["config"]]) == 0
        doc = dict(workdir["doc"], split=dict(workdir["doc"]["split"], val_count=val_count))
        path = workdir["tmp"] / "few_val.json"
        path.write_text(json.dumps(doc))
        out = workdir["tmp"] / "out"
        before = {name: (out / name).read_bytes() for name in ("model.json", "train_report.json")}
        for name in ("_gd_masked", "_train_pairs"):
            monkeypatch.setattr(trainer, name, lambda *a, **kw: pytest.fail("training ran"))
        for stage in ("train", "select"):
            assert run([stage, "-c", path]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert re.search(r"pair \(\d, \d\) has no validation rows; raise "
                             rf"split.val_count \(now {val_count}\)", err), err
        assert {name: (out / name).read_bytes() for name in before} == before
        assert not (out / "model_sbs.json").exists()

    def test_candidate_rows_of_one_digit_exit_4_before_selection(self, workdir, monkeypatch,
                                                                 capsys):
        # One candidate row holds one digit: `select` eliminated on it and exited 0
        # with ~1 feature a pair. The error names the first such pair and the key.
        assert run(["train", "-c", workdir["config"]]) == 0
        doc = dict(workdir["doc"], sbs=dict(workdir["doc"]["sbs"], candidate_rows=1))
        path = workdir["tmp"] / "one_row.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(trainer, "_gd_masked", lambda *a, **kw: pytest.fail("selection ran"))
        assert run(["select", "-c", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.search(r"pair \(0, 1\): its first 1 training rows hold one digit; raise "
                         r"sbs.candidate_rows \(now 1\)", err), err
        assert "empty" not in err
        assert not (workdir["tmp"] / "out" / "model_sbs.json").exists()

    @pytest.mark.parametrize("hyper,codes,message", [
        # Elimination's step lr/n overflows float32: `select` warned "overflow
        # encountered in cast" before naming the pair.
        ({"learning_rate": 1e42, "max_epochs": 1}, [0, cli.EXIT_COMPUTE], "weights became"),
        # The weights are finite but their loss is not: `train` warned from the check.
        ({"learning_rate": 1e300, "l2_lambda": 0, "max_epochs": 1}, [cli.EXIT_COMPUTE],
         "final loss is non-finite"),
    ], ids=["select", "train"])
    def test_overflowing_learning_rate_exits_3_without_warnings(self, workdir, capsys, hyper,
                                                                codes, message):
        path = workdir["tmp"] / "overflow.json"
        path.write_text(json.dumps(dict(workdir["doc"], hyper=hyper)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [run([stage, "-c", path]) for stage in ("train", "select")[:len(codes)]]
        assert got == codes
        assert message in capsys.readouterr().err

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
        digits = json.loads((out / "digit_records.json").read_text())["digits"]
        assert len(digits) == 3
        for d in digits:
            assert sum(d["tally"]) == 45
        assert not (out / "traces.csv").exists()
        assert (out / "metrics_digital-float.json").exists()

    @pytest.mark.parametrize("mode", ["digital-quantized", "digital-float"])
    def test_digital_simulate_deletes_analog_traces(self, trained, mode):
        # The analog run's traces would otherwise sit next to records of
        # another mode and config.
        out = trained["tmp"] / "out"
        assert run(["simulate", "-c", trained["config"], "--mode", "analog"]) == 0
        assert (out / "traces.csv").exists()
        assert run(["simulate", "-c", trained["config"], "--mode", mode]) == 0
        assert json.loads((out / "digit_records.json").read_text())["mode"] == mode
        assert not (out / "traces.csv").exists()

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

    def test_evaluate_writes_confusion(self, trained):
        assert run(["evaluate", "-c", trained["config"]]) == 0
        out = trained["tmp"] / "out"
        metrics = json.loads((out / "metrics_digital-quantized.json").read_text())
        confusion = np.array(metrics["confusion"])
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


def csv_writer_traces(h, pairs, digit_traces: dict) -> bytes:
    """traces.csv as csv.writer writes it row by row, from {digit index: line traces}."""
    with io.StringIO(newline="") as f:
        f.write(f"# config_hash={h}\n")
        writer = csv.writer(f)
        writer.writerow(["digit_index", "pair", "t_seconds", "v_sen"])
        for i, line_traces in digit_traces.items():
            for (a, b), tr in zip(pairs, line_traces):
                writer.writerows([i, f"{a}-{b}", f"{t:.3e}", f"{v:.6f}"] for t, v in tr)
        return f.getvalue().encode()


class TestTraceBytes:
    def test_traces_csv_equals_csv_writer_output(self, workdir):
        assert run(["run-all", "-c", workdir["config"], "--no-sbs", "--mode", "analog"]) == 0
        doc = json.loads(json.dumps(workdir["doc"]))
        doc["evaluate"]["mode"] = "analog"
        doc["sbs"]["enabled"] = False
        cfg = config_from_dict(doc)
        sysc = cli._assemble(cfg)
        test_x, _ = cli._load_test_features(cfg)
        n = cfg.evaluate.trace_digits
        assert n >= 2
        t = np.arange(cfg.line.n_steps + 1) * cfg.line.dt
        traces = [[np.column_stack([t, v]) for v in
                   simulate_batch(sysc, x[None, :], record_traces=True).line_traces[:, 0].T]
                  for x in test_x[:n]]
        expected = csv_writer_traces(config_hash(cfg), sysc.pairs, dict(enumerate(traces)))
        assert (workdir["tmp"] / "out" / "traces.csv").read_bytes() == expected

    def test_line_reaching_both_rails(self):
        t = np.arange(9) * 1e-11
        v = np.array([1.5, 3.0, 2.9999996, 3.0000004, 0.0, -0.0, 4e-7, -4e-7, 1.5000005])
        line_traces = [np.column_stack([t, v]), np.column_stack([t, v[::-1]])]
        pairs = [(0, 1), (8, 9)]
        times = [f"{x:.3e}" for x in t]
        rows = cli._trace_rows(7, pairs, times, np.column_stack([v, v[::-1]])).encode()
        header = b"# config_hash=h\ndigit_index,pair,t_seconds,v_sen\r\n"
        assert header + rows == csv_writer_traces("h", pairs, {7: line_traces})
        assert rows.count(b"\r\n") == 18
        assert b"7,0-1,1.000e-11,3.000000\r\n" in rows and b"7,0-1,4.000e-11,0.000000\r\n" in rows


class TestDecodeCount:
    @pytest.fixture()
    def decodes(self, monkeypatch):
        """Paths of every IDX file decoded, with every process cache cleared."""
        calls, decode = [], dataset._decode_idx
        clear_process_caches(monkeypatch)
        monkeypatch.setattr(dataset, "_decode_idx",
                            lambda path, *a: calls.append(str(path)) or decode(path, *a))
        return calls

    @pytest.mark.parametrize("flags", [[], ["--no-sbs"]])
    def test_run_all_decodes_two_idx_pairs(self, workdir, decodes, flags):
        # prepare decodes the test pool into feature levels that simulate reuses.
        assert run(["run-all", "-c", workdir["config"]] + flags) == 0
        assert len(decodes) == 4

    @pytest.mark.parametrize("mode", ["analog", "digital-quantized", "digital-float"])
    def test_only_digital_float_decodes_the_test_pool_after_prepare(self, workdir, decodes,
                                                                     mode):
        for stage in ("prepare", "train", "build"):
            assert run([stage, "-c", workdir["config"], "--no-sbs"]) == 0
        del decodes[:]
        for stage in ("simulate", "evaluate"):
            assert run([stage, "-c", workdir["config"], "--no-sbs", "--mode", mode]) == 0
        data = workdir["doc"]["data"]
        test_paths = [data["test_images"], data["test_labels"]]
        assert decodes == (test_paths if mode == "digital-float" else [])

    def test_train_reuses_the_training_pool_prepare_decoded(self, workdir, decodes):
        assert run(["prepare", "-c", workdir["config"]]) == 0
        assert run(["train", "-c", workdir["config"]]) == 0
        data = workdir["doc"]["data"]
        train_paths = [data["train_images"], data["train_labels"]]
        assert [p for p in decodes if p in train_paths] == train_paths



def test_every_process_cache_is_cleared_between_tests():
    """Each module-level LastParse in senseline is listed in conftest.PROCESS_CACHES."""
    modules = [senseline] + [importlib.import_module(f"senseline.{m.name}")
                             for m in pkgutil.iter_modules(senseline.__path__)]
    found = {(module, name) for module in modules
             for name, value in vars(module).items() if isinstance(value, trainer.LastParse)}
    assert found == set(PROCESS_CACHES)


class TestParseCount:
    @pytest.fixture()
    def parses(self, monkeypatch):
        """Every model document parsed, with every process cache cleared."""
        docs, parse = [], trainer.model_from_dict
        clear_process_caches(monkeypatch)
        monkeypatch.setattr(trainer, "model_from_dict", lambda doc: docs.append(doc) or parse(doc))
        return docs

    @pytest.fixture()
    def formats(self, monkeypatch):
        """Every array whose netlist device lines are formatted."""
        arrays, device_lines = [], system.device_lines
        monkeypatch.setattr(system, "device_lines", lambda s: arrays.append(s) or device_lines(s))
        return arrays

    @staticmethod
    def _file_docs(out, *names):
        return [json.loads((out / name).read_text()) for name in names]

    def test_build_simulate_evaluate_parse_the_model_once(self, workdir, parses, formats):
        assert run(["train", "-c", workdir["config"], "--no-sbs"]) == 0
        for stage in ("build", "simulate", "evaluate"):
            assert run([stage, "-c", workdir["config"], "--no-sbs"]) == 0
        assert parses == self._file_docs(workdir["tmp"] / "out", "model.json")
        assert len(formats) == 1

    def test_simulate_alone_formats_no_device_lines(self, workdir, parses, formats):
        assert run(["train", "-c", workdir["config"], "--no-sbs"]) == 0
        assert run(["simulate", "-c", workdir["config"], "--no-sbs"]) == 0
        assert len(parses) == 1
        assert formats == []

    @pytest.mark.parametrize("flags,models", [
        ([], ["model.json", "model_sbs.json"]),
        (["--no-sbs"], ["model.json"]),
    ], ids=["sbs", "no-sbs"])
    def test_run_all_parses_each_model_file_once(self, workdir, parses, flags, models):
        assert run(["run-all", "-c", workdir["config"]] + flags) == 0
        assert parses == self._file_docs(workdir["tmp"] / "out", *models)

    @staticmethod
    def _cfg(workdir):
        return config_from_dict(dict(workdir["doc"], sbs={"enabled": False}))

    def test_same_size_rewrite_with_other_weights_is_parsed_again(self, workdir, parses):
        assert run(["train", "-c", workdir["config"], "--no-sbs"]) == 0
        cfg, path = self._cfg(workdir), workdir["tmp"] / "out" / "model.json"
        before = cli._assemble(cfg).model
        doc = json.loads(path.read_text())
        doc["classifiers"][0]["weights"].reverse()
        st, size = os.stat(path), path.stat().st_size
        cli._write_json(path, doc)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert path.stat().st_size == size
        after = cli._assemble(cfg).model
        assert len(parses) == 2
        assert np.array_equal(after.classifiers[0].weights, before.classifiers[0].weights[::-1])
        assert cli._assemble(cfg).model is after and len(parses) == 2

    def test_reused_model_cannot_be_written(self, workdir, parses):
        assert run(["train", "-c", workdir["config"], "--no-sbs"]) == 0
        cfg = self._cfg(workdir)
        model = cli._assemble(cfg).model
        assert cli._assemble(cfg).model is model and len(parses) == 1
        for c in model.classifiers:
            for arr in (c.weights, c.feature_indices):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1


def _sweep_points():
    """The line_sweep benchmark's (c_line, dt, v_dsat, i_on) points."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SWEEP_POINTS


def _rewrite_keeping_stat(path, data: bytes):
    st = os.stat(path)
    assert len(data) == st.st_size
    pathlib.Path(path).write_bytes(data)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


class TestSweepReuse:
    """Line and device points of one model compile it once and write what cold runs write."""

    POINTS = _sweep_points()

    @staticmethod
    def _point_configs(workdir, k, point):
        """Config files of sweep point k: (analog, digital-quantized)."""
        c_line, dt, v_dsat, i_on = point
        paths = []
        for mode in ("analog", "digital-quantized"):
            doc = json.loads(json.dumps(workdir["doc"]))
            doc.update(device={"i_on": i_on, "v_dsat": v_dsat},
                       line={"c_line": c_line, "dt": dt, "t_classify": 2e-9})
            doc["sbs"]["enabled"] = False
            doc["evaluate"]["mode"] = mode
            path = workdir["tmp"] / f"point{k}_{mode}.json"
            path.write_text(json.dumps(doc))
            paths.append(path)
        return paths

    def _run_point(self, workdir, k, tag):
        """Run point k as the benchmark does; a copy of the out_dir after it."""
        analog, quant = self._point_configs(workdir, k, self.POINTS[k])
        for stage, path in (("build", analog), ("simulate", analog), ("evaluate", quant)):
            assert run([stage, "-c", path]) == 0
        snapshot = workdir["tmp"] / f"{tag}{k}"
        shutil.copytree(workdir["tmp"] / "out", snapshot)
        return snapshot

    @pytest.fixture()
    def swept(self, workdir, monkeypatch):
        """Every point run in turn in one process after `train`, counting compiles."""
        clear_process_caches(monkeypatch)
        assert run(["train", "-c", workdir["config"], "--no-sbs"]) == 0
        compiles, assemble = [], system.assemble
        monkeypatch.setattr(system, "assemble", lambda *a, **k: compiles.append(a) or
                            assemble(*a, **k))
        outs = [self._run_point(workdir, k, "warm") for k in range(len(self.POINTS))]
        return outs, compiles

    def test_points_in_one_process_write_what_cold_points_write(self, workdir, swept,
                                                                  monkeypatch):
        warm, compiles = swept
        assert len(compiles) == 1
        for k in range(len(self.POINTS)):
            clear_process_caches(monkeypatch)
            assert out_dir_diff(warm[k], self._run_point(workdir, k, "cold")) == []
        assert len(compiles) == 1 + len(self.POINTS)

    def test_each_points_parameters_reach_its_outputs(self, workdir, swept):
        warm, _ = swept
        model = trainer.load_model(warm[0] / "model.json")
        energies = set()
        for k, (c_line, dt, v_dsat, i_on) in enumerate(self.POINTS):
            cfg = config_from_dict(json.loads(self._point_configs(workdir, k, self.POINTS[k])[0]
                                              .read_text()))
            header = {line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2])
                      for line in (warm[k] / "netlist.txt").read_text().splitlines()[1:4]}
            assert (header["device"]["i_on"], header["device"]["v_dsat"]) == (i_on, v_dsat)
            assert (header["line"]["c_line"], header["line"]["dt"]) == (c_line, dt)
            for name in ("system.json", "metrics_analog.json"):
                doc = json.loads((warm[k] / name).read_text())
                assert doc["metadata"]["config_hash"] == config_hash(cfg)
            # The energy of an array compiled afresh at this point's parameters.
            s = system.assemble(model, cfg.quant, cfg.device, cfg.line)
            test_x, test_y = cli._load_test_features(cfg)
            n = cfg.evaluate.subset
            expected = system.evaluate(s, test_x[:n], test_y[:n], mode="analog")
            metrics = json.loads((warm[k] / "metrics_analog.json").read_text())
            assert metrics["energy_per_decision_j"] == expected.energy_per_decision
            energies.add(metrics["energy_per_decision_j"])
        assert len(energies) == len(self.POINTS)

    def test_unstable_point_after_a_stable_one_still_raises(self, workdir, capsys,
                                                            monkeypatch):
        clear_process_caches(monkeypatch)
        assert run(["train", "-c", workdir["config"], "--no-sbs"]) == 0
        stable, _ = self._point_configs(workdir, 0, self.POINTS[0])
        unstable, _ = self._point_configs(workdir, 1, (1e-16, 10e-12, 0.2, 2e-6))
        assert run(["simulate", "-c", stable]) == 0
        assert run(["simulate", "-c", unstable]) == cli.EXIT_CONFIG
        assert "unstable Euler step" in capsys.readouterr().err
        assert run(["simulate", "-c", stable]) == 0

    def test_changed_model_or_bits_recompiles(self, workdir, monkeypatch):
        clear_process_caches(monkeypatch)
        assert run(["train", "-c", workdir["config"], "--no-sbs"]) == 0
        cfg = config_from_dict(dict(workdir["doc"], sbs={"enabled": False}))
        path = workdir["tmp"] / "out" / "model.json"
        first = cli._assemble(cfg)
        other_point = dataclasses.replace(cfg, line=LineTiming(c_line=20e-15))
        assert cli._assemble(other_point).L is first.L
        assert cli._assemble(dataclasses.replace(cfg, feature_space=784)).L.shape == (784, 45)
        with pytest.raises(ValueError, match="read-only"):
            first.L[0, 0] = 1
        doc = json.loads(path.read_text())
        doc["classifiers"][0]["weights"].reverse()
        _rewrite_keeping_stat(path, (json.dumps(doc, indent=1) + "\n").encode())
        rewritten = cli._assemble(cfg)
        assert np.array_equal(rewritten.L,
                              system.assemble(trainer.load_model(path), cfg.quant).L)
        assert not np.array_equal(rewritten.L, first.L)
        six_bits = dataclasses.replace(cfg, quant=QuantSpec(bits=6, step_volts=0.02))
        assert np.array_equal(cli._assemble(six_bits).L,
                              system.assemble(trainer.load_model(path), six_bits.quant).L)


class TestTestSplitReuse:
    """The test split's feature levels are reused only while everything they depend on matches."""

    @pytest.fixture()
    def cfg(self, idx_dir, monkeypatch):
        """A 100-digit test split read from raw (uncompressed) IDX files."""
        clear_process_caches(monkeypatch)
        images, labels = idx_dir["train"]
        return config_from_dict({"data": {"train_images": str(images),
                                          "train_labels": str(labels),
                                          "test_images": str(images), "test_labels": str(labels)},
                                 "split": {"test_count": 100}})

    @pytest.fixture()
    def decodes(self, monkeypatch):
        calls, decode = [], dataset.decode_idx_pair
        monkeypatch.setattr(dataset, "decode_idx_pair",
                            lambda *a: calls.append(a[0]) or decode(*a))
        return calls

    @staticmethod
    def _expected(cfg):
        """Quantized float test features, computed without the reused levels."""
        X, y = cli._load_test_features(cfg)
        return quantize_unit(X, cfg.quant), y

    @pytest.mark.parametrize("bits,dtype", [(5, np.uint8), (8, np.uint8), (9, np.int64)])
    def test_levels_are_the_quantized_features(self, cfg, bits, dtype):
        cfg = dataclasses.replace(cfg, quant=QuantSpec(bits=bits, step_volts=1.2 / 2 ** bits))
        levels, labels = cli._test_levels(cfg)
        expected, y = self._expected(cfg)
        assert levels.dtype == dtype and np.array_equal(levels, expected)
        assert np.array_equal(labels, y)
        with pytest.raises(ValueError, match="read-only"):
            levels[0, 0] = 1

    @pytest.mark.parametrize("change", [
        {"quant": QuantSpec(bits=6, step_volts=0.02)},
        {"grid": dataset.GridSpec(row_indices=(1, 4, 8, 11, 15, 18, 22, 25))},
        {"split": dataset.SplitSpec(test_count=50)},
        {"feature_space": 784},
    ], ids=["bits", "grid", "test_count", "feature_space"])
    def test_a_changed_setting_recomputes(self, cfg, decodes, change):
        first = cli._test_levels(cfg)
        assert cli._test_levels(cfg) is first and len(decodes) == 1
        changed = dataclasses.replace(cfg, **change)
        levels, labels = cli._test_levels(changed)
        assert len(decodes) == 2
        expected, y = self._expected(changed)
        assert np.array_equal(levels, expected) and np.array_equal(labels, y)
        assert levels.shape != first[0].shape or not np.array_equal(levels, first[0])

    @pytest.mark.parametrize("which", ["test_images", "test_labels"])
    def test_same_size_rewrite_of_the_test_idx_recomputes(self, cfg, decodes, which):
        levels, labels = cli._test_levels(cfg)
        path = getattr(cfg.data, which)
        raw = bytearray(pathlib.Path(path).read_bytes())
        if which == "test_images":  # the first digit's first grid pixel, (2, 2)
            raw[16 + 2 * 28 + 2] ^= 0xFF
        else:
            raw[8] = (raw[8] + 1) % 10
        _rewrite_keeping_stat(path, bytes(raw))
        new_levels, new_labels = cli._test_levels(cfg)
        assert len(decodes) == 2
        expected, y = self._expected(cfg)
        assert np.array_equal(new_levels, expected) and np.array_equal(new_labels, y)
        changed = (new_levels[0, 0] != levels[0, 0] if which == "test_images"
                   else new_labels[0] != labels[0])
        assert changed


class TestRunAll:
    def test_run_all_with_sbs(self, workdir):
        assert run(["run-all", "-c", workdir["config"]]) == 0
        out = workdir["tmp"] / "out"
        for name in ("prepare.json", "model.json", "model_sbs.json",
                     "netlist.txt", "system.json", "digit_records.json", "report.json"):
            assert (out / name).exists(), name
        # These copied sbs_report.json, digit_records.json and metrics_<mode>.json.
        for name in ("feature_counts.csv", "votes.csv", "confusion_digital-quantized.csv"):
            assert not (out / name).exists(), name
        assert not (out / "model_quant.json").exists()

    def test_analog_rerun_gives_identical_artifacts(self, workdir):
        out, again = workdir["tmp"] / "out", workdir["tmp"] / "again"
        for out_dir in (out, again):
            assert run(["run-all", "-c", workdir["config"], "--mode", "analog",
                        "--out-dir", out_dir]) == 0
        assert (out / "traces.csv").exists() and (out / "metrics_analog.json").exists()
        assert out_dir_diff(out, again) == []

    def test_out_dir_diff_masks_only_created(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for root, created, count in ((a, "2026-01-01", 3), (b, "2027-12-31", 4)):
            root.mkdir()
            (root / "x.json").write_text(f'{{"created": "{created}", "hash": "h"}}')
            (root / "y.csv").write_text(f"count,{count}\n")
        (a / "z.txt").write_text("")
        assert out_dir_diff(a, b) == ["y.csv", "z.txt"]

    def test_run_all_without_selection_after_selection_builds_full_model(self, workdir):
        assert run(["run-all", "-c", workdir["config"]]) == 0
        assert run(["run-all", "-c", workdir["config"], "--no-sbs"]) == 0
        out = workdir["tmp"] / "out"
        for name in cli.SELECT_ARTIFACTS:
            assert not (out / name).exists(), name
        model = json.loads((out / "model.json").read_text())
        full = system.assemble(trainer.model_from_dict(model))
        sysdoc = json.loads((out / "system.json").read_text())
        assert sysdoc["device_count"] == full.device_count
        assert sysdoc["metadata"]["config_hash"] == model["metadata"]["config_hash"]
        assert "sbs_report" not in json.loads((out / "report.json").read_text())

    def test_run_all_writes_mode_metrics_once(self, workdir, monkeypatch):
        evaluated = []
        monkeypatch.setattr(cli, "cmd_evaluate", lambda cfg: evaluated.append(cfg))
        assert run(["run-all", "-c", workdir["config"], "--no-sbs", "--mode", "analog"]) == 0
        assert evaluated == []
        out = workdir["tmp"] / "out"
        metrics = json.loads((out / "metrics_analog.json").read_text())
        assert metrics["n_evaluated"] == 60
        assert np.sum(metrics["confusion"]) == 60
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["analog"]["accuracy"] == metrics["accuracy"]

    def test_run_all_full_resolution_with_selection_exits_4_before_prepare(self, workdir,
                                                                          capsys):
        # Selection needs the 64-feature space: run-all prepared and trained at
        # 784 features before `select` rejected them.
        assert run(["run-all", "-c", workdir["config"], "--feature-space", 784]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "feature_space 784" in err and "sbs.enabled" in err and "--no-sbs" in err
        for name in ("prepare.json", "model.json"):
            assert not (workdir["tmp"] / "out" / name).exists(), name

    def test_run_all_does_not_import_numpy_ma(self, workdir):
        # np.unique imports numpy.ma (~11 ms) through np.ma.is_masked; no stage
        # may reach it. A fresh interpreter, since pytest's may have imported it.
        code = ("import sys; from senseline import cli; rc = cli.main(sys.argv[1:]); "
                "print(rc, 'numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(senseline.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code, "run-all", "-c", str(workdir["config"]),
                               "--mode", "analog"], env=env, capture_output=True, text=True)
        assert done.stdout.splitlines()[-1] == "0 False", done.stderr

    def test_outputs_embed_config_hash(self, workdir):
        run(["run-all", "-c", workdir["config"], "--no-sbs"])
        out = workdir["tmp"] / "out"
        from senseline.config import config_hash
        doc = dict(workdir["doc"])
        doc.setdefault("sbs", {})["enabled"] = False
        h = config_hash(config_from_dict(doc))
        for name in ("model.json", "system.json", "metrics_digital-quantized.json",
                     "digit_records.json"):
            assert json.loads((out / name).read_text())["metadata"]["config_hash"] == h


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
        {"device": {"vdd": 3.5}},        # the supply is quant.vdd
        {"device": {"p_window": [-0.5, 1.24]}},
        {"device": {"n_window": [1.76, 3.0]}},
        {"device": {"tg_window_span": 1.24}},
        {"line": {"t_classify": 1e308}},  # was an OverflowError traceback from round(inf)
    ])
    def test_invalid_device_or_line_section_exits_4(self, workdir, doc, capsys):
        bad = workdir["tmp"] / "bad_section.json"
        bad.write_text(json.dumps(doc))  # non-finite floats as JSON Infinity / NaN
        assert run(["prepare", "-c", bad]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        [values] = doc.values()
        [key] = values
        assert "config error" in err and key in err

    @pytest.mark.parametrize("bits,feature_space,mode", [
        (26, 64, "analog"), (24, 64, "digital-quantized"), (22, 784, "digital-quantized")])
    def test_quant_bits_too_wide_for_exact_sums_exits_4(self, workdir, capsys, bits,
                                                         feature_space, mode):
        bad = workdir["tmp"] / "wide_bits.json"
        bad.write_text(json.dumps({"quant": {"bits": bits, "step_volts": 1e-9},
                                   "feature_space": feature_space,
                                   "evaluate": {"mode": mode}}))
        assert run(["prepare", "-c", bad]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "quant.bits" in err and "feature_space" in err

    @pytest.mark.parametrize("bits,feature_space", [(23, 64), (21, 784)])
    def test_widest_exact_quant_bits_load(self, bits, feature_space):
        cfg = config_from_dict({"quant": {"bits": bits, "step_volts": 1e-9},
                                "feature_space": feature_space})
        assert cfg.quant.bits == bits

    def test_oversized_quant_bits_exits_4(self, workdir, capsys):
        bad = workdir["tmp"] / "big_bits.json"
        bad.write_text(json.dumps({"quant": {"bits": 2000}}))
        assert run(["prepare", "-c", bad]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "bits" in err

    @pytest.mark.parametrize("section,key,value", [
        ("hyper", "max_epochs", 1.5),        # was a TypeError traceback from range()
        ("hyper", "max_epochs", True),       # was one epoch
        ("hyper", "learning_rate", float("nan")),
        ("sbs", "max_features", 0),          # was "max() arg is an empty sequence" in select
        ("sbs", "candidate_epochs", -3),
        ("sbs", "candidate_rows", 0),
        ("sbs", "tolerance", -1),
        ("sbs", "enabled", "no"),            # was truthy: selection ran
    ])
    def test_invalid_training_config_exits_4(self, workdir, section, key, value, capsys):
        doc = dict(workdir["doc"])
        doc[section] = dict(doc.get(section, {}), **{key: value})
        bad = workdir["tmp"] / "bad_training.json"
        bad.write_text(json.dumps(doc))  # NaN as JSON NaN
        assert run(["train", "-c", bad]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (workdir["tmp"] / "out" / "model.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("split.train_count", 1.5),          # was a TypeError traceback in prepare
        ("seed", 1.5),                       # was a TypeError traceback in prepare
        ("grid.row_indices", [2.0, 5, 9, 12, 16, 19, 23, 26]),
        ("evaluate.subset", True),           # was one digit
        ("evaluate.trace_digits", False),    # was zero records
        ("feature_space", 64.0),
    ])
    def test_non_integer_count_exits_4(self, workdir, key, value, capsys):
        doc = json.loads(json.dumps(workdir["doc"]))
        *section, name = key.split(".")
        target = doc.setdefault(section[0], {}) if section else doc
        target[name] = value
        bad = workdir["tmp"] / "bad_count.json"
        bad.write_text(json.dumps(doc))
        assert run(["prepare", "-c", bad]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and name in err
        assert not (workdir["tmp"] / "out" / "prepare.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("out_dir", 5),                      # was a TypeError traceback in prepare
        ("out_dir", None),
        ("out_dir", ""),                     # was a data error from os.makedirs("")
        ("data.test_labels", 1),             # was opened as file descriptor 1
        ("data.train_images", ""),
        ("data.train_images", ["x"]),
    ])
    def test_non_string_path_exits_4(self, workdir, key, value, capsys):
        doc = json.loads(json.dumps(workdir["doc"]))
        *section, name = key.split(".")
        (doc[section[0]] if section else doc)[name] = value
        bad = workdir["tmp"] / "bad_path.json"
        bad.write_text(json.dumps(doc))
        assert run(["prepare", "-c", bad]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    def test_out_dir_naming_a_file_exits_4(self, workdir, capsys):
        # Was a FileExistsError traceback from os.makedirs.
        doc = dict(workdir["doc"], out_dir=str(workdir["config"]))
        bad = workdir["tmp"] / "file_out_dir.json"
        bad.write_text(json.dumps(doc))
        assert run(["prepare", "-c", bad]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "out_dir" in err

    def test_config_path_naming_a_directory_exits_4(self, tmp_path, capsys):
        # Was an IsADirectoryError traceback from opening the config.
        assert run(["prepare", "-c", tmp_path]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_model_with_intercept_and_threshold_keys_exits_4(self, workdir, capsys):
        assert run(["train", "-c", workdir["config"]]) == 0
        path = workdir["tmp"] / "out" / "model.json"
        doc = json.loads(path.read_text())
        for rec in doc["classifiers"]:
            rec.update(intercept=0.0, threshold=0.0)
        path.write_text(json.dumps(doc))
        assert run(["build", "-c", workdir["config"]]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "classifier 0: unknown key 'intercept'" in err and "rerun `train`" in err

    @pytest.mark.parametrize("command", ["build", "simulate", "evaluate", "select"])
    def test_model_feature_index_beyond_intp_exits_4(self, workdir, capsys, command):
        # Was an OverflowError traceback from the index array's conversion.
        assert run(["train", "-c", workdir["config"]]) == 0
        path = workdir["tmp"] / "out" / "model.json"
        doc = json.loads(path.read_text())
        doc["classifiers"][3]["feature_indices"][1] = 10 ** 30
        path.write_text(json.dumps(doc))
        assert run([command, "-c", workdir["config"]]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "classifier 3: feature_indices[1]" in err

    def test_trace_samples_over_the_bound_exit_4_at_config_load(self, workdir, monkeypatch,
                                                                  capsys):
        # 10**8 steps: 10 analog trace digits would record 4.5e10 samples.
        # The config is rejected before any data is read or any trace allocated.
        monkeypatch.setattr(dataset, "load_idx", lambda *a: pytest.fail("data was read"))
        line = {"t_classify": 1e-3, "dt": 1e-11}
        bad = workdir["tmp"] / "long_traces.json"
        bad.write_text(json.dumps(dict(workdir["doc"], line=line,
                                       evaluate={"mode": "analog", "trace_digits": 10})))
        assert run(["simulate", "-c", bad]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "line.t_classify" in err and "evaluate.trace_digits" in err
        # Without traces any step count loads: the integrator is closed-form.
        for evaluate in ({"mode": "analog", "trace_digits": 0},
                         {"mode": "digital-quantized", "trace_digits": 10}):
            assert config_from_dict({"line": line, "evaluate": evaluate}).line.n_steps == 10 ** 8
        # At the default 200 steps the bound of 10**7 samples is 1,105 trace digits.
        config_from_dict({"evaluate": {"mode": "analog", "trace_digits": 1105}})
        with pytest.raises(ValueError, match="evaluate.trace_digits = 1106"):
            config_from_dict({"evaluate": {"mode": "analog", "trace_digits": 1106}})

    def test_missing_config_file(self, capsys):
        assert run(["prepare", "-c", "/nonexistent/config.json"]) == cli.EXIT_CONFIG
