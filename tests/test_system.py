import numpy as np
import pytest

from senseline import quantizer, system, trainer
from senseline.device import DeviceParams, RegionMismatchError
from senseline.line_sim import LineTiming
from senseline.trainer import BinaryClassifier, OvOModel, all_pairs


def model_with_counts(counts: dict, seed=0) -> OvOModel:
    """Ensemble with a prescribed number of features per pair.

    Weight magnitudes stay in [0.2, 1], so none quantize to level 0 and the
    device count equals the feature count exactly.
    """
    rng = np.random.default_rng(seed)
    classifiers = []
    for pair in all_pairs():
        n = counts[pair]
        feats = np.sort(rng.choice(64, size=n, replace=False))
        w = rng.uniform(0.2, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        classifiers.append(BinaryClassifier(pair, feats, w))
    return OvOModel(classifiers)


def reference_counts() -> dict:
    """Per-pair feature counts pinned at 6 for (0,1) and 44 for (3,4), mean 23."""
    pairs = all_pairs()
    counts = {(0, 1): 6, (3, 4): 44}
    rest = [p for p in pairs if p not in counts]
    rng = np.random.default_rng(42)
    vals = rng.integers(10, 37, size=len(rest))
    diff = 23 * 45 - 50 - int(vals.sum())
    i = 0
    while diff != 0:
        nudge = 1 if diff > 0 else -1
        if 4 <= vals[i % len(vals)] + nudge <= 60:
            vals[i % len(vals)] += nudge
            diff -= nudge
        i += 1
    counts.update({p: int(n) for p, n in zip(rest, vals)})
    assert sum(counts.values()) == 23 * 45
    return counts


class TestAssemble:
    def test_line_and_device_counts(self, synth_system, synth_model):
        assert len(synth_system.pairs) == 45
        assert synth_system.L.shape == (64, 45)
        assert synth_system.device_count <= 45 * 64
        assert synth_system.device_count == sum(len(quantizer.map_weights(c))
                                                for c in synth_model.classifiers)

    def test_levels_match_map_weights(self, synth_system, synth_model):
        # One quantization decides both the level matrix and the device list.
        for k, c in enumerate(synth_model.classifiers):
            devs = quantizer.map_weights(c)
            expected = np.zeros(64, dtype=np.int64)
            for d in devs:
                expected[d.feature_index] = d.w_level if d.dtype == "P" else -d.w_level
            assert np.array_equal(synth_system.L[:, k], expected)
        # With windows matched to the quantizer a level-w device drives w / 31.
        assert np.allclose(synth_system.G_p, np.maximum(synth_system.L, 0) / 31)
        assert np.allclose(synth_system.G_n, np.maximum(-synth_system.L, 0) / 31)

    def test_six_feature_classifier_yields_six_devices(self):
        counts = {p: 6 for p in all_pairs()}
        s = system.assemble(model_with_counts(counts))
        assert np.all(np.count_nonzero(s.L, axis=0) == 6)

    def test_reference_counts_near_target_total(self):
        s = system.assemble(model_with_counts(reference_counts()))
        assert 900 <= s.device_count <= 1150

    def test_zero_weight_classifier_reported_not_fatal(self):
        counts = {p: 4 for p in all_pairs()}
        model = model_with_counts(counts)
        model.classifiers[0].weights = np.zeros(4)
        with pytest.warns(RuntimeWarning, match="no surviving devices"):
            s = system.assemble(model)
        assert not np.any(s.L[:, 0])

    def test_duplicate_feature_on_line_rejected(self):
        model = model_with_counts({p: 4 for p in all_pairs()})
        feats = model.classifiers[0].feature_indices
        feats[1] = feats[0]
        with pytest.raises(ValueError, match="twice"):
            system.assemble(model)

    def test_feature_outside_array_rejected(self):
        model = model_with_counts({p: 4 for p in all_pairs()})
        model.classifiers[3].feature_indices[-1] = 64
        with pytest.raises(ValueError, match="64-feature"):
            system.assemble(model)

    def test_bias_outside_window_rejected(self):
        # Levels below 19 put the p-type bottom gate above 0.5 V.
        params = DeviceParams(p_window=(0.0, 0.5), n_window=(2.5, 3.0))
        with pytest.raises(RegionMismatchError):
            system.assemble(model_with_counts({p: 8 for p in all_pairs()}), params=params)


class TestEulerStability:
    def test_default_array_passes(self, synth_system):
        s = synth_system
        g_sum = (s.G_p + s.G_n).sum(axis=0)
        factor = 1 - s.timing.dt * s.params.i_on * g_sum / (s.timing.c_line * s.params.v_dsat)
        assert np.all((factor > 0) & (factor <= 1))
        system.check_euler_stability(s)

    def test_small_line_capacitance_rejected(self, synth_model, synth_features):
        # dt * i_on / (c_line * v_dsat) = 1: a line driven by more than one
        # full-level device overshoots in one step. Digital evaluation never
        # steps the lines and still runs.
        _, _, (sx, sy) = synth_features
        s = system.assemble(synth_model, timing=LineTiming(c_line=1e-16))
        with pytest.raises(ValueError, match="Euler"):
            system.evaluate(s, sx[:5], sy[:5], mode="analog")
        assert system.evaluate(s, sx[:5], sy[:5]).n_evaluated == 5


class TestArea:
    def test_area_calibration_point(self):
        counts = reference_counts()
        s = system.assemble(model_with_counts(counts))
        area = system.estimate_area(s)
        assert area == pytest.approx(s.device_count * 3.8 / 1021)

    def test_calibration_count_gives_target_area(self, synth_system):
        s = synth_system
        assert 1021 * system.DEFAULT_FOOTPRINT_UM2 == pytest.approx(3.8)

    def test_zero_devices_zero_area(self):
        s = system.SystemConfig([(0, 1)], np.zeros((64, 1), dtype=np.int64))
        assert system.estimate_area(s) == 0.0

    def test_linearity(self):
        assert 2042 * system.DEFAULT_FOOTPRINT_UM2 == pytest.approx(7.6)

    def test_footprint_validated(self, synth_system):
        with pytest.raises(ValueError):
            system.estimate_area(synth_system, footprint_um2=0.0)


class TestNetlist:
    def test_roundtrip_equality(self, synth_system, tmp_path):
        path = tmp_path / "netlist.txt"
        system.emit_netlist(synth_system, path)
        parsed = system.parse_netlist(path)
        assert parsed == synth_system  # model is excluded from equality
        assert parsed.device_count == synth_system.device_count

    def test_device_lines_and_rails(self, synth_system, tmp_path):
        path = tmp_path / "netlist.txt"
        system.emit_netlist(synth_system, path)
        text = path.read_text()
        dev_lines = [l for l in text.splitlines() if l.startswith("D")]
        assert len(dev_lines) == synth_system.device_count
        for l in dev_lines:
            if "type=P" in l:
                assert "rail=VDD" in l
            else:
                assert "rail=GND" in l

    def test_inconsistent_rail_rejected(self, synth_system, tmp_path):
        path = tmp_path / "netlist.txt"
        system.emit_netlist(synth_system, path)
        text = path.read_text().replace("type=P", "type=N", 1)
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(ValueError, match="rail"):
            system.parse_netlist(bad)

    def test_undeclared_line_rejected(self, synth_system, tmp_path):
        path = tmp_path / "netlist.txt"
        system.emit_netlist(synth_system, path)
        text = path.read_text().replace("line=0-1", "line=0-0", 1)
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(ValueError, match="0-0"):
            system.parse_netlist(bad)

    def test_device_line_format(self, tmp_path):
        L = np.zeros((64, 2), dtype=np.int64)
        L[3, 0], L[60, 0], L[7, 1] = 5, -31, 12
        path = tmp_path / "netlist.txt"
        system.emit_netlist(system.SystemConfig([(0, 1), (2, 9)], L), path)
        assert [l for l in path.read_text().splitlines() if not l.startswith("*")] == [
            "D0 line=0-1 feat=3 type=P wlevel=5 rail=VDD",
            "D1 line=0-1 feat=60 type=N wlevel=31 rail=GND",
            "D2 line=2-9 feat=7 type=P wlevel=12 rail=VDD",
        ]

    @staticmethod
    def _edit_first_device(s, tmp_path, edit):
        path = tmp_path / "netlist.txt"
        system.emit_netlist(s, path)
        lines = path.read_text().splitlines()
        first = next(i for i, l in enumerate(lines) if l.startswith("D0 "))
        lines[first:first + 1] = edit(lines[first])
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        return bad

    def test_missing_feat_rejected(self, synth_system, tmp_path):
        bad = self._edit_first_device(
            synth_system, tmp_path,
            lambda l: [" ".join(t for t in l.split() if not t.startswith("feat="))])
        with pytest.raises(ValueError, match="D0 is missing feat="):
            system.parse_netlist(bad)

    def test_feature_outside_array_rejected(self, synth_system, tmp_path):
        bad = self._edit_first_device(
            synth_system, tmp_path,
            lambda l: [" ".join("feat=99" if t.startswith("feat=") else t for t in l.split())])
        with pytest.raises(ValueError, match="D0: feat=99"):
            system.parse_netlist(bad)

    def test_weight_level_outside_range_rejected(self, synth_system, tmp_path):
        bad = self._edit_first_device(
            synth_system, tmp_path,
            lambda l: [" ".join("wlevel=0" if t.startswith("wlevel=") else t for t in l.split())])
        with pytest.raises(ValueError, match="D0: wlevel=0"):
            system.parse_netlist(bad)

    def test_second_device_on_same_feature_rejected(self, synth_system, tmp_path):
        bad = self._edit_first_device(
            synth_system, tmp_path, lambda l: [l, l.replace("D0 ", "D0b ", 1)])
        with pytest.raises(ValueError, match="D0b: a second device"):
            system.parse_netlist(bad)

    def test_missing_header_rejected(self, synth_system, tmp_path):
        path = tmp_path / "netlist.txt"
        system.emit_netlist(synth_system, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("* quant")]
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="quant"):
            system.parse_netlist(bad)


class TestEvaluate:
    def test_digital_float_matches_trainer(self, synth_system, synth_features):
        _, _, (sx, sy) = synth_features
        report = system.evaluate(synth_system, sx, sy, mode="digital-float")
        acc, confusion, _ = trainer.evaluate_model(synth_system.model, sx, sy)
        assert report.accuracy == acc
        assert np.array_equal(report.confusion, confusion)
        assert report.energy_per_decision is None

    def test_confusion_rows_sum_to_class_counts(self, synth_system, synth_features):
        _, _, (sx, sy) = synth_features
        report = system.evaluate(synth_system, sx, sy, mode="digital-quantized")
        assert np.array_equal(report.confusion.sum(axis=1), np.bincount(sy, minlength=10))
        assert report.accuracy == pytest.approx(np.trace(report.confusion) / len(sy))

    def test_quantized_close_to_float(self, synth_system, synth_features):
        _, _, (sx, sy) = synth_features
        r_float = system.evaluate(synth_system, sx, sy, mode="digital-float")
        r_quant = system.evaluate(synth_system, sx, sy, mode="digital-quantized")
        assert abs(r_float.accuracy - r_quant.accuracy) <= 0.02

    def test_analog_energy_and_current_identity(self, synth_system, synth_features):
        _, _, (sx, sy) = synth_features
        report = system.evaluate(synth_system, sx[:50], sy[:50], mode="analog")
        assert report.energy_per_decision > 0
        assert report.total_current_per_decision == report.energy_per_decision / 3.0
        assert report.energy_scope == system.ENERGY_SCOPE
        assert report.throughput_hz == pytest.approx(250e6)

    def test_empty_test_set_rejected(self, synth_system):
        with pytest.raises(ValueError, match="empty"):
            system.evaluate(synth_system, np.zeros((0, 64)), np.zeros(0, dtype=int))

    def test_unknown_mode_rejected(self, synth_system, synth_features):
        _, _, (sx, sy) = synth_features
        with pytest.raises(ValueError, match="mode"):
            system.evaluate(synth_system, sx, sy, mode="spice")

    def test_float_mode_needs_model(self, synth_system, synth_features, tmp_path):
        _, _, (sx, sy) = synth_features
        path = tmp_path / "n.txt"
        system.emit_netlist(synth_system, path)
        parsed = system.parse_netlist(path)
        with pytest.raises(ValueError, match="model"):
            system.evaluate(parsed, sx, sy, mode="digital-float")

    def test_quantized_margin_shape_and_type(self, synth_system, synth_features):
        _, _, (sx, _) = synth_features
        margins = system.quantized_margins(synth_system, sx[:7])
        assert margins.shape == (7, 45)
        assert margins.dtype == np.int64
