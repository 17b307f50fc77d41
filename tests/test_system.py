import dataclasses
import json
import re

import numpy as np
import pytest

from senseline import line_sim, quantizer, system, trainer
from senseline.line_sim import LineTiming
from senseline.quantizer import RAILS, QuantSpec
from senseline.trainer import BinaryClassifier, OvOModel, all_pairs

NETLIST_HEADER = re.compile(r"^\* (quant|device|line|pairs) (.*)$", re.M)
NETLIST_DEVICE = re.compile(
    r"^D(\d+) line=(\d-\d) feat=(\d+) type=([PN]) wlevel=(\d+) rail=(\w+)$", re.M)


def assert_netlist_describes(s: system.SystemConfig, path):
    """The netlist at path holds s's parameters in its headers, and its
    device lines rebuild s.L exactly, one device per line in order."""
    text = path.read_text()
    headers = {key: json.loads(value) for key, value in NETLIST_HEADER.findall(text)}
    assert headers["quant"] == dataclasses.asdict(s.quant)
    q = s.quant
    assert headers["device"] == dict(dataclasses.asdict(s.params), vdd=q.vdd,
                                     p_window=list(q.p_window), n_window=list(q.n_window),
                                     tg_window_span=q.window_span)
    assert headers["line"] == dataclasses.asdict(s.timing)
    assert headers["pairs"] == [f"{a}-{b}" for a, b in s.pairs]
    devices = NETLIST_DEVICE.findall(text)
    assert len(devices) == len([l for l in text.splitlines() if not l.startswith("*")])
    assert [int(d[0]) for d in devices] == list(range(s.device_count))
    columns = {f"{a}-{b}": k for k, (a, b) in enumerate(s.pairs)}
    L = np.zeros_like(s.L)
    for _, line, feat, dtype, level, rail in devices:
        assert rail == RAILS[dtype]
        L[int(feat), columns[line]] = int(level) if dtype == "P" else -int(level)
    assert np.array_equal(L, s.L)


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


class TestEulerStability:
    def test_default_array_passes(self, synth_system):
        s = synth_system
        g_sum = np.abs(s.L).sum(axis=0) / 31
        factor = 1 - s.timing.dt * s.params.i_on * g_sum / (s.timing.c_line * s.params.v_dsat)
        assert np.all((factor > 0) & (factor <= 1))
        line_sim.check_euler_stability(s)

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


class TestNetlist:
    def test_roundtrip_equality(self, synth_system, tmp_path):
        path = tmp_path / "netlist.txt"
        system.emit_netlist(synth_system, path)
        assert_netlist_describes(synth_system, path)

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

    def test_default_device_header_bytes(self, tmp_path):
        # perfbench/oracle.py reads this header, so its keys and bytes stay fixed.
        path = tmp_path / "netlist.txt"
        system.emit_netlist(system.SystemConfig([(0, 1)], np.zeros((64, 1))), path)
        assert path.read_text().splitlines()[2] == (
            '* device {"i_on": 2e-06, "v_dsat": 0.2, "vdd": 3.0, "p_window": [0.0, 1.24], '
            '"n_window": [1.76, 3.0], "tg_window_span": 1.24}')


class TestOneSupply:
    """The quantizer's vdd is the only supply: the lines, their votes and the
    netlist of a system assembled at another vdd all follow it."""

    @pytest.fixture(scope="class")
    def system_4v(self, synth_model):
        return system.assemble(synth_model, QuantSpec(vdd=4.0))

    def test_lines_hold_and_vote_at_half_the_quantizer_supply(self, system_4v, synth_features):
        _, _, (sx, sy) = synth_features
        X = np.vstack([np.zeros(64), sx[:200]])
        res = line_sim.simulate_batch(system_4v, X)
        # No feature drive ties every line, and a tied line holds at vdd/2.
        assert np.all(res.line_finals[0] == 2.0)
        # The buffer decides at 2.0 V, also for lines that end between 1.5 and 2 V.
        assert np.any((res.line_finals > 1.5) & (res.line_finals < 2.0))
        assert np.array_equal(res.votes, np.where(res.line_finals >= 2.0, 1, -1))
        assert np.array_equal(res.votes,
                              np.where(system.quantized_margins(system_4v, X) >= 0, 1, -1))
        rep = system.evaluate(system_4v, sx[:20], sy[:20], mode="analog")
        assert rep.total_current_per_decision == rep.energy_per_decision / 4.0

    def test_netlist_declares_the_quantizer_supply(self, system_4v, tmp_path):
        path = tmp_path / "netlist.txt"
        system.emit_netlist(system_4v, path)
        text = path.read_text()
        headers = {key: json.loads(value) for key, value in NETLIST_HEADER.findall(text)}
        assert headers["quant"]["vdd"] == headers["device"]["vdd"] == 4.0
        assert headers["device"]["n_window"] == [4.0 - 1.24, 4.0]
        assert_netlist_describes(system_4v, path)


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

    def test_float_mode_needs_model(self, synth_system, synth_features):
        _, _, (sx, sy) = synth_features
        s = system.SystemConfig(synth_system.pairs, synth_system.L)
        with pytest.raises(ValueError, match="model"):
            system.evaluate(s, sx, sy, mode="digital-float")

    def test_quantized_margin_shape_and_type(self, synth_system, synth_features):
        _, _, (sx, _) = synth_features
        margins = system.quantized_margins(synth_system, sx[:7])
        assert margins.shape == (7, 45)
        assert margins.dtype == np.int64
