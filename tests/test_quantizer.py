import numpy as np
import pytest

from senseline import quantizer
from senseline.quantizer import (
    DeviceConfig,
    QuantSpec,
    level_to_vbg,
    level_to_vtg,
    map_weights,
    quantize_unit,
    weight_levels,
)
from senseline.trainer import BinaryClassifier


def clf(weights, pair=(0, 1)):
    return BinaryClassifier(pair, np.arange(len(weights)), np.array(weights, dtype=float))


class TestQuantizeUnit:
    def test_zero(self):
        assert quantize_unit(0.0) == 0

    def test_full_scale(self):
        assert quantize_unit(1.0) == 31

    def test_midpoint_ties_to_even(self):
        # 0.5 * 31 = 15.5 rounds to the even level 16.
        assert quantize_unit(0.5) == 16

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quantize_unit(-0.01)
        with pytest.raises(ValueError):
            quantize_unit(1.01)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            quantize_unit(np.nan)
        with pytest.raises(ValueError, match="lie in"):
            quantize_unit(np.array([[0.5, np.nan]]))

    def test_monotone(self):
        v = np.linspace(0, 1, 1001)
        levels = quantize_unit(v)
        assert np.all(np.diff(levels) >= 0)

    def test_idempotent_on_exact_levels(self):
        q = QuantSpec()
        for level in range(32):
            assert quantize_unit(level / q.max_level, q) == level

    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(0)
        q = QuantSpec()
        v = rng.random(5000)
        err = np.abs(quantize_unit(v, q) / q.max_level - v)
        assert np.all(err <= 0.5 / q.max_level + 1e-12)


class TestQuantSpec:
    def test_defaults(self):
        q = QuantSpec()
        assert q.levels == 32
        assert q.max_level == 31
        assert q.window_span == pytest.approx(1.24)

    def test_window_must_fit_half_rail(self):
        with pytest.raises(ValueError, match="off band"):
            QuantSpec(bits=6, step_volts=0.040, vdd=3.0)  # 63 * 40 mV = 2.52 V
        with pytest.raises(ValueError, match="off band"):
            QuantSpec(vdd=2.48)  # 31 * 40 mV = vdd/2: the windows would touch

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_step_volts_rejected(self, value):
        # A NaN step passed both comparisons and assembled a 135-device array.
        with pytest.raises(ValueError, match="step_volts"):
            QuantSpec(step_volts=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_vdd_rejected(self, value):
        with pytest.raises(ValueError, match="vdd"):
            QuantSpec(vdd=value)

    @pytest.mark.parametrize("bits", [1024, 2000, 10**12])
    def test_bits_beyond_float_range_rejected(self, bits):
        # 2**bits - 1 has no float value, so window_span cannot be formed.
        with pytest.raises(ValueError, match="bits"):
            QuantSpec(bits=bits)

    def test_largest_float_bits_still_accepted(self):
        assert QuantSpec(bits=1023, step_volts=1e-310).window_span < 1.5

    @pytest.mark.parametrize("bits", [4.5, 5.0, True, "5", None])
    def test_bits_must_be_an_integer(self, bits):
        # bits = 4.5 gave max_level 21.63, so a unit value quantized to level 22;
        # bits = True loaded as 1 bit.
        with pytest.raises(ValueError, match="bits must be an integer"):
            QuantSpec(bits=bits)

    def test_numpy_integer_bits_accepted(self):
        assert QuantSpec(bits=np.int64(4)).max_level == 15


class TestMapWeights:
    def test_mixed_signs_scaled(self):
        devs = map_weights(clf([2.0, -1.0]))
        assert [(d.dtype, d.w_level) for d in devs] == [("P", 31), ("N", 16)]

    def test_single_weight_self_normalizes(self):
        devs = map_weights(clf([-0.5]))
        assert [(d.dtype, d.w_level) for d in devs] == [("N", 31)]

    def test_zero_weight_dropped(self):
        devs = map_weights(clf([1.0, 0.0, -0.25]))
        assert [d.feature_index for d in devs] == [0, 2]

    def test_tiny_weight_quantizes_to_nothing(self):
        # |w|/max = 0.01 -> level round(0.31) = 0 -> dropped.
        devs = map_weights(clf([1.0, 0.01]))
        assert len(devs) == 1

    def test_sign_to_polarity_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = rng.normal(size=rng.integers(1, 20))
            if np.all(w == 0):
                continue
            for d in map_weights(clf(w)):
                assert (d.dtype == "P") == (w[d.feature_index] > 0)
                assert (d.dtype == "N") == (w[d.feature_index] < 0)

    def test_signed_levels_in_one_call(self):
        levels = weight_levels(clf([2.0, -1.0, 0.0, 0.01, -2.0]))
        assert levels.tolist() == [31, -16, 0, 0, -31]
        devs = map_weights(clf([2.0, -1.0, 0.0, 0.01, -2.0]))
        assert [(d.feature_index, d.dtype, d.w_level) for d in devs] == [
            (0, "P", 31), (1, "N", 16), (4, "N", 31)]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            map_weights(clf([0.0, 0.0]))


class TestGateBiases:
    def test_vbg_full_drive(self):
        assert level_to_vbg(31, "P") == pytest.approx(0.0)
        assert level_to_vbg(31, "N") == pytest.approx(3.0)

    def test_vbg_zero_drive(self):
        assert level_to_vbg(0, "P") == pytest.approx(1.24)
        assert level_to_vbg(0, "N") == pytest.approx(1.76)

    def test_vtg_off_levels_match_precharge_gating(self):
        # Level 0 must coincide with the gating-off voltage of each polarity.
        assert level_to_vtg(0, "P") == pytest.approx(3.0)
        assert level_to_vtg(0, "N") == pytest.approx(0.0)
        assert quantizer.off_vtg("P") == level_to_vtg(0, "P")
        assert quantizer.off_vtg("N") == level_to_vtg(0, "N")

    def test_vtg_full_drive(self):
        assert level_to_vtg(31, "N") == pytest.approx(1.24)
        assert level_to_vtg(31, "P") == pytest.approx(3.0 - 1.24)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            level_to_vbg(32, "P")
        with pytest.raises(ValueError):
            level_to_vtg(-1, "N")

    def test_array_levels(self):
        levels = np.array([0, 16, 31])
        v = level_to_vtg(levels, "N")
        assert np.allclose(v, [0.0, 0.64, 1.24])


class TestDeviceConfig:
    def test_rail_follows_polarity(self):
        assert DeviceConfig(0, "P", 5).rail == "VDD"
        assert DeviceConfig(0, "N", 5).rail == "GND"

    def test_bad_dtype(self):
        with pytest.raises(ValueError):
            DeviceConfig(0, "X", 5)

