import numpy as np
import pytest

from senseline import device
from senseline.device import (
    DeviceParams,
    RegionMismatchError,
    channel_current,
    gate_drive_bg,
    gate_drive_tg,
    make_instance,
    region_of,
)
from senseline.quantizer import DeviceConfig, QuantSpec


def drive(v_tg, v_bg, dtype):
    """Combined gate drive g_tg * g_bg at the default parameters."""
    return gate_drive_tg(v_tg, dtype) * gate_drive_bg(v_bg, dtype)


class TestRegions:
    def test_rail_anchored_windows(self):
        assert region_of(0.0) == "P"
        assert region_of(3.0) == "N"
        assert region_of(1.5) == "OFF"

    def test_window_edges_inclusive(self):
        assert region_of(1.24) == "P"
        assert region_of(1.76) == "N"
        assert region_of(1.25) == "OFF"

    def test_custom_windows(self):
        p = DeviceParams(p_window=(0.2, 1.0), n_window=(2.0, 2.8))
        assert region_of(0.1, p) == "OFF"
        assert region_of(2.9, p) == "OFF"

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError, match="OFF band"):
            DeviceParams(p_window=(0.0, 2.0), n_window=(1.9, 3.0))

    @pytest.mark.parametrize("kw", [{"i_on": np.inf}, {"v_dsat": np.nan},
                                    {"tg_window_span": np.inf}, {"vdd": np.nan},
                                    {"p_window": (-np.inf, 1.24)}, {"n_window": (1.76, np.nan)}])
    def test_non_finite_rejected(self, kw):
        with pytest.raises(ValueError, match="finite"):
            DeviceParams(**kw)


class TestDrive:
    def test_p_gated_off_at_vdd(self):
        assert drive(3.0, 0.0, "P") == 0.0

    def test_p_full_drive(self):
        assert drive(3.0 - 1.24, 0.0, "P") == pytest.approx(1.0)

    def test_n_quarter_drive(self):
        assert drive(0.62, 2.38, "N") == pytest.approx(0.25)

    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(0)
        p = DeviceParams()
        for _ in range(500):
            v_tg = rng.uniform(-1, 4)
            g = device.gate_drive_tg(v_tg, "P", p) * device.gate_drive_bg(rng.uniform(0, 1.24), "P", p)
            assert 0.0 <= g <= 1.0


class TestCurrent:
    def test_zero_bias_zero_current(self):
        assert channel_current(1.76, 0.0, 1.5, 1.5) == 0.0

    def test_full_drive_p_into_line(self):
        # Full-drive P device from the 3 V rail into a 1.5 V line saturates at i_on.
        i = channel_current(3.0 - 1.24, 0.0, 3.0, 1.5)
        assert i == pytest.approx(2e-6)

    def test_triode_below_knee(self):
        i = channel_current(3.0 - 1.24, 0.0, 3.0, 2.9)  # delta V = 0.1 < v_dsat
        assert i == pytest.approx(2e-6 * 0.1 / 0.2)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(1)
        p = DeviceParams()
        for _ in range(300):
            v_tg = rng.uniform(0, 3)
            v_bg = rng.uniform(0, 3)
            v_a, v_b = rng.uniform(0, 3, size=2)
            assert channel_current(v_tg, v_bg, v_a, v_b, p) == -channel_current(v_tg, v_bg, v_b, v_a, p)

    def test_tri_state_off_band_conducts_nothing(self):
        rng = np.random.default_rng(2)
        p = DeviceParams()
        for _ in range(300):
            v_bg = rng.uniform(np.nextafter(1.24, 2), np.nextafter(1.76, 0))
            i = channel_current(rng.uniform(0, 3), v_bg, rng.uniform(0, 3), rng.uniform(0, 3), p)
            assert i == 0.0

    def test_bounded_by_i_on(self):
        rng = np.random.default_rng(3)
        p = DeviceParams()
        for _ in range(500):
            i = channel_current(rng.uniform(0, 3), rng.uniform(0, 3),
                                rng.uniform(0, 3), rng.uniform(0, 3), p)
            assert abs(i) <= p.i_on + 1e-18

    def test_monotone_in_each_factor(self):
        p = DeviceParams()
        # top-gate drive (P): lower v_tg, more current
        i1 = channel_current(2.5, 0.0, 3.0, 1.0, p)
        i2 = channel_current(2.0, 0.0, 3.0, 1.0, p)
        assert i2 >= i1
        # bottom-gate drive (P): lower v_bg, more current
        i3 = channel_current(2.0, 0.6, 3.0, 1.0, p)
        assert i2 >= i3
        # channel voltage: larger |delta V|, more current up to the knee
        i4 = channel_current(2.0, 0.0, 3.0, 2.95, p)
        assert i2 >= i4

    def test_instance_off_top_gate_conducts_nothing(self):
        inst = make_instance(DeviceConfig(0, "P", 31), QuantSpec(), DeviceParams())
        # off top-gate: no current even at full channel bias
        assert channel_current(inst.v_tg, inst.v_bg, 3.0, 0.0) == 0.0

    def test_sign_encoding(self):
        # A P device rail-to-line can only inject charge into a line below vdd;
        # an N device line-to-ground can only remove charge from a line above 0.
        q, p = QuantSpec(), DeviceParams()
        pdev = make_instance(DeviceConfig(0, "P", 20), q, p)
        ndev = make_instance(DeviceConfig(0, "N", 20), q, p)
        from senseline.quantizer import level_to_vtg
        for v_line in np.linspace(0.0, 3.0, 13):
            ip = channel_current(level_to_vtg(25, "P", q), pdev.v_bg, 3.0, v_line, p)
            i_n = channel_current(level_to_vtg(25, "N", q), ndev.v_bg, v_line, 0.0, p)
            assert ip >= 0.0
            assert i_n >= 0.0


class TestInstances:
    def test_instance_off_by_default(self):
        q, p = QuantSpec(), DeviceParams()
        inst = make_instance(DeviceConfig(3, "N", 12), q, p)
        assert inst.v_tg == 0.0  # gating-off voltage for N
        assert region_of(inst.v_bg, p) == "N"
        assert inst.feature_index == 3

    def test_mismatched_windows_detected(self):
        # Quantizer window wider than the device p-window: level 0 bias lands
        # in the off band and assembly must refuse it.
        q = QuantSpec()  # spans 1.24 V
        p = DeviceParams(p_window=(0.0, 1.0), n_window=(2.0, 3.0))
        with pytest.raises(RegionMismatchError):
            make_instance(DeviceConfig(0, "P", 0), q, p)
