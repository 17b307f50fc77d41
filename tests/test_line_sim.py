import numpy as np
import pytest

from senseline import line_sim
from senseline.device import DeviceParams, channel_current, make_instance
from senseline.line_sim import (
    LineTiming,
    precharge_energy,
    simulate_batch,
    simulate_digit,
)
from senseline.quantizer import DeviceConfig, QuantSpec, level_to_vbg, level_to_vtg
from senseline.system import SystemConfig

Q = QuantSpec()
P = DeviceParams()


def make_line(specs, pair=(0, 1), params=P, **timing):
    """A one-line system; specs: list of (feature_index, dtype, w_level)."""
    L = np.zeros((64, 1), dtype=np.int64)
    for fi, dtype, level in specs:
        L[fi, 0] = level if dtype == "P" else -level
    return SystemConfig([pair], L, Q, params, LineTiming(**timing))


def levels_all(value):
    return np.full(64, value, dtype=int)


def run_line(line, levels):
    """One traced cycle of a single line at the given feature levels.

    levels / 31 are the features that quantize back to exactly these levels.
    Returns (final voltage, vote, energy, (n_steps + 1, 2) trace of t, v).
    """
    rec = simulate_digit(line, levels / Q.max_level, record_traces=True)
    return rec.line_finals[0], rec.votes[0], rec.energy, rec.line_traces[0]


class TestPrecharge:
    def test_half_rail(self):
        _, _, _, trace = run_line(make_line([(0, "P", 31)]), levels_all(31))
        assert trace[0, 1] == 1.5

    def test_trace_starts_at_origin(self):
        _, _, _, trace = run_line(make_line([]), levels_all(0))
        assert tuple(trace[0]) == (0.0, 1.5)

    def test_devices_conduct_nothing_while_gated_off(self):
        # Full-level devices at their default (gating-off) top-gate bias.
        pdev = make_instance(DeviceConfig(0, "P", 31), Q, P)
        ndev = make_instance(DeviceConfig(1, "N", 31), Q, P)
        assert channel_current(pdev.v_tg, pdev.v_bg, P.vdd, 1.5, P) == 0.0
        assert channel_current(ndev.v_tg, ndev.v_bg, 1.5, 0.0, P) == 0.0


class TestStep:
    def test_no_devices_no_change(self):
        _, _, _, trace = run_line(make_line([]), levels_all(31))
        assert np.all(trace[:, 1] == 1.5)

    def test_single_full_drive_p_steps_two_millivolts(self):
        # 2 uA into 10 fF for 10 ps moves the line by exactly 2 mV.
        _, _, _, trace = run_line(make_line([(0, "P", 31)]), levels_all(31))
        assert trace[1, 1] == pytest.approx(1.5 + 2e-3)

    def test_n_only_monotone_non_increasing(self):
        _, _, _, trace = run_line(make_line([(0, "N", 25), (1, "N", 10)]), levels_all(20))
        assert np.all(np.diff(trace[:51, 1]) <= 0)

    def test_charge_accounting_counts_p_side_only(self):
        # Matched full drives hold the line at vdd/2, so 2 uA flows from VDD
        # on every step; the n-side current to ground must not be charged.
        line = make_line([(0, "P", 31), (1, "N", 31)])
        _, _, energy, _ = run_line(line, levels_all(31))
        q = (energy - precharge_energy(line.timing, P)) / P.vdd
        assert q == pytest.approx(2e-6 * line.timing.t_classify)


class TestBuffer:
    """The comparator at vdd/2 that turns a line's final voltage into its vote."""

    def test_above_threshold(self):
        v_final, vote, _, _ = run_line(make_line([(0, "P", 1)]), levels_all(1))
        assert 1.5 < v_final < 1.6
        assert vote == 1

    def test_below_threshold(self):
        v_final, vote, _, _ = run_line(make_line([(0, "N", 1)]), levels_all(1))
        assert 1.4 < v_final < 1.5
        assert vote == -1

    def test_boundary_positive(self):
        v_final, vote, _, _ = run_line(make_line([]), levels_all(31))
        assert v_final == 1.5
        assert vote == 1


class TestClassifyLine:
    def test_p_only_votes_positive(self):
        v_final, vote, _, _ = run_line(make_line([(0, "P", 10)]), levels_all(15))
        assert vote == 1
        assert v_final > 1.5

    def test_n_only_votes_negative(self):
        v_final, vote, _, _ = run_line(make_line([(0, "N", 10)]), levels_all(15))
        assert vote == -1
        assert v_final < 1.5

    def test_zero_drive_ties_positive(self):
        v_final, vote, _, _ = run_line(make_line([(0, "P", 20), (1, "N", 20)]), levels_all(0))
        assert v_final == 1.5
        assert vote == 1

    def test_full_drive_swing_calibration(self):
        # One full-drive device moves the line 0.4 V in one classify phase
        # with default parameters (2 uA * 2 ns / 10 fF).
        v_final, _, _, _ = run_line(make_line([(0, "P", 31)]), levels_all(31))
        assert v_final == pytest.approx(1.9, abs=1e-9)

    def test_energy_includes_precharge_refill(self):
        _, _, energy, _ = run_line(make_line([]), levels_all(0))
        assert energy == pytest.approx(10e-15 * 1.5 ** 2)

    def test_energy_consistency_two_accountings(self):
        # The aggregate charge from VDD equals the per-device integral of the
        # P currents over the recorded trace.
        specs = [(0, "P", 31), (1, "P", 17), (2, "N", 22)]
        line = make_line(specs)
        levels = levels_all(24)
        _, _, energy, trace = run_line(line, levels)
        v = trace[:, 1]
        integral = 0.0
        for fi, dtype, w_level in specs:
            if dtype != "P":
                continue
            v_tg = level_to_vtg(int(levels[fi]), "P", Q)
            v_bg = level_to_vbg(w_level, "P", Q)
            i = np.array([channel_current(v_tg, v_bg, P.vdd, vk, P) for vk in v[:-1]])
            integral += float(np.sum(i) * line.timing.dt)
        assert energy - precharge_energy(line.timing, P) == pytest.approx(P.vdd * integral,
                                                                          rel=0.01)

    def test_bounded_voltage_random_lines(self):
        rng = np.random.default_rng(8)
        # Strong drives and a long phase force railing; clamps must hold.
        hot = DeviceParams(i_on=50e-6)
        for _ in range(20):
            n_dev = rng.integers(1, 8)
            specs = [(int(rng.integers(0, 64)), rng.choice(["P", "N"]), int(rng.integers(1, 32)))
                     for _ in range(n_dev)]
            specs = [(fi, dt, lv) for k, (fi, dt, lv) in enumerate(specs)
                     if fi not in [s[0] for s in specs[:k]]]
            line = make_line(specs, params=hot, t_classify=4e-9)
            _, _, _, trace = run_line(line, rng.integers(0, 32, size=64))
            assert np.all(trace[:, 1] >= 0.0)
            assert np.all(trace[:, 1] <= hot.vdd)

    def test_monotone_in_single_device_level(self):
        # Raising one P device's feature level never lowers the final voltage;
        # raising an N device's never raises it.
        line = make_line([(0, "P", 25), (1, "N", 25), (2, "P", 12)])
        for fi, order in ((0, 1), (1, -1)):
            levels = np.tile(levels_all(16), (8, 1))
            levels[:, fi] = np.arange(0, 32, 4)
            finals = simulate_batch(line, levels / Q.max_level).line_finals[:, 0]
            assert np.all(order * np.diff(finals) >= 0)

    def test_dt_halving_stable(self):
        line = make_line([(0, "P", 31), (1, "N", 29), (2, "P", 9)])
        fine = make_line([(0, "P", 31), (1, "N", 29), (2, "P", 9)], dt=5e-12)
        levels = levels_all(27)
        a, _, _, _ = run_line(line, levels)
        b, _, _, _ = run_line(fine, levels)
        assert abs(a - b) < 1e-3

    def test_exact_zero_margin_votes_positive(self):
        # Integer margins 20*15 - 20*15, 12*3 - 18*2 and 1*8 - 2*4 are exactly
        # zero: the p and n drives cancel, the line stays at vdd/2 and the
        # buffer resolves the tie to +1. The drive factors of P(1, 8) and
        # N(2, 4) differ in the last bit, far below the voltage resolution.
        for (wp, lp), (wn, ln) in (((20, 15), (20, 15)), ((12, 3), (18, 2)), ((1, 8), (2, 4))):
            levels = levels_all(0)
            levels[0], levels[1] = lp, ln
            v_final, vote, _, trace = run_line(make_line([(0, "P", wp), (1, "N", wn)]), levels)
            assert np.all(trace[:, 1] == 1.5)
            assert (v_final, vote) == (1.5, 1)

    def test_non_finite_voltage_raises(self):
        # No validated array has an infinite drive; plant one to reach the
        # integrator's final check.
        line = make_line([(0, "P", 31)])
        line.G_p[0, 0] = np.inf
        with pytest.raises(FloatingPointError, match="non-finite"), np.errstate(invalid="ignore"):
            run_line(line, levels_all(31))


class TestSimulateDigit:
    def test_tally_partition_and_cap(self, synth_system, synth_features):
        _, _, (sx, _) = synth_features
        rec = simulate_digit(synth_system, sx[0])
        assert rec.tally.sum() == 45
        assert rec.tally.max() <= 9
        assert rec.votes.shape == (45,)

    def test_deterministic(self, synth_system, synth_features):
        _, _, (sx, _) = synth_features
        a = simulate_digit(synth_system, sx[1])
        b = simulate_digit(synth_system, sx[1])
        assert np.array_equal(a.line_finals, b.line_finals)
        assert a.energy == b.energy
        assert a.predicted == b.predicted

    def test_input_shape_checked(self, synth_system):
        with pytest.raises(ValueError, match="64"):
            simulate_digit(synth_system, np.zeros(63))

    def test_traced_row_equals_batch_row(self, synth_system, synth_features):
        _, _, (sx, _) = synth_features
        batch = simulate_batch(synth_system, sx[:3])
        for i in range(3):
            rec = simulate_digit(synth_system, sx[i], record_traces=True)
            assert np.array_equal(rec.votes, batch.votes[i])
            assert np.array_equal(rec.tally, batch.tallies[i])
            assert rec.predicted == batch.predictions[i]
            assert np.array_equal(rec.line_finals, batch.line_finals[i])
            assert rec.energy == batch.energies[i]
            assert np.array_equal([tr[-1, 1] for tr in rec.line_traces], batch.line_finals[i])

    def test_row_blocks_do_not_change_results(self, synth_system, synth_features, monkeypatch):
        _, _, (sx, _) = synth_features
        whole = simulate_batch(synth_system, sx[:10])
        monkeypatch.setattr(line_sim, "BLOCK_ROWS", 4)
        blocked = simulate_batch(synth_system, sx[:10])
        assert np.array_equal(blocked.line_finals, whole.line_finals)
        assert np.array_equal(blocked.energies, whole.energies)
        rec = simulate_digit(synth_system, sx[9], record_traces=True)
        assert np.array_equal(rec.line_finals, blocked.line_finals[9])
        assert rec.energy == blocked.energies[9]

    def test_trace_shape_origin_and_time_grid(self, synth_system, synth_features):
        _, _, (sx, _) = synth_features
        rec = simulate_digit(synth_system, sx[0], record_traces=True)
        base = synth_system.timing
        assert len(rec.line_traces) == len(synth_system.pairs)
        for tr in rec.line_traces:
            assert tr.shape == (base.n_steps + 1, 2)
            assert tuple(tr[0]) == (0.0, P.vdd / 2)
            assert np.array_equal(tr[:, 0], np.arange(base.n_steps + 1) * base.dt)
        assert simulate_digit(synth_system, sx[0]).line_traces is None


class TestLineConfig:
    def test_requires_ten_steps(self):
        with pytest.raises(ValueError, match="10"):
            LineTiming(dt=1e-9)

    @pytest.mark.parametrize("dt", [3e-12, 7e-12, 2e-9 / 199.5])
    def test_dt_must_divide_t_classify(self, dt):
        with pytest.raises(ValueError, match="divide"):
            LineTiming(dt=dt)

    @pytest.mark.parametrize("dt,steps", [(10e-12, 200), (5e-12, 400), (4e-12, 500)])
    def test_dt_dividing_up_to_rounding_accepted(self, dt, steps):
        # 2e-9 / dt is 200.00000000000003, 400.00000000000006, 500.00000000000006.
        assert LineTiming(dt=dt).n_steps == steps

    def test_ten_steps_a_hair_under_ten_accepted(self):
        dt = 3.885938094000595e-13
        assert dt * 10 / dt < 10
        assert LineTiming(t_classify=dt * 10, dt=dt).n_steps == 10

    def test_requires_positive_capacitance(self):
        with pytest.raises(ValueError, match="c_line"):
            LineTiming(c_line=0.0)

    @pytest.mark.parametrize("name", ["c_line", "t_precharge", "t_classify", "dt"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, -1e-12])
    def test_requires_finite_positive_fields(self, name, value):
        with pytest.raises(ValueError, match=name):
            LineTiming(**{name: value})
