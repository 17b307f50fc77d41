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
from senseline.quantizer import (
    DeviceConfig,
    QuantSpec,
    level_to_vbg,
    level_to_vtg,
    quantize_unit,
)
from senseline.system import SystemConfig, quantized_margins

Q = QuantSpec()
P = DeviceParams()


def make_line(specs, pair=(0, 1), params=P, **timing):
    """A one-line system; specs: list of (feature_index, dtype, w_level)."""
    L = np.zeros((64, 1), dtype=np.int64)
    for fi, dtype, level in specs:
        L[fi, 0] = level if dtype == "P" else -level
    return SystemConfig([pair], L, Q, params, LineTiming(**timing))


def integrate_reference(s, X):
    """(line_finals, energies) of a batch, integrated step by step.

    The explicit-Euler recurrence that simulate_batch evaluates in closed
    form: drive sums from the int64 level products, i_on / max_level**2 *
    (levels @ max(+-L, 0)), then per step i_in = p * min((vdd - v) / v_dsat,
    1), i_out = n * min(v / v_dsat, 1), q += i_in * dt and v = clip(v +
    (i_in - i_out) * dt / c_line, 0, vdd).
    """
    params, timing, vdd = s.params, s.timing, s.quant.vdd
    levels = quantize_unit(np.atleast_2d(X), s.quant)
    unit = params.i_on / s.quant.max_level ** 2
    p_sum = (levels @ np.maximum(s.L, 0)).astype(np.float64) * unit
    n_sum = (levels @ np.maximum(-s.L, 0)).astype(np.float64) * unit
    v = np.full_like(p_sum, vdd / 2)
    q = np.zeros_like(v)
    scale = timing.dt / timing.c_line
    for _ in range(timing.n_steps):
        i_in = np.minimum((vdd - v) / params.v_dsat, 1.0) * p_sum
        i_out = np.minimum(v / params.v_dsat, 1.0) * n_sum
        q += i_in * timing.dt
        v = np.clip(v + (i_in - i_out) * scale, 0.0, vdd)
    e_pre = sum(precharge_energy(timing, vdd) for _ in s.pairs)
    return v, vdd * q.sum(axis=1) + e_pre


def assert_matches_reference(s, X):
    """simulate_batch matches integrate_reference: equal votes, finals within
    1e-12 V and energies within 1e-13 relative. Returns its result."""
    res = simulate_batch(s, X)
    finals, energies = integrate_reference(s, X)
    assert np.array_equal(res.votes, np.where(finals >= s.quant.vdd / 2, 1, -1))
    np.testing.assert_allclose(res.line_finals, finals, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.energies, energies, rtol=1e-13, atol=0)
    return res


def planted_params(i_on):
    """Default DeviceParams with an i_on that validation rejects, planted to
    reach the simulators' stability guard: no validated array has a
    non-finite drive."""
    params = DeviceParams()
    object.__setattr__(params, "i_on", i_on)
    return params


def levels_all(value):
    return np.full(64, value, dtype=int)


def run_line(line, levels):
    """One traced cycle of a single line at the given feature levels.

    levels / 31 are the features that quantize back to exactly these levels.
    Returns (final voltage, vote, energy, (n_steps + 1, 2) trace of t, v),
    with t = j * dt.
    """
    res = simulate_batch(line, levels[None, :] / Q.max_level, record_traces=True)
    t = np.arange(line.timing.n_steps + 1) * line.timing.dt
    trace = np.column_stack([t, res.line_traces[:, 0, 0]])
    return res.line_finals[0, 0], res.votes[0, 0], res.energies[0], trace


class TestPrecharge:
    def test_half_rail(self):
        _, _, _, trace = run_line(make_line([(0, "P", 31)]), levels_all(31))
        assert trace[0, 1] == 1.5

    def test_trace_starts_at_origin(self):
        _, _, _, trace = run_line(make_line([]), levels_all(0))
        assert tuple(trace[0]) == (0.0, 1.5)

    def test_devices_conduct_nothing_while_gated_off(self):
        # Full-level devices at their default (gating-off) top-gate bias.
        pdev = make_instance(DeviceConfig(0, "P", 31), Q)
        ndev = make_instance(DeviceConfig(1, "N", 31), Q)
        assert channel_current(pdev.v_tg, pdev.v_bg, Q.vdd, 1.5, P) == 0.0
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
        q = (energy - precharge_energy(line.timing, Q.vdd)) / Q.vdd
        assert q == pytest.approx(2e-6 * line.timing.t_classify)


class TestDriveSums:
    """The simulator's drive sums against the device model they stand for."""

    @pytest.mark.parametrize("dtype,v_a,v_b,q", [
        pytest.param(dtype, v_a, v_b, q, id=f"{dtype}-{v_a}-{v_b}")
        for q in (Q, QuantSpec(vdd=4.0))
        for dtype, v_a, v_b in (("P", q.vdd, q.vdd / 2), ("N", q.vdd / 2, 0.0))])
    def test_device_current_is_the_level_product(self, dtype, v_a, v_b, q):
        # In saturation a level-w device at feature level x conducts
        # i_on * (x/31) * (w/31), which is the drive sum of a one-device line,
        # at any supply: the device model reads its windows from q.
        # The device model's biases, vdd - (vdd - x * step) for a p-type top
        # gate, round at vdd's ulp: up to 1.8e-15 relative at low levels.
        x = np.arange(q.levels)[:, None]
        w = np.arange(1, q.levels)[None, :]
        current = np.array([[channel_current(level_to_vtg(xi, dtype, q),
                                             level_to_vbg(wi, dtype, q), v_a, v_b, P, q)
                             for wi in range(1, q.levels)] for xi in range(q.levels)])
        L = np.arange(1, q.levels)[None, :] * (1 if dtype == "P" else -1)
        line = SystemConfig([(0, 1)] * L.shape[1], L, q, P)
        p_sum, n_sum = line_sim._drive_sums(line, x)
        drive = p_sum if dtype == "P" else n_sum
        assert not np.any(p_sum if dtype == "N" else n_sum)
        expected = P.i_on * (x / q.max_level) * (w / q.max_level)
        np.testing.assert_allclose(current, expected, rtol=2e-15, atol=0)
        np.testing.assert_allclose(drive, expected, rtol=1e-15, atol=0)


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
            i = np.array([channel_current(v_tg, v_bg, Q.vdd, vk, P) for vk in v[:-1]])
            integral += float(np.sum(i) * line.timing.dt)
        assert energy - precharge_energy(line.timing, Q.vdd) == pytest.approx(
            Q.vdd * integral, rel=0.01)

    def test_bounded_voltage_random_lines(self):
        rng = np.random.default_rng(8)
        # Strong drives and a long phase force railing; the line must stay in
        # [0, vdd]. A line whose worst-case Euler factor leaves (0, 1] would
        # overshoot, and the guard rejects it.
        hot = DeviceParams(i_on=50e-6)
        stable = 0
        for _ in range(20):
            n_dev = rng.integers(1, 8)
            specs = [(int(rng.integers(0, 64)), rng.choice(["P", "N"]), int(rng.integers(1, 32)))
                     for _ in range(n_dev)]
            specs = [(fi, dt, lv) for k, (fi, dt, lv) in enumerate(specs)
                     if fi not in [s[0] for s in specs[:k]]]
            line = make_line(specs, params=hot, t_classify=4e-9)
            levels = rng.integers(0, 32, size=64)
            drive = sum(lv for _, _, lv in specs) / Q.max_level
            if line_sim.euler_factor(line.timing, hot, drive) <= 0:
                with pytest.raises(ValueError, match="unstable Euler step"):
                    run_line(line, levels)
                continue
            stable += 1
            _, _, _, trace = run_line(line, levels)
            assert np.all(trace[:, 1] >= 0.0)
            assert np.all(trace[:, 1] <= Q.vdd)
        assert 10 <= stable < 20

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
        # zero: the p and n drive sums are equal, the line stays at vdd/2 and
        # the buffer resolves the tie to +1.
        for (wp, lp), (wn, ln) in (((20, 15), (20, 15)), ((12, 3), (18, 2)), ((1, 8), (2, 4))):
            levels = levels_all(0)
            levels[0], levels[1] = lp, ln
            v_final, vote, _, trace = run_line(make_line([(0, "P", wp), (1, "N", wn)]), levels)
            assert np.all(trace[:, 1] == 1.5)
            assert (v_final, vote) == (1.5, 1)

    def test_non_finite_voltage_raises(self):
        # An infinite drive has Euler factor -inf, so the guard stops it
        # before any voltage is formed.
        line = make_line([(0, "P", 31)], params=planted_params(np.inf))
        with pytest.raises(ValueError, match="unstable Euler step"):
            run_line(line, levels_all(31))


class TestLinearShortcut:
    """The closed form's linear run, regime crossings and rails against integrate_reference.

    A full-level device with a full-level feature has drive 1, so one step
    moves its line by i_on * dt / c_line volts. At the default vdd 3 V and
    v_dsat 0.2 V, both current clamps saturate while 0.2 <= v <= 2.8, and
    the guard admits a one-device line while its step is below v_dsat.
    """

    @staticmethod
    def two_lines(step_volts, v_dsat=P.v_dsat, **timing):
        """Line 0-1 with one full P device, line 0-2 with one full N device."""
        t = LineTiming(**timing)
        params = DeviceParams(i_on=step_volts * t.c_line / t.dt, v_dsat=v_dsat)
        L = np.zeros((64, 2), dtype=np.int64)
        L[0] = 31, -31
        return SystemConfig([(0, 1), (0, 2)], L, Q, params, t)

    def test_lines_leave_linear_regime_at_random_steps(self):
        # The lines cross 2.8 V (and 0.2 V) between steps k - 1 and k: the
        # first k - 1 steps are linear, the rest are not. k = 8 is the
        # earliest crossing with a step below v_dsat.
        n_steps = LineTiming().n_steps
        rng = np.random.default_rng(5)
        for k in [n_steps - 1, n_steps - 2, 8, *rng.integers(8, n_steps, size=5)]:
            line = self.two_lines(1.3 / (k - 0.5))
            res = assert_matches_reference(line, levels_all(31)[None, :] / Q.max_level)
            assert res.line_finals[0, 0] > Q.vdd - P.v_dsat
            assert res.line_finals[0, 1] < P.v_dsat

    def test_mixed_batch_across_blocks(self, monkeypatch):
        # Random lines and digits, some linear throughout and some not, in
        # blocks of 4 rows, which change no bits.
        rng = np.random.default_rng(6)
        L = rng.integers(-31, 32, size=(64, 10)) * (rng.random((64, 10)) < 0.1)
        t = LineTiming()
        params = DeviceParams(i_on=0.03 * t.c_line / t.dt)
        line = SystemConfig([(0, k) for k in range(1, 10)] + [(1, 2)], L, Q, params, t)
        X = rng.integers(0, 32, size=(23, 64)) / Q.max_level
        whole = simulate_batch(line, X)
        monkeypatch.setattr(line_sim, "BLOCK_ROWS", 4)
        res = assert_matches_reference(line, X)
        assert np.array_equal(res.line_finals, whole.line_finals)
        assert np.array_equal(res.energies, whole.energies)
        left = (res.line_finals < P.v_dsat) | (res.line_finals > Q.vdd - P.v_dsat)
        assert 0 < left.sum() < left.size

    @pytest.mark.parametrize("step_volts", [0.15, 0.3])
    def test_lines_reach_a_rail(self, step_volts):
        # Within 20 of the 200 steps, 0.15 V steps settle onto the rails.
        # 0.3 V steps (Euler factor -0.5) would overshoot them, and the
        # guard rejects the array.
        line = self.two_lines(step_volts)
        X = levels_all(31)[None, :] / Q.max_level
        if step_volts > P.v_dsat:
            with pytest.raises(ValueError, match="factor -0.5 is outside"):
                simulate_batch(line, X)
            return
        res = assert_matches_reference(line, X)
        assert res.line_finals[0] == pytest.approx([Q.vdd, 0.0], abs=1e-12)

    def test_last_step_jumps_past_the_rail(self):
        # Ten 0.16 V steps from 1.5 V at v_dsat 10 mV would leave the lines
        # at 2.94 V and 0.06 V after nine, still linear, and overshoot the
        # rails on the tenth. The guard rejects such a step, with or without
        # traces.
        line = self.two_lines(0.16, v_dsat=0.01, t_classify=1e-10)
        with pytest.raises(ValueError, match="unstable Euler step on line 0-1"):
            simulate_batch(line, levels_all(31)[None, :] / Q.max_level)
        with pytest.raises(ValueError, match="unstable Euler step on line 0-1"):
            simulate_batch(line, levels_all(31)[None, :] / Q.max_level, record_traces=True)

    @pytest.mark.parametrize("v_dsat", [1.5, 2.0, 3.0])
    def test_v_dsat_at_least_half_vdd_takes_no_shortcut(self, v_dsat):
        # At v_dsat > vdd/2 no voltage saturates both clamps: every line
        # starts in both triode regions, and at 2.0 V a strongly driven one
        # crosses into the upper triode regime. At exactly vdd/2 only vdd/2
        # itself is linear. Line 0-3 has both a p- and an n-type device.
        t = LineTiming()
        params = DeviceParams(i_on=0.02 * t.c_line / t.dt, v_dsat=v_dsat)
        L = np.zeros((64, 3), dtype=np.int64)
        L[0] = 31, -31, 31
        L[1, 2] = -20
        line = SystemConfig([(0, 1), (0, 2), (0, 3)], L, Q, params, t)
        levels = np.array([levels_all(31), levels_all(7), levels_all(0), levels_all(31)])
        levels[3, 1] = 4
        res = assert_matches_reference(line, levels / Q.max_level)
        if v_dsat > Q.vdd / 2:
            # Which lines get further than v_dsat from the rail they leave.
            crossed = np.maximum(res.line_finals, Q.vdd - res.line_finals) > v_dsat
            assert crossed.tolist() == ([[True, True, False], [True, True, False],
                                         [False] * 3, [True] * 3] if v_dsat == 2.0
                                        else [[False] * 3] * 4)
        assert res.votes[:, 0].tolist() == [1, 1, 1, 1]
        assert res.votes[:, 1].tolist() == [-1, -1, 1, -1]

    def test_exact_ties_stay_at_half_vdd(self):
        # The pairs of test_exact_zero_margin_votes_positive, batched.
        L = np.zeros((64, 3), dtype=np.int64)
        L[0], L[1] = (20, 12, 1), (-20, -18, -2)
        line = SystemConfig([(0, 1), (0, 2), (0, 3)], L, Q)
        rows = np.zeros((3, 64))
        rows[:, :2] = (15, 15), (3, 2), (8, 4)
        res = assert_matches_reference(line, rows / Q.max_level)
        assert np.all(np.diag(res.line_finals) == Q.vdd / 2)
        assert np.all(np.diag(res.votes) == 1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_drive_raises_in_batch(self, bad):
        # Euler factor -inf or NaN: neither lies in (0, 1].
        line = make_line([(0, "P", 31)], params=planted_params(bad))
        with pytest.raises(ValueError, match="unstable Euler step"):
            simulate_batch(line, np.tile(levels_all(31) / Q.max_level, (3, 1)))


class TestLevelInputs:
    """The simulators and the integer oracle take feature levels as well as normalized inputs."""

    def test_levels_give_the_float_inputs_results_bit_for_bit(self, synth_system,
                                                               synth_features):
        _, _, (sx, _) = synth_features
        X = sx[:700]  # more than one block of rows
        levels = quantize_unit(X, Q).astype(np.uint8)
        a, b = simulate_batch(synth_system, X), simulate_batch(synth_system, levels=levels)
        for field in ("votes", "tallies", "predictions", "energies", "line_finals"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(quantized_margins(synth_system, X),
                              quantized_margins(synth_system, levels=levels))
        x = simulate_batch(synth_system, X[:1], record_traces=True)
        y = simulate_batch(synth_system, record_traces=True, levels=levels[:1])
        assert x.energies == y.energies and np.array_equal(x.line_finals, y.line_finals)
        assert np.array_equal(x.line_traces, y.line_traces)

    @pytest.mark.parametrize("call", [
        lambda s, a: simulate_batch(s, a / Q.max_level),
        lambda s, a: simulate_batch(s, levels=a),
        lambda s, a: quantized_margins(s, a / Q.max_level),
        lambda s, a: quantized_margins(s, levels=a),
        lambda s, a: simulate_batch(s, levels=a[0]),
    ], ids=["batch", "batch-levels", "margins", "margins-levels", "digit-levels"])
    def test_width_other_than_the_arrays_names_both(self, synth_system, call):
        with pytest.raises(ValueError, match=r"\(n, 64\) inputs .* got shape \((5, )?63,?\)"):
            call(synth_system, np.ones((5, 63), dtype=np.int64))

    @pytest.mark.parametrize("levels", [np.full((2, 64), 32), np.full((2, 64), -1),
                                        np.full((2, 64), 3.0)], ids=["above", "below", "float"])
    def test_levels_outside_the_quantizer_rejected(self, synth_system, levels):
        with pytest.raises(ValueError, match=r"integers in \[0, 31\]"):
            simulate_batch(synth_system, levels=levels)
        with pytest.raises(ValueError, match=r"integers in \[0, 31\]"):
            quantized_margins(synth_system, levels=levels)

    def test_exactly_one_input(self, synth_system):
        with pytest.raises(TypeError, match="exactly one"):
            simulate_batch(synth_system)
        with pytest.raises(TypeError, match="exactly one"):
            simulate_batch(synth_system, np.zeros((1, 64)), levels=np.zeros((1, 64), np.uint8))


class TestSimulateDigit:
    """One digit's row of simulate_batch, with and without its traces."""

    def test_tally_partition_and_cap(self, synth_system, synth_features):
        _, _, (sx, _) = synth_features
        rec = simulate_batch(synth_system, sx[:1])
        assert rec.tallies[0].sum() == 45
        assert rec.tallies[0].max() <= 9
        assert rec.votes[0].shape == (45,)

    def test_deterministic(self, synth_system, synth_features):
        _, _, (sx, _) = synth_features
        a = simulate_batch(synth_system, sx[1:2])
        b = simulate_batch(synth_system, sx[1:2])
        assert np.array_equal(a.line_finals, b.line_finals)
        assert a.energies == b.energies
        assert a.predictions == b.predictions

    def test_input_shape_checked(self, synth_system):
        with pytest.raises(ValueError, match="64"):
            simulate_batch(synth_system, np.zeros(63))

    def test_traced_row_equals_batch_row(self, synth_system, synth_features):
        _, _, (sx, _) = synth_features
        batch = simulate_batch(synth_system, sx[:3])
        for i in range(3):
            rec = simulate_batch(synth_system, sx[i:i + 1], record_traces=True)
            assert np.array_equal(rec.votes[0], batch.votes[i])
            assert np.array_equal(rec.tallies[0], batch.tallies[i])
            assert rec.predictions[0] == batch.predictions[i]
            assert np.array_equal(rec.line_finals[0], batch.line_finals[i])
            assert rec.energies[0] == batch.energies[i]
            assert np.array_equal(rec.line_traces[-1, 0], batch.line_finals[i])

    def test_simulate_digit_is_row_0_of_the_batch(self, synth_system, synth_features):
        _, _, (sx, _) = synth_features
        batch = simulate_batch(synth_system, sx[:1], record_traces=True)
        for rec in (simulate_digit(synth_system, sx[0], record_traces=True),
                    simulate_digit(synth_system, record_traces=True,
                                   levels=quantize_unit(sx[0], Q))):
            for field in ("votes", "tallies", "predictions", "energies", "line_finals",
                          "line_traces"):
                assert np.array_equal(getattr(rec, field), getattr(batch, field))
        assert simulate_digit(synth_system, sx[0]).line_traces is None
        with pytest.raises(ValueError, match=r"\(64,\) feature vector"):
            simulate_digit(synth_system, sx[:2])

    def test_row_blocks_do_not_change_results(self, synth_system, synth_features, monkeypatch):
        _, _, (sx, _) = synth_features
        whole = simulate_batch(synth_system, sx[:10])
        monkeypatch.setattr(line_sim, "BLOCK_ROWS", 4)
        blocked = simulate_batch(synth_system, sx[:10])
        assert np.array_equal(blocked.line_finals, whole.line_finals)
        assert np.array_equal(blocked.energies, whole.energies)
        rec = simulate_batch(synth_system, sx[9:10], record_traces=True)
        assert np.array_equal(rec.line_finals[0], blocked.line_finals[9])
        assert rec.energies[0] == blocked.energies[9]

    def test_traces_stitch_across_row_blocks(self, synth_system, synth_features,
                                             monkeypatch):
        # Blocks of 4 rows fill 10 rows' traces in three pieces, the last
        # one short; each row's trace is its own one-row call's.
        _, _, (sx, _) = synth_features
        rows = [simulate_batch(synth_system, sx[i:i + 1], record_traces=True) for i in range(10)]
        monkeypatch.setattr(line_sim, "BLOCK_ROWS", 4)
        blocked = simulate_batch(synth_system, sx[:10], record_traces=True)
        assert blocked.line_traces.shape == (synth_system.timing.n_steps + 1, 10, 45)
        assert np.array_equal(blocked.line_traces,
                              np.concatenate([r.line_traces for r in rows], axis=1))
        assert np.array_equal(blocked.line_traces[-1], blocked.line_finals)
        assert np.array_equal(blocked.energies, [r.energies[0] for r in rows])

    def test_trace_shape_origin_and_time_grid(self, synth_system, synth_features):
        # The time axis, t = j * dt, is formatted by `simulate` (test_cli
        # TestTraceBytes); the record holds the voltages at those times.
        _, _, (sx, _) = synth_features
        rec = simulate_batch(synth_system, sx[:1], record_traces=True)
        base = synth_system.timing
        assert rec.line_traces.shape == (base.n_steps + 1, 1, len(synth_system.pairs))
        assert np.all(rec.line_traces[0] == Q.vdd / 2)
        assert simulate_batch(synth_system, sx[:1]).line_traces is None


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
