import numpy as np
import pytest

from conftest import sweep_points
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
from senseline.trainer import all_pairs
from test_trainer import assert_bits_equal

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


def lines_reference(s, levels, record):
    """(finals, q, voltages) of (rows, features) feature levels, every regime at every entry.

    The closed form of the line_sim docstring in its plainest form: the
    drive sums from one float64 gemm per polarity, the upper-regime tail
    evaluated at every entry and picked with np.where, and the falling
    lines' vdd - x picked with np.where. _lines must reproduce it bit for
    bit.
    """
    levels = levels.astype(np.float64)
    unit = s.params.i_on / s.quant.max_level ** 2
    p, n = (levels @ np.maximum(sign * s.L, 0).astype(np.float64) * unit for sign in (1, -1))
    vdd, v_dsat, c_line, dt = s.quant.vdd, s.params.v_dsat, s.timing.c_line, s.timing.dt
    half, r, n_steps = vdd / 2, dt / c_line, s.timing.n_steps
    u, d = np.maximum(p, n), np.minimum(p, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        if v_dsat <= half:
            step = r * (u - d)
            m = np.fmin(np.floor((half - v_dsat) / step) + 1, n_steps)
            down = n_steps * dt * d

            def start(k):
                return half + k * step
        else:
            log_b = np.log1p(-r * (u + d) / v_dsat)
            g = np.where(u + d > 0, vdd * (u - d) / (2 * (u + d)), 0.0)
            m = np.fmin(np.ceil(np.log1p((half - v_dsat) / g) / log_b), n_steps)
            geo = np.where(log_b < 0, np.expm1(m * log_b) / np.expm1(log_b), m)
            down = dt * d * (n_steps - m + (m * half + g * (m - geo)) / v_dsat)

            def start(k):
                return half - g * np.expm1(k * log_b)
        x_m = start(m)
        log_a = np.log1p(-r * u / v_dsat)
        x_fix = vdd - v_dsat * d / u

        def voltage(k):
            x = np.where(k <= m, start(k),
                         x_fix + (x_m - x_fix) * np.exp(np.maximum(k - m, 0) * log_a))
            return np.where(p >= n, x, vdd - x)

    finals = voltage(n_steps)
    q = down + c_line * np.maximum(finals - half, 0.0)
    voltages = voltage(np.arange(n_steps + 1)[:, None, None]) if record else None
    return finals, q, voltages


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
        p_sum, n_sum = line_sim._drive_sums(line, *line_sim.level_products(line, x))
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


class TestClosedFormBits:
    """_lines on level products against lines_reference, bit for bit.

    The upper-regime tail is evaluated only where a line leaves its start
    regime, the falling lines' select and the votes are formed otherwise,
    and none of it may move a bit of the finals, charges, energies, votes
    or traces.
    """

    @staticmethod
    def assert_reference_bits(s, levels):
        """_lines and simulate_batch give lines_reference's bits; returns its finals."""
        finals, q, voltages = lines_reference(s, levels, record=True)
        products = line_sim.level_products(s, levels)
        got = line_sim._lines(s, *products, True)
        for a, b in zip(got, (finals, q, voltages)):
            assert_bits_equal(a, b)
        res = simulate_batch(s, products=products, record_traces=True)
        vdd = s.quant.vdd
        e_pre = sum(precharge_energy(s.timing, vdd) for _ in s.pairs)
        assert_bits_equal(res.line_finals, finals)
        assert_bits_equal(res.line_traces, voltages)
        assert_bits_equal(res.energies, vdd * q.sum(axis=1) + e_pre)
        assert res.votes.dtype == np.int64
        assert np.array_equal(res.votes, np.where(finals >= vdd / 2, 1, -1))
        return finals

    @staticmethod
    def random_array(rng, v_dsat, timing=LineTiming(), n_lines=12, rows=40):
        """(system, levels): a random array whose worst-case Euler factor lies in
        (0.05, 0.95), each line's devices p-type with its own probability, so
        lines range from balanced to one-sided. Line 0 has no devices, line 1
        ties on every row (12 x 3j against 18 x 2j) and row 0 has every
        feature at level 0."""
        sign = np.where(rng.random((64, n_lines)) < rng.random(n_lines), 1, -1)
        L = sign * rng.integers(1, 32, size=(64, n_lines)) * (rng.random((64, n_lines)) < 0.3)
        L[:, :2] = 0
        L[:2, 1] = 12, -18
        levels = rng.integers(0, 32, size=(rows, 64))
        j = rng.integers(0, 11, size=rows)
        levels[:, 0], levels[:, 1] = 3 * j, 2 * j
        levels[0] = 0
        drive = np.abs(L).sum(axis=0).max() / Q.max_level
        i_on = rng.uniform(0.05, 0.95) * timing.c_line * v_dsat / (timing.dt * drive)
        return SystemConfig(all_pairs()[:n_lines], L, Q, DeviceParams(i_on=i_on, v_dsat=v_dsat),
                            timing), levels

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("v_dsat", [0.2, 0.9, Q.vdd / 2, 2.0, 3.0])
    def test_random_arrays(self, v_dsat, seed):
        # At and below vdd/2 the start regime is linear, above it both-triode;
        # the lines leave it at data-dependent steps, or never.
        s, levels = self.random_array(np.random.default_rng(seed), v_dsat)
        finals = self.assert_reference_bits(s, levels)
        assert np.all(finals[:, :2] == Q.vdd / 2) and np.all(finals[0] == Q.vdd / 2)
        left = np.maximum(finals, Q.vdd - finals) > max(v_dsat, Q.vdd - v_dsat)
        if v_dsat < 3.0:  # at v_dsat = vdd no line can leave both-triode
            assert 0 < left.sum() < left.size

    @pytest.mark.parametrize("point", sweep_points())
    def test_sweep_points(self, point):
        # perfbench's line_sweep points, on a dense array at each point's
        # line and device, as they are: every point is stable for any
        # 64-feature array.
        c_line, dt, v_dsat, i_on = point
        rng = np.random.default_rng(7)
        L = rng.integers(-31, 32, size=(64, 45))
        s = SystemConfig(all_pairs(), L, Q, DeviceParams(i_on=i_on, v_dsat=v_dsat),
                         LineTiming(c_line=c_line, dt=dt, t_classify=2e-9))
        self.assert_reference_bits(s, rng.integers(0, 32, size=(30, 64)))

    def test_lines_that_leave_at_every_step(self):
        # TestLinearShortcut's two lines, crossing out of the linear regime
        # at each step count in turn, and one row that never drives them.
        n_steps = LineTiming().n_steps
        for k in range(8, n_steps + 2):
            line = TestLinearShortcut.two_lines(1.3 / (k - 0.5))
            self.assert_reference_bits(line, np.vstack([levels_all(31), levels_all(0)]))


class TestLevelProducts:
    """The exact integer products that feed both the drive sums and the margins."""

    @pytest.mark.parametrize("bits,n_features,dtype", [
        (5, 64, np.uint16), (8, 784, np.uint32), (23, 64, np.uint64)])
    def test_narrowest_exact_type_at_the_exact_sum_edges(self, bits, n_features, dtype):
        # A full-scale line of each polarity reaches features * max_level**2,
        # which the next narrower unsigned type cannot hold.
        q = QuantSpec(bits=bits, step_volts=1e-9)
        rng = np.random.default_rng(bits)
        L = rng.integers(-q.max_level, q.max_level + 1, size=(n_features, 4))
        L[:, 0], L[:, 1] = q.max_level, -q.max_level
        s = SystemConfig(all_pairs()[:4], L, q)
        levels = rng.integers(0, q.max_level + 1, size=(5, n_features))
        levels[0] = q.max_level
        P, N = line_sim.level_products(s, levels)
        top = n_features * q.max_level ** 2
        narrower = np.dtype(dtype).itemsize // 2
        assert P.dtype == N.dtype == dtype
        assert np.iinfo(dtype).max >= top > np.iinfo(f"u{narrower}").max
        assert (P[0, 0], N[0, 1]) == (top, top)
        expected = levels @ L
        assert expected.dtype == np.int64
        assert np.array_equal(P.astype(np.int64) - N.astype(np.int64), expected)
        assert np.array_equal(quantized_margins(s, products=(P, N)), expected)

    def test_given_products_give_the_levels_results(self, synth_system, synth_features):
        # The products of the inputs' levels give the inputs' results bit
        # for bit, over more than one block of rows and with traces.
        _, _, (sx, _) = synth_features
        X = sx[:700]
        products = line_sim.level_products(synth_system, quantize_unit(X, Q).astype(np.uint8))
        a, b = simulate_batch(synth_system, X), simulate_batch(synth_system, products=products)
        for field in ("votes", "tallies", "predictions", "energies", "line_finals"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(quantized_margins(synth_system, X),
                              quantized_margins(synth_system, products=products))
        x = simulate_batch(synth_system, X[:1], record_traces=True)
        y = simulate_batch(synth_system, record_traces=True,
                           products=tuple(side[:1] for side in products))
        assert x.energies == y.energies and np.array_equal(x.line_finals, y.line_finals)
        assert np.array_equal(x.line_traces, y.line_traces)

    @pytest.mark.parametrize("products,message", [
        (lambda P, N: (P.astype(np.int64), N.astype(np.int64)), "unsigned"),
        (lambda P, N: (P, N[:, :3]), r"\(n, 45\)"),
        (lambda P, N: (P[0], N[0]), r"\(n, 45\)"),
    ], ids=["signed", "width", "one-row"])
    def test_malformed_products_rejected(self, synth_system, products, message):
        P, N = line_sim.level_products(synth_system, np.ones((3, 64), np.uint8))
        with pytest.raises(ValueError, match=message):
            simulate_batch(synth_system, products=products(P, N))
        with pytest.raises(ValueError, match=message):
            quantized_margins(synth_system, products=products(P, N))

    def test_products_with_another_input_rejected(self, synth_system):
        levels = np.ones((3, 64), np.uint8)
        products = line_sim.level_products(synth_system, levels)
        with pytest.raises(TypeError, match="exactly one"):
            simulate_batch(synth_system, levels / Q.max_level, products=products)
        with pytest.raises(TypeError, match="exactly one"):
            quantized_margins(synth_system, levels / Q.max_level, products=products)


class TestLevelInputs:
    """The simulators and the integer oracle check their normalized inputs."""

    @pytest.mark.parametrize("call", [
        lambda s, a: simulate_batch(s, a / Q.max_level),
        lambda s, a: quantized_margins(s, a / Q.max_level),
        lambda s, a: simulate_batch(s, a[0] / Q.max_level),
        lambda s, a: simulate_digit(s, a[0] / Q.max_level),
    ], ids=["batch", "margins", "batch-one-row", "digit"])
    def test_width_other_than_the_arrays_names_both(self, synth_system, call):
        with pytest.raises(ValueError, match=r"\(n, 64\) inputs .* got shape \((5, )?63,?\)"):
            call(synth_system, np.ones((5, 63), dtype=np.int64))

    def test_exactly_one_input(self, synth_system):
        with pytest.raises(TypeError, match="exactly one"):
            simulate_batch(synth_system)
        with pytest.raises(TypeError, match="exactly one"):
            quantized_margins(synth_system)


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
        rec = simulate_digit(synth_system, sx[0], record_traces=True)
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

    @staticmethod
    def row_bytes(s):
        """Bytes of one row of a recording block's (n_steps + 1) x lines float64 temporaries."""
        return (s.timing.n_steps + 1) * len(s.pairs) * 8

    def test_traces_stitch_across_row_blocks(self, synth_system, synth_features,
                                             monkeypatch):
        # Blocks of 4 rows fill 10 rows' traces in three pieces, the last
        # one short; each row's trace is its own one-row call's.
        _, _, (sx, _) = synth_features
        rows = [simulate_batch(synth_system, sx[i:i + 1], record_traces=True) for i in range(10)]
        monkeypatch.setattr(line_sim, "TRACE_BLOCK_BYTES", 5 * self.row_bytes(synth_system) - 1)
        blocked = simulate_batch(synth_system, sx[:10], record_traces=True)
        assert blocked.line_traces.shape == (synth_system.timing.n_steps + 1, 10, 45)
        assert np.array_equal(blocked.line_traces,
                              np.concatenate([r.line_traces for r in rows], axis=1))
        assert np.array_equal(blocked.line_traces[-1], blocked.line_finals)
        assert np.array_equal(blocked.energies, [r.energies[0] for r in rows])

    @pytest.mark.parametrize("budget_rows,blocks", [(3, [3, 3, 3, 1]), (0.5, [1] * 10),
                                                    (2000, [10])])
    def test_recording_blocks_are_sized_by_bytes(self, synth_system, synth_features,
                                                 monkeypatch, budget_rows, blocks):
        # A recording block holds as many rows as TRACE_BLOCK_BYTES allows,
        # and at least one, whatever BLOCK_ROWS says; unrecorded blocks keep
        # BLOCK_ROWS.
        _, _, (sx, _) = synth_features
        sizes, lines = [], line_sim._lines
        monkeypatch.setattr(line_sim, "_lines", lambda s, P, N, record: sizes.append(len(P))
                            or lines(s, P, N, record))
        monkeypatch.setattr(line_sim, "TRACE_BLOCK_BYTES",
                            int(budget_rows * self.row_bytes(synth_system)))
        monkeypatch.setattr(line_sim, "BLOCK_ROWS", 4)
        simulate_batch(synth_system, sx[:10], record_traces=True)
        assert sizes == blocks
        sizes.clear()
        simulate_batch(synth_system, sx[:10])
        assert sizes == [4, 4, 2]

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
