"""Transient simulation of the per-classifier sensing lines.

Each binary classifier owns one capacitive sensing line. A classification
cycle has two phases: precharge, which resets the line to vdd/2 with every
device gated off, and classify, which applies the feature-derived top-gate
biases so p-type devices pump charge in from VDD while n-type devices drain
it to ground. The line voltage integrates the signed feature-weight
products; a non-inverting buffer snaps the final voltage to a rail and that
is the classifier's vote.

Every device on a line sees the same channel voltage, so a line reduces to
one p-side and one n-side drive current per digit, p and n. In saturation
a device of weight level w at feature level x drives i_on * x * w /
max_level**2, so each side is that unit times an integer level product,
which one float64 gemm per polarity computes exactly in any summation
order (every partial sum is an integer below 2**53): p - n is exactly 0 at
a zero integer margin and has the margin's sign elsewhere.

The line follows explicit Euler over the N = t_classify / dt steps of the
classify phase: a step adds i_in * dt to the charge q drawn from VDD, with
i_in = p * min((vdd - v) / v_dsat, 1), and moves v by (i_in - n * min(v /
v_dsat, 1)) * dt / c_line. It is evaluated in closed form, with no step
loop. Under check_euler_stability the factors a and b below lie in (0, 1],
so each regime is affine in v and a line moves monotonically from vdd/2
toward a fixed point it never passes, crossing at most one regime
boundary and needing no clip. Write V = vdd, D = v_dsat, r = dt / c_line.
As v -> V - v swaps p and n, let u = max(p, n) >= d = min(p, n) and follow
x, which rises from V/2: v = x for p >= n and V - x otherwise. x takes m
steps in its start regime (m = N if it never leaves it):

- D <= V/2: linear, both clamps saturated while D <= x <= V - D, so
  x_k = V/2 + k s with s = r (u - d), and m = floor((V/2 - D) / s) + 1.
- D > V/2: both clamps in triode while x < D, a step is
  x + r (u (V - x) - d x) / D, so x_k = V/2 + g (1 - b^k) with
  b = 1 - r (u + d) / D and g = V (u - d) / (2 (u + d)). x reaches D only
  if V/2 + g > D, first at m = ceil(ln(1 - (D - V/2) / g) / ln b).
- From m on, the upper triode regime (x >= max(D, V - D)): a step is
  x + r (u (V - x) / D - d), so x_k = x* + (x_m - x*) a^(k - m) with
  a = 1 - r u / D and x* = V - d D / u. x_m < x*: a linear x_m is below
  V - D + s, and s < D (u - d) / u as r u < D; a both-triode x_m is below
  V/2 + g, which is at most x* if it is at least D.

Powers are exp(k log1p(-rho)), precise when rho is tiny. For the charge,
c (x_N - V/2) is the up charge less the down charge in x's frame, and the
down current d min(x / D, 1) sums to N d dt for D <= V/2, and to
d dt (N - m + (m V/2 + g (m - sum_{k<m} b^k)) / D) for D > V/2. A rising
line draws the up charge from VDD, a falling or tied one the down charge
(N p dt for D <= V/2: its inflow never leaves its clamp). simulate_batch
evaluates the last step for blocks of rows and, when asked to record
traces, the same expressions at every step, so a trace ends on its row's
final bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import device as dev
from .quantizer import quantize_unit
from .trainer import _check_fields, tally_votes

if TYPE_CHECKING:
    from .system import SystemConfig

# Digits evaluated together. Each of a block's elementwise temporaries is
# 45 x rows float64 ((n_steps + 1) x 45 x rows while recording traces), so
# the working set stays small whatever the batch size.
BLOCK_ROWS = 512


@dataclass(frozen=True)
class LineTiming:
    """Capacitance and cycle timing shared by every sensing line."""

    c_line: float = 10e-15
    t_precharge: float = 2e-9
    t_classify: float = 2e-9
    dt: float = 10e-12

    def __post_init__(self):
        _check_fields("line", self, c_line="positive", t_precharge="positive",
                      t_classify="positive", dt="positive")
        steps = self.t_classify / self.dt
        if not math.isfinite(steps):
            raise ValueError(f"line.t_classify / line.dt must be a finite step count, got "
                             f"{self.t_classify!r} / {self.dt!r}")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"line.dt must divide line.t_classify, got {steps!r} steps")
        # Compare the rounded count: 10 * dt / dt may come out a hair under 10.
        if self.n_steps < 10:
            raise ValueError("line.t_classify / line.dt must be at least 10 integration steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_classify / self.dt))


def euler_factor(timing: LineTiming, params: dev.DeviceParams, drive_sum):
    """Worst-case factor by which one Euler step scales a line's distance to equilibrium.

    In the triode region, with every feature at full level, a step scales it
    by 1 - dt * i_on * drive_sum / (c_line * v_dsat), where drive_sum is the
    sum of the line's device weight levels over max_level (each device's
    full-feature drive, in [0, 1]). Outside (0, 1] the Euler line would
    overshoot its fixed point and oscillate, and the closed form in the
    module docstring would not hold.
    """
    return 1.0 - timing.dt * params.i_on * drive_sum / (timing.c_line * params.v_dsat)


def check_euler_stability(s: SystemConfig):
    """Reject an analog simulation whose explicit-Euler step can overshoot.

    Every line's euler_factor, taken at its summed device drives
    sum |L| / max_level, must lie in (0, 1] (NaN does not). simulate_batch
    calls this; digital evaluation does not step the lines.
    """
    drive_sum = np.abs(s.L).sum(axis=0) / s.quant.max_level
    factor = euler_factor(s.timing, s.params, drive_sum)
    bad = np.flatnonzero(~(factor > 0))
    if bad.size:
        a, b = s.pairs[bad[0]]
        raise ValueError(f"unstable Euler step on line {a}-{b}: worst-case factor "
                         f"{factor[bad[0]]:.3g} is outside (0, 1]; "
                         "lower line.dt or raise line.c_line")


def precharge_energy(timing: LineTiming, vdd: float) -> float:
    # Worst-case refill of one line's half-swing each cycle.
    return timing.c_line * (vdd / 2) ** 2


@dataclass
class BatchResult:
    """Outcome of pushing n digits through every line, in classifier order."""

    votes: np.ndarray        # (n, 45) of +/-1
    tallies: np.ndarray      # (n, 10) votes per class, each row sums to 45
    predictions: np.ndarray  # (n,)
    energies: np.ndarray     # (n,) joules, MAC array + line precharge only
    line_finals: np.ndarray  # (n, 45) final line voltages
    # (n_steps + 1, n, 45) line voltages at t = j * dt from the release of
    # the precharge at vdd/2, or None unless traces were recorded.
    line_traces: np.ndarray | None = None


def feature_levels(s: SystemConfig, X=None, levels=None) -> np.ndarray:
    """The integer feature levels of normalized inputs X (quantize_unit), or `levels` checked.

    Give exactly one (a TypeError otherwise), as one (features,) input or an
    (n, features) batch for the array's feature count; levels must be
    integers in [0, max_level]. Anything else is a ValueError.
    """
    if (X is None) == (levels is None):
        raise TypeError("give exactly one of X and levels")
    arr = np.asarray(X if levels is None else levels)
    n_features = s.L.shape[0]
    if arr.ndim not in (1, 2) or arr.shape[-1] != n_features:
        raise ValueError(f"expected ({n_features},) or (n, {n_features}) inputs for the "
                         f"{n_features}-feature array, got shape {arr.shape}")
    if levels is None:
        return quantize_unit(arr, s.quant)
    if arr.dtype.kind not in "iu" or (arr.size and not 0 <= arr.min() <= arr.max()
                                      <= s.quant.max_level):
        raise ValueError(f"feature levels must be integers in [0, {s.quant.max_level}]")
    return arr


def _drive_sums(s: SystemConfig, levels: np.ndarray):
    """(p_sum, n_sum), each (n, lines): every line's p- and n-side drive currents.

    i_on / max_level**2 times levels @ max(+-L, 0) for (n, features) integer
    feature levels. The gemms are exact (see the module docstring), so a
    row's sums never depend on the other rows of the batch.
    """
    levels = levels.astype(np.float64)
    unit = s.params.i_on / s.quant.max_level ** 2
    return tuple(levels @ np.maximum(sign * s.L, 0).astype(np.float64) * unit
                 for sign in (1, -1))


def _lines(s: SystemConfig, levels: np.ndarray, record: bool):
    """(finals, q, voltages) of every line for (rows, features) feature levels.

    finals and q are (rows, lines): the voltage after the last step and the
    charge drawn from VDD, by the closed form of the module docstring.
    voltages is the (n_steps + 1, rows, lines) record of every step from
    vdd/2, or None unless `record`. Every expression is elementwise, so a
    row's results do not depend on the other rows.
    """
    p, n = _drive_sums(s, levels)
    vdd, v_dsat, c_line, dt = s.quant.vdd, s.params.v_dsat, s.timing.c_line, s.timing.dt
    half, r, n_steps = vdd / 2, dt / c_line, s.timing.n_steps
    u, d = np.maximum(p, n), np.minimum(p, n)
    # m is NaN for a line that never leaves its start regime (fmin drops it),
    # and a driveless line divides by zero in branches np.where discards.
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


def _result(s: SystemConfig, finals: np.ndarray, charge: np.ndarray,
            traces: np.ndarray | None) -> BatchResult:
    """Votes, tallies and energies of (n, lines) final voltages and (n,) total charges."""
    vdd = s.quant.vdd
    votes = np.where(finals >= vdd / 2, 1, -1)
    tallies, preds = tally_votes(s.pairs, votes)
    e_pre = sum(precharge_energy(s.timing, vdd) for _ in s.pairs)
    return BatchResult(votes=votes, tallies=tallies, predictions=preds,
                       energies=vdd * charge + e_pre, line_finals=finals, line_traces=traces)


def simulate_batch(s: SystemConfig, X: np.ndarray | None = None, *,
                   levels: np.ndarray | None = None, record_traces: bool = False) -> BatchResult:
    """Transient-evaluate a batch over all lines: normalized inputs X, or their feature levels.

    A row's results do not depend on the other rows or on BLOCK_ROWS. With
    record_traces, line_traces holds every step of every row's lines, and
    each trace ends on its line_finals bit for bit. Deterministic. Raises
    the ValueError of check_euler_stability for an unstable array, and that
    of feature_levels for inputs it rejects.
    """
    check_euler_stability(s)
    levels = np.atleast_2d(feature_levels(s, X, levels))
    finals = np.empty((len(levels), len(s.pairs)))
    charge = np.empty(len(levels))
    traces = np.empty((s.timing.n_steps + 1, *finals.shape)) if record_traces else None
    for lo in range(0, len(levels), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        finals[rows], q, voltages = _lines(s, levels[rows], record_traces)
        if record_traces:
            traces[:, rows] = voltages
        # Each row's lines add along a contiguous row, whatever the block.
        charge[rows] = q.sum(axis=1)
    return _result(s, finals, charge, traces)


def simulate_digit(s: SystemConfig, x: np.ndarray | None = None, record_traces: bool = False,
                   *, levels: np.ndarray | None = None) -> BatchResult:
    """The one-row simulate_batch of one input: a normalized x, or its feature levels.

    No pipeline stage calls it; perfbench/spans.py still looks the name up.
    """
    row = feature_levels(s, x, levels)
    if row.ndim != 1:
        raise ValueError(f"expected a ({s.L.shape[0]},) feature vector, got shape {row.shape}")
    return simulate_batch(s, levels=row[None, :], record_traces=record_traces)
