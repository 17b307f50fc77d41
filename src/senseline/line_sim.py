"""Transient simulation of the per-classifier sensing lines.

Each binary classifier owns one capacitive sensing line. A classification
cycle has two phases: precharge, which resets the line to vdd/2 with every
device gated off, and classify, which applies the feature-derived top-gate
biases so p-type devices pump charge in from VDD while n-type devices drain
it to ground. The line voltage integrates the signed feature-weight
products; a non-inverting buffer snaps the final voltage to a rail and that
is the classifier's vote.

Integration is explicit Euler on dv/dt = I_net(v) / c_line with the voltage
clamped to [0, vdd]. Every device on a line sees the same channel voltage,
so a line reduces to one p-side and one n-side drive current per digit.
In saturation a device of weight level w at feature level x drives
i_on * x * w / max_level**2, so each side's sum is that unit times an
integer level product, which one float64 gemm per polarity computes
exactly in any summation order (every partial sum is an integer below
2**53). So p - n is exactly 0 at a zero integer margin and has the
margin's sign elsewhere. One integrator evaluates every line for a batch
of digits, a block of rows at a time. simulate_batch runs it for
evaluation; simulate_digit runs it on one digit and can keep every step
as the line traces.

Most steps are linear: while v_dsat <= v <= vdd - v_dsat both current
clamps saturate, and a step is exactly v += (p_sum - n_sum) * dt / c_line,
q += p_sum * dt, with no clip. So unless it records traces, the integrator
first takes only that two-operation step for every line, when vdd/2 is
itself linear. For a line whose state before the last step is still
linear and whose final voltage lies in [0, vdd], that is bit for bit the
full step's result: the step has a fixed sign, so the voltages move
monotonically from vdd/2 to that last state, and the linear set is an
interval, so every state in between is linear too. The other lines are
gathered from every block and integrated again from vdd/2 with the full
clamped step. It works element by element, so gathering them changes no
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import device as dev
from .quantizer import quantize_unit
from .trainer import tally_votes

if TYPE_CHECKING:
    from .system import SystemConfig

# Digits integrated together. A block's working arrays of 45 x rows float64
# (~1.1 MB for six at 512 rows) stay in a 2 MB L2 cache across all Euler
# steps, while each numpy call still covers enough rows for its fixed
# overhead to stay small.
BLOCK_ROWS = 512


@dataclass(frozen=True)
class LineTiming:
    """Capacitance and cycle timing shared by every sensing line."""

    c_line: float = 10e-15
    t_precharge: float = 2e-9
    t_classify: float = 2e-9
    dt: float = 10e-12

    def __post_init__(self):
        for name in ("c_line", "t_precharge", "t_classify", "dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"line {name} must be finite and positive, got {value!r}")
        steps = self.t_classify / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"line dt must divide t_classify, got {steps!r} steps")
        # Compare the rounded count: 10 * dt / dt may come out a hair under 10.
        if self.n_steps < 10:
            raise ValueError("line t_classify / dt must be at least 10 integration steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_classify / self.dt))


def euler_factor(timing: LineTiming, params: dev.DeviceParams, drive_sum):
    """Worst-case factor by which one Euler step scales a line's distance to equilibrium.

    In the triode region, with every feature at full level, a step scales it
    by 1 - dt * i_on * drive_sum / (c_line * v_dsat), where drive_sum is the
    sum of the line's device weight levels over max_level (each device's
    full-feature drive, in [0, 1]). Outside (0, 1] the line oscillates, and
    the [0, vdd] clamp hides it.
    """
    return 1.0 - timing.dt * params.i_on * drive_sum / (timing.c_line * params.v_dsat)


@dataclass
class ClassificationTrace:
    """Outcome of pushing one digit through all 45 lines."""

    votes: np.ndarray           # (45,) of +/-1, classifier order
    tally: np.ndarray           # (10,) votes per class, sums to 45
    predicted: int
    energy: float               # joules, MAC array + line precharge only
    line_finals: np.ndarray     # (45,) final line voltages
    line_traces: list[np.ndarray] | None = None


def precharge_energy(timing: LineTiming, params: dev.DeviceParams) -> float:
    # Worst-case refill of one line's half-swing each cycle.
    return timing.c_line * (params.vdd / 2) ** 2


@dataclass
class BatchResult:
    votes: np.ndarray        # (n, 45)
    tallies: np.ndarray      # (n, 10)
    predictions: np.ndarray  # (n,)
    energies: np.ndarray     # (n,)
    line_finals: np.ndarray  # (n, 45)


def _drive_sums(s: SystemConfig, X: np.ndarray):
    """(p_sum, n_sum), each (n, lines): every line's p- and n-side drive currents.

    i_on / max_level**2 times levels @ max(+-L, 0) for the (n, features)
    normalized inputs X. The gemms are exact (see the module docstring), so
    a row's sums never depend on the other rows of the batch.
    """
    levels = quantize_unit(X, s.quant).astype(np.float64)
    unit = s.params.i_on / s.quant.max_level ** 2
    return tuple(levels @ np.maximum(sign * s.L, 0).astype(np.float64) * unit
                 for sign in (1, -1))


def _linear(v, params: dev.DeviceParams):
    """Where both current clamps of _euler saturate: i_in = p_sum, i_out = n_sum.

    Evaluates the clamp arguments exactly as _euler does. The set of such v
    is an interval inside (0, vdd).
    """
    return ((params.vdd - v) / params.v_dsat >= 1.0) & (v / params.v_dsat >= 1.0)


def _euler(p_sum, n_sum, params: dev.DeviceParams, timing: LineTiming, v, q, record):
    """Integrate line voltages v and charge q from VDD in place, element by element.

    Per step, i_in = p_sum * min((vdd - v) / v_dsat, 1) and i_out = n_sum *
    min(v / v_dsat, 1); both min arguments are >= 0 because v stays in
    [0, vdd]. q gains i_in * dt and v gains (i_in - i_out) * dt / c_line,
    clamped to [0, vdd]. Every operation is elementwise, so an element's
    bits do not depend on the array it sits in.
    """
    vdd, v_dsat, dt = params.vdd, params.v_dsat, timing.dt
    scale = dt / timing.c_line
    i_in, i_out, dq = (np.empty_like(v) for _ in range(3))
    for k in range(timing.n_steps):
        np.subtract(vdd, v, out=i_in)
        i_in /= v_dsat
        np.minimum(i_in, 1.0, out=i_in)
        i_in *= p_sum
        np.divide(v, v_dsat, out=i_out)
        np.minimum(i_out, 1.0, out=i_out)
        i_out *= n_sum
        np.multiply(i_in, dt, out=dq)
        q += dq
        i_in -= i_out
        i_in *= scale
        v += i_in
        np.clip(v, 0.0, vdd, out=v)
        if record is not None:
            record[k + 1] = v


def _linear_euler(p_sum, n_sum, params: dev.DeviceParams, timing: LineTiming, v, q):
    """Take only _euler's linear-regime step, in place, from v = vdd/2 (linear) and q = 0.

    Returns where v and q equal _euler's result bit for bit (see the module
    docstring): the state before the last step is linear and the final
    voltage lies in [0, vdd]. Elsewhere they hold meaningless values; NaN
    is never done.
    """
    step = p_sum - n_sum
    step *= timing.dt / timing.c_line
    dq = p_sum * timing.dt
    for _ in range(timing.n_steps - 1):
        v += step
        q += dq
    done = _linear(v, params)
    v += step
    q += dq
    done &= (v >= 0.0) & (v <= params.vdd)
    return done


def _integrate(s: SystemConfig, X: np.ndarray, record: bool):
    """Classify phase of every line for a batch of (n, features) normalized inputs.

    Returns (BatchResult, voltages) where voltages is the (n_steps + 1, n,
    lines) record of every Euler step starting at vdd/2, or None unless
    `record`. Raises FloatingPointError if a voltage or charge ends
    non-finite (the [0, vdd] clamp would otherwise hide an overflow).

    Without `record`, when vdd/2 is in the linear regime, each block takes
    the linear shortcut; the elements it cannot vouch for are gathered
    from every block and integrated once more by _euler from the start.
    """
    params, vdd = s.params, s.params.vdd
    p_sum, n_sum = _drive_sums(s, X)
    # C-ordered (rows, lines), so q.sum(axis=1) below adds a row's lines
    # pairwise, and a block of rows is a contiguous view.
    v = np.full_like(p_sum, vdd / 2)
    q = np.zeros_like(p_sum)
    voltages = np.empty((s.timing.n_steps + 1, *v.shape)) if record else None
    if record:
        voltages[0] = vdd / 2
    shortcut = not record and _linear(vdd / 2, params)
    todo = np.zeros(v.shape, dtype=bool)
    for lo in range(0, len(v), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        if shortcut:
            todo[rows] = ~_linear_euler(p_sum[rows], n_sum[rows], params, s.timing,
                                        v[rows], q[rows])
        else:
            _euler(p_sum[rows], n_sum[rows], params, s.timing, v[rows], q[rows],
                   None if voltages is None else voltages[:, rows])
    if todo.any():
        v_left = np.full(np.count_nonzero(todo), vdd / 2)
        q_left = np.zeros_like(v_left)
        _euler(p_sum[todo], n_sum[todo], params, s.timing, v_left, q_left, None)
        v[todo] = v_left
        q[todo] = q_left
    if not (np.isfinite(v).all() and np.isfinite(q).all()):
        raise FloatingPointError("line voltage or charge became non-finite")

    votes = np.where(v >= vdd / 2, 1, -1)
    tallies, preds = tally_votes(s.pairs, votes)
    e_pre = sum(precharge_energy(s.timing, params) for _ in s.pairs)
    energies = vdd * q.sum(axis=1) + e_pre
    return BatchResult(votes=votes, tallies=tallies, predictions=preds,
                       energies=energies, line_finals=v), voltages


def simulate_batch(s: SystemConfig, X: np.ndarray) -> BatchResult:
    """Transient-evaluate a batch of normalized inputs over all lines.

    Row i equals simulate_digit on X[i] bit for bit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return _integrate(s, X, record=False)[0]


def simulate_digit(s: SystemConfig, x: np.ndarray,
                   record_traces: bool = False) -> ClassificationTrace:
    """Classify one normalized input through every line.

    With record_traces, line_traces[k] is line k's (n_steps + 1, 2) record
    of columns t, v_sen, sampled at t = j * dt from the release of the
    precharge at vdd/2. Deterministic.
    """
    x = np.asarray(x, dtype=np.float64)
    n_features = s.L.shape[0]
    if x.shape != (n_features,):
        raise ValueError(f"expected a ({n_features},) feature vector, got shape {x.shape}")
    res, voltages = _integrate(s, x[None, :], record=record_traces)
    traces = None
    if record_traces:
        t = np.arange(s.timing.n_steps + 1) * s.timing.dt
        traces = [np.column_stack([t, voltages[:, 0, k]]) for k in range(len(s.pairs))]
    return ClassificationTrace(votes=res.votes[0], tally=res.tallies[0],
                               predicted=int(res.predictions[0]),
                               energy=float(res.energies[0]),
                               line_finals=res.line_finals[0], line_traces=traces)
