"""Transient simulation of the per-classifier sensing lines.

Each binary classifier owns one capacitive sensing line. A classification
cycle has two phases: precharge, which resets the line to vdd/2 with every
device gated off, and classify, which applies the feature-derived top-gate
biases so p-type devices pump charge in from VDD while n-type devices drain
it to ground. The line voltage integrates the signed feature-weight
products; a non-inverting buffer snaps the final voltage to a rail and that
is the classifier's vote.

Integration is explicit Euler on dv/dt = I_net(v) / c_line with the voltage
clamped to [0, vdd]. One vectorized integrator evaluates every line for a
batch of digits at once, exploiting that all devices on a line share the
same channel-voltage clamp factor. simulate_batch runs it for evaluation;
simulate_digit runs it on one digit and can keep every step as the line
traces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import device as dev
from .quantizer import QuantSpec, level_to_vtg, quantize_features


@dataclass
class LineConfig:
    """One sensing line: its devices, capacitance, and cycle timing."""

    pair: tuple[int, int]
    devices: list[dev.DeviceInstance]
    c_line: float = 10e-15
    t_precharge: float = 2e-9
    t_classify: float = 2e-9
    dt: float = 10e-12

    def __post_init__(self):
        if self.c_line <= 0:
            raise ValueError("c_line must be positive")
        if self.dt <= 0 or self.t_classify / self.dt < 10:
            raise ValueError("t_classify must span at least 10 integration steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_classify / self.dt))


@dataclass
class ClassificationTrace:
    """Outcome of pushing one digit through all 45 lines."""

    votes: np.ndarray           # (45,) of +/-1, classifier order
    tally: np.ndarray           # (10,) votes per class, sums to 45
    predicted: int
    energy: float               # joules, MAC array + line precharge only
    line_finals: np.ndarray     # (45,) final line voltages
    line_traces: list[np.ndarray] | None = None


def precharge_energy(cfg: LineConfig, params: dev.DeviceParams) -> float:
    # Worst-case refill of the half-swing each cycle.
    return cfg.c_line * (params.vdd / 2) ** 2


def buffer_decide(v_sen: float, vdd: float):
    """Ideal comparator at vdd/2; returns (+/-1 vote, rail voltage).

    Equality resolves to +1 (the decision boundary belongs to the positive
    class). Draws zero input current.
    """
    if not 0 <= v_sen <= vdd:
        raise ValueError(f"v_sen = {v_sen} outside [0, {vdd}]")
    return (1, vdd) if v_sen >= vdd / 2 else (-1, 0.0)


def tally_votes(pairs: list[tuple[int, int]], votes: np.ndarray):
    """votes (..., 45) of +/-1 -> (tallies (..., 10), predictions)."""
    votes = np.atleast_2d(votes)
    n = votes.shape[0]
    tallies = np.zeros((n, 10), dtype=int)
    for k, (a, b) in enumerate(pairs):
        winner = np.where(votes[:, k] > 0, a, b)
        tallies[np.arange(n), winner] += 1
    preds = np.argmax(tallies, axis=1)  # argmax takes the smallest digit on ties
    return tallies, preds


@dataclass
class BatchResult:
    votes: np.ndarray        # (n, 45)
    tallies: np.ndarray      # (n, 10)
    predictions: np.ndarray  # (n,)
    energies: np.ndarray     # (n,)
    line_finals: np.ndarray  # (n, 45)


def _integrate(lines: list[LineConfig], quant: QuantSpec, params: dev.DeviceParams,
               X: np.ndarray, record: bool):
    """Classify phase of every line for a batch of (n, 64) normalized inputs.

    Every device on a line sees the same channel voltage, so each line
    reduces to a p-side and an n-side aggregate drive current per digit.
    Returns (BatchResult, voltages) where voltages is the (n_steps + 1, n,
    lines) record of every Euler step starting at vdd/2, or None unless
    `record`. Raises FloatingPointError if a voltage or charge ends
    non-finite (the [0, vdd] clamp would otherwise hide an overflow).
    """
    n = len(X)
    base = lines[0]
    for cfg in lines:
        if (cfg.c_line, cfg.t_classify, cfg.dt) != (base.c_line, base.t_classify, base.dt):
            raise ValueError("simulate_batch requires homogeneous line timing/capacitance")
    levels = quantize_features(X, quant)

    p_sum = np.zeros((n, len(lines)))
    n_sum = np.zeros((n, len(lines)))
    for k, cfg in enumerate(lines):
        for dtype, acc in (("P", p_sum), ("N", n_sum)):
            group = [d for d in cfg.devices if d.dtype == dtype]
            if not group:
                continue
            fidx = np.array([d.feature_index for d in group])
            g_bg = np.array([dev.gate_drive_bg(d.v_bg, dtype, params) for d in group])
            v_tg = level_to_vtg(levels[:, fidx], dtype, quant)
            g_tg = dev.gate_drive_tg(v_tg, dtype, params)
            # Summed one device after another for any batch size: .sum pairs
            # the terms of a single row differently from those of many rows.
            acc[:, k] = params.i_on * functools.reduce(np.add, (g_tg * g_bg).T)

    vdd = params.vdd
    v = np.full((n, len(lines)), vdd / 2)
    q = np.zeros((n, len(lines)))
    voltages = np.empty((base.n_steps + 1, n, len(lines))) if record else None
    if record:
        voltages[0] = v
    scale = base.dt / base.c_line
    for k in range(base.n_steps):
        i_in = p_sum * np.clip((vdd - v) / params.v_dsat, -1.0, 1.0)
        i_out = n_sum * np.clip(v / params.v_dsat, -1.0, 1.0)
        q += i_in * base.dt
        v = np.clip(v + scale * (i_in - i_out), 0.0, vdd)
        if record:
            voltages[k + 1] = v
    if not (np.isfinite(v).all() and np.isfinite(q).all()):
        raise FloatingPointError("line voltage or charge became non-finite")

    votes = np.where(v >= vdd / 2, 1, -1)
    tallies, preds = tally_votes([c.pair for c in lines], votes)
    e_pre = sum(precharge_energy(cfg, params) for cfg in lines)
    energies = vdd * q.sum(axis=1) + e_pre
    return BatchResult(votes=votes, tallies=tallies, predictions=preds,
                       energies=energies, line_finals=v), voltages


def simulate_batch(lines: list[LineConfig], quant: QuantSpec, params: dev.DeviceParams,
                   X: np.ndarray) -> BatchResult:
    """Transient-evaluate a batch of normalized inputs over all lines.

    Requires homogeneous timing and capacitance across lines (which is how
    systems are assembled). Row i equals simulate_digit on X[i] bit for bit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return _integrate(lines, quant, params, X, record=False)[0]


def simulate_digit(lines: list[LineConfig], quant: QuantSpec, params: dev.DeviceParams,
                   x: np.ndarray, record_traces: bool = False) -> ClassificationTrace:
    """Classify one normalized 64-feature input through every line.

    With record_traces, line_traces[k] is line k's (n_steps + 1, 2) record
    of columns t, v_sen, sampled at t = j * dt from the release of the
    precharge at vdd/2. Deterministic.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (64,):
        raise ValueError(f"expected a (64,) feature vector, got shape {x.shape}")
    res, voltages = _integrate(lines, quant, params, x[None, :], record=record_traces)
    traces = None
    if record_traces:
        t = np.arange(lines[0].n_steps + 1) * lines[0].dt
        traces = [np.column_stack([t, voltages[:, 0, k]]) for k in range(len(lines))]
    return ClassificationTrace(votes=res.votes[0], tally=res.tallies[0],
                               predicted=int(res.predictions[0]),
                               energy=float(res.energies[0]),
                               line_finals=res.line_finals[0], line_traces=traces)
