"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.

Criteria 1-3 assert MNIST-specific accuracy targets and therefore need the
real dataset: place the four IDX files under ./data or point
SENSELINE_MNIST_DIR at them. Without the files those tests skip (this
build environment has no way to download datasets). The mechanism criteria
(4, 5, 9) also run on the deterministic synthetic corpus at the same
tolerances, so the full machinery is exercised either way; 6, 7, and 8 are
dataset-free.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import requires_mnist
from senseline import system, trainer
from senseline.device import DeviceParams, channel_current
from senseline.line_sim import simulate_batch, tally_votes
from senseline.quantizer import QuantSpec
from senseline.trainer import SBSSpec, TrainHyper, logistic_grad, logistic_loss
from test_system import model_with_counts, reference_counts


def report(cid: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


# ---------------------------------------------------------------------------
# MNIST model fixtures (session-cached; mnist_features lives in conftest)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def mnist_model784(mnist_features):
    (tx, ty), (vx, vy), (sx, sy) = mnist_features["784"]
    t0 = time.perf_counter()
    model = trainer.build_ovo(tx, ty, vx, vy, TrainHyper(), sbs=None)
    wall = time.perf_counter() - t0
    acc, _, _ = trainer.evaluate_model(model, sx, sy)
    return model, acc, wall


@pytest.fixture(scope="session")
def mnist_model64(mnist_features):
    (tx, ty), (vx, vy), (sx, sy) = mnist_features["64"]
    model = trainer.build_ovo(tx, ty, vx, vy, TrainHyper(), sbs=None)
    acc, _, _ = trainer.evaluate_model(model, sx, sy)
    return model, acc


@pytest.fixture(scope="session")
def mnist_model_sbs(mnist_features):
    (tx, ty), (vx, vy), (sx, sy) = mnist_features["64"]
    model = trainer.build_ovo(tx, ty, vx, vy, TrainHyper(), sbs=SBSSpec())
    acc, _, _ = trainer.evaluate_model(model, sx, sy)
    return model, acc


# ---------------------------------------------------------------------------
# Criterion 1: full-feature baseline accuracy
# ---------------------------------------------------------------------------

@requires_mnist
def test_c1_full_feature_baseline(mnist_model784):
    _, acc, wall = mnist_model784
    ok = 0.925 <= acc <= 0.955 and wall <= 1800
    report("C1 full-feature baseline",
           ok, f"784-feature test accuracy {acc:.4f} (target 0.94 +/- 0.015), "
               f"trained in {wall:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 2: downsampling cost
# ---------------------------------------------------------------------------

@requires_mnist
def test_c2_downsampling_cost(mnist_model784, mnist_model64):
    _, acc784, _ = mnist_model784
    _, acc64 = mnist_model64
    drop = (acc784 - acc64) * 100
    ok = 1.3 <= drop <= 4.3
    report("C2 downsampling cost",
           ok, f"accuracy drop {drop:.2f} pp (target 2.8 +/- 1.5)")


# ---------------------------------------------------------------------------
# Criterion 3: accuracy and feature counts after backward selection
# ---------------------------------------------------------------------------

@requires_mnist
def test_c3_feature_selection(mnist_model_sbs):
    model, acc = mnist_model_sbs
    mean_count = model.mean_feature_count()
    n01 = len(model.classifier_for((0, 1)).feature_indices)
    n34 = len(model.classifier_for((3, 4)).feature_indices)
    ok = acc >= 0.885 and 15 <= mean_count <= 35 and n01 < n34
    report("C3 selected-feature model",
           ok, f"test accuracy {acc:.4f} (>= 0.885), mean features {mean_count:.1f} "
               f"(in [15, 35]), pair (0,1) {n01} < pair (3,4) {n34}")


# ---------------------------------------------------------------------------
# Criterion 4: 5-bit quantization costs at most 1 pp
# ---------------------------------------------------------------------------

def _quantization_delta(model, sx, sy):
    s = system.assemble(model)
    r_float = system.evaluate(s, sx, sy, mode="digital-float")
    r_quant = system.evaluate(s, sx, sy, mode="digital-quantized")
    return r_float.accuracy, r_quant.accuracy


def test_c4_quantization_fidelity_synthetic(synth_model, synth_features):
    _, _, (sx, sy) = synth_features
    af, aq = _quantization_delta(synth_model, sx, sy)
    ok = abs(af - aq) <= 0.01
    report("C4 quantization fidelity [synthetic corpus]",
           ok, f"float {af:.4f} vs 5-bit {aq:.4f}, delta {abs(af - aq) * 100:.2f} pp (<= 1)")


@requires_mnist
def test_c4_quantization_fidelity_mnist(mnist_model_sbs, mnist_features):
    model, _ = mnist_model_sbs
    _, _, (sx, sy) = mnist_features["64"]
    af, aq = _quantization_delta(model, sx, sy)
    ok = abs(af - aq) <= 0.01
    report("C4 quantization fidelity [MNIST]",
           ok, f"float {af:.4f} vs 5-bit {aq:.4f}, delta {abs(af - aq) * 100:.2f} pp (<= 1)")


# ---------------------------------------------------------------------------
# Criterion 5: transient simulation agrees with the quantized digital oracle
# ---------------------------------------------------------------------------

def _analog_vs_quantized(model, sx, sy, n=1000):
    s = system.assemble(model)
    sx, sy = sx[:n], sy[:n]
    t0 = time.perf_counter()
    batch = simulate_batch(s, sx)
    wall = time.perf_counter() - t0
    margins = system.quantized_margins(s, sx)
    votes_q = np.where(margins >= 0, 1, -1)
    _, preds_q = tally_votes(s.pairs, votes_q)
    agreement = float(np.mean(batch.predictions == preds_q))
    acc_a = float(np.mean(batch.predictions == sy))
    acc_q = float(np.mean(preds_q == sy))
    strong = np.abs(margins) >= 1  # at least one quantization unit of margin
    line_agreement = float(np.mean((batch.votes == votes_q)[strong]))
    return agreement, acc_a, acc_q, line_agreement, wall


def test_c5_analog_fidelity_synthetic(synth_model, synth_features):
    _, _, (sx, sy) = synth_features
    agree, acc_a, acc_q, line_agree, wall = _analog_vs_quantized(synth_model, sx, sy)
    ok = agree >= 0.99 and abs(acc_a - acc_q) <= 0.015 and line_agree >= 0.99 and wall <= 1800
    report("C5 analog fidelity [synthetic corpus]",
           ok, f"prediction agreement {agree:.4f} (>= 0.99), analog {acc_a:.4f} vs "
               f"quantized {acc_q:.4f} (delta <= 1.5 pp), per-line oracle agreement "
               f"{line_agree:.4f}, 1000 digits in {wall:.1f}s")


@requires_mnist
def test_c5_analog_fidelity_mnist(mnist_model_sbs, mnist_features):
    model, _ = mnist_model_sbs
    _, _, (sx, sy) = mnist_features["64"]
    agree, acc_a, acc_q, line_agree, wall = _analog_vs_quantized(model, sx, sy)
    ok = agree >= 0.99 and abs(acc_a - acc_q) <= 0.015 and line_agree >= 0.99 and wall <= 1800
    report("C5 analog fidelity [MNIST]",
           ok, f"prediction agreement {agree:.4f} (>= 0.99), analog {acc_a:.4f} vs "
               f"quantized {acc_q:.4f} (delta <= 1.5 pp), per-line oracle agreement "
               f"{line_agree:.4f}, 1000 digits in {wall:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 6: device and line property suite (randomized, dataset-free)
# ---------------------------------------------------------------------------

def test_c6_device_line_properties(synth_system, synth_features):
    rng = np.random.default_rng(2024)
    p = DeviceParams()
    q = QuantSpec()

    # Tri-state: OFF-band bottom gate conducts nothing anywhere.
    off_lo = np.nextafter(p.p_window[1], 4.0)
    off_hi = np.nextafter(p.n_window[0], 0.0)
    tri = all(
        channel_current(rng.uniform(0, 3), rng.uniform(off_lo, off_hi),
                        rng.uniform(0, 3), rng.uniform(0, 3), p) == 0.0
        for _ in range(500))

    # Terminal-swap antisymmetry to machine precision, and |I| <= i_on.
    anti = True
    bounded_i = True
    for _ in range(500):
        v_tg, v_bg, va, vb = rng.uniform(0, 3, size=4)
        i_ab = channel_current(v_tg, v_bg, va, vb, p)
        anti &= (i_ab == -channel_current(v_tg, v_bg, vb, va, p))
        bounded_i &= abs(i_ab) <= p.i_on

    # Line voltage bounded in [0, vdd] across a simulated batch.
    _, _, (sx, _) = synth_features
    batch = simulate_batch(synth_system, sx[:200])
    bounded_v = bool(np.all(batch.line_finals >= 0.0) and np.all(batch.line_finals <= p.vdd))

    # Monotone response of final v_sen to any single device's drive.
    monotone = True
    s = synth_system
    line = system.SystemConfig(s.pairs[:1], s.L[:, :1], q, p, s.timing)
    for fi in rng.choice(np.flatnonzero(line.L[:, 0]), size=4, replace=False):
        trials = np.full((8, 64), 16)
        trials[:, fi] = np.arange(0, 32, 4)
        finals = simulate_batch(line, trials / q.max_level).line_finals[:, 0]
        diffs = np.diff(finals)
        monotone &= bool(np.all(diffs >= 0) if line.L[fi, 0] > 0 else np.all(diffs <= 0))

    # Halving dt changes every final line voltage by < 1 mV.
    half = dataclasses.replace(s, timing=dataclasses.replace(s.timing, dt=s.timing.dt / 2))
    batch_half = simulate_batch(half, sx[:100])
    dt_shift = float(np.max(np.abs(batch_half.line_finals - batch.line_finals[:100])))
    dt_ok = dt_shift < 1e-3

    ok = tri and anti and bounded_i and bounded_v and monotone and dt_ok
    report("C6 device/line property suite",
           ok, f"tri-state {tri}, antisymmetry {anti}, |I|<=i_on {bounded_i}, "
               f"v in [0,vdd] {bounded_v}, monotone drive {monotone}, "
               f"max dt-halving shift {dt_shift * 1e3:.3f} mV (< 1)")


# ---------------------------------------------------------------------------
# Criterion 7: structural metrics at the stated per-pair feature counts
# ---------------------------------------------------------------------------

def test_c7_structural_metrics():
    counts = reference_counts()
    assert counts[(0, 1)] == 6 and counts[(3, 4)] == 44
    assert sum(counts.values()) == 23 * 45
    s = system.assemble(model_with_counts(counts))
    area = system.estimate_area(s)
    rng = np.random.default_rng(5)
    x = rng.random((20, 64))
    rep = system.evaluate(s, x, rng.integers(0, 10, size=20), mode="analog")

    count_ok = 900 <= s.device_count <= 1150
    area_ok = area == s.device_count * (3.8 / 1021)
    current_ok = rep.total_current_per_decision == rep.energy_per_decision / s.params.vdd
    ok = count_ok and area_ok and current_ok
    report("C7 structural metrics",
           ok, f"device count {s.device_count} (in [900, 1150]), area {area:.3f} um^2 "
               f"== count x 3.8/1021, total current == energy/vdd exactly")
    # Energy is reported with its scope, never pass/fail: the device model is
    # calibrated, not fitted to a fabricated array.
    print(f"  energy/decision {rep.energy_per_decision:.3e} J "
          f"[{rep.energy_scope}] - informational only")


# ---------------------------------------------------------------------------
# Criterion 8: analytic gradient vs central finite differences
# ---------------------------------------------------------------------------

def test_c8_gradient_correctness():
    rng = np.random.default_rng(99)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, 10))
        X = rng.normal(size=(n, d))
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = float(rng.uniform(0, 0.1))
        gw, gb = logistic_grad(w, X, y, l2, b)
        grads = np.append(gw, gb)
        num = np.empty(d + 1)
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            num[k] = (logistic_loss(w + e, X, y, l2, b)
                      - logistic_loss(w - e, X, y, l2, b)) / (2 * h)
        num[d] = (logistic_loss(w, X, y, l2, b + h)
                  - logistic_loss(w, X, y, l2, b - h)) / (2 * h)
        rel = np.max(np.abs(num - grads) / np.maximum(1.0, np.abs(num)))
        worst = max(worst, float(rel))
    ok = worst <= 1e-5
    report("C8 gradient correctness",
           ok, f"worst relative error {worst:.2e} over 100 random instances (<= 1e-5)")


# ---------------------------------------------------------------------------
# Criterion 9: reproduction artifacts (confusion matrix and vote tallies)
# ---------------------------------------------------------------------------

def _artifact_check(model, sx, sy, tag):
    s = system.assemble(model)
    rep = system.evaluate(s, sx[:200], sy[:200], mode="digital-quantized")
    batch = simulate_batch(s, sx[:10])
    sums_ok = bool(np.all(batch.tallies.sum(axis=1) == 45))
    max_ok = bool(np.all(batch.tallies.max(axis=1) <= 9))
    shape_ok = rep.confusion.shape == (10, 10) and rep.confusion.sum() == 200
    ok = sums_ok and max_ok and shape_ok
    report(f"C9 reproduction artifacts [{tag}]",
           ok, f"10x10 confusion (n=200), 10 vote records all summing to 45 "
               f"with per-class max {int(batch.tallies.max())} <= 9")


def test_c9_artifacts_synthetic(synth_model, synth_features):
    _, _, (sx, sy) = synth_features
    _artifact_check(synth_model, sx, sy, "synthetic corpus")


@requires_mnist
def test_c9_artifacts_mnist(mnist_model_sbs, mnist_features):
    model, _ = mnist_model_sbs
    _, _, (sx, sy) = mnist_features["64"]
    _artifact_check(model, sx, sy, "MNIST")
