"""Property tests: the analog lines agree with the integer digital oracle and
with the reference integrator, the emitted netlist describes its array
exactly, and corrupt IDX files fail with the dataset's errors.

Needs hypothesis (the `test` extra); skipped cleanly without it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import synth  # noqa: E402
from senseline import line_sim  # noqa: E402
from senseline import dataset  # noqa: E402
from senseline.dataset import CountMismatchError, IdxFormatError  # noqa: E402
from senseline.device import DeviceParams  # noqa: E402
from senseline.line_sim import LineTiming, simulate_batch  # noqa: E402
from senseline.quantizer import QuantSpec  # noqa: E402
from senseline.system import (  # noqa: E402
    N_FEATURES,
    SystemConfig,
    emit_netlist,
    quantized_margins,
)
from senseline.trainer import all_pairs  # noqa: E402
from test_line_sim import assert_matches_reference  # noqa: E402
from test_system import assert_netlist_describes  # noqa: E402

Q = QuantSpec()
MAX = Q.max_level

# (w1, x1, w2, x2) with w1 * x1 == w2 * x2: one p-type and one n-type
# device whose integer products cancel exactly.
EQUAL_PRODUCTS = [(w1, x1, w2, p // w2)
                  for w1 in range(1, MAX + 1) for x1 in range(1, MAX + 1)
                  for w2 in range(1, MAX + 1)
                  for p in [w1 * x1] if p % w2 == 0 and p // w2 <= MAX]


def system_of(L):
    return SystemConfig(all_pairs()[:L.shape[1]], L, Q)


def analog_votes(L, levels):
    return simulate_batch(system_of(L), levels / MAX).votes


@st.composite
def arrays_and_inputs(draw):
    n_features = draw(st.integers(1, 8))
    n_lines = draw(st.integers(1, 4))
    L = draw(arrays(np.int64, (n_features, n_lines), elements=st.integers(-MAX, MAX)))
    levels = draw(arrays(np.int64, (draw(st.integers(1, 6)), n_features),
                         elements=st.integers(0, MAX)))
    return L, levels


@settings(max_examples=150, deadline=None)
@given(arrays_and_inputs())
def test_votes_equal_integer_margin_signs(case):
    L, levels = case
    assert np.array_equal(analog_votes(L, levels), np.where(levels @ L >= 0, 1, -1))


@st.composite
def arrays_with_a_zero_margin(draw):
    """arrays_and_inputs with features appended that cancel line 0's margin m
    on row 0 exactly: |m| = 961 a + 31 b + c is a devices of level 31 at
    feature level 31, one of level 31 at level b and one of level c at
    level 1, all of the opposite sign to m."""
    L, levels = draw(arrays_and_inputs())
    m = int(levels[0] @ L[:, 0])
    a, rest = divmod(abs(m), MAX * MAX)
    b, c = divmod(rest, MAX)
    L_extra = draw(arrays(np.int64, (a + 2, L.shape[1]), elements=st.integers(-MAX, MAX)))
    L_extra[:, 0] = -np.sign(m) * np.array([MAX] * (a + 1) + [c])
    x_extra = draw(arrays(np.int64, (len(levels), a + 2), elements=st.integers(0, MAX)))
    x_extra[0] = [MAX] * a + [b, 1]
    return np.vstack([L, L_extra]), np.hstack([levels, x_extra])


@settings(max_examples=200, deadline=None)
@given(arrays_with_a_zero_margin())
def test_drive_sums_carry_the_exact_margin_sign(case):
    # p - n is exactly 0 at every zero margin, and has the margin's sign
    # everywhere else.
    L, levels = case
    margins = levels @ L
    assert margins[0, 0] == 0
    p_sum, n_sum = line_sim._drive_sums(system_of(L), levels)
    assert np.array_equal(np.sign(p_sum - n_sum), np.sign(margins))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(EQUAL_PRODUCTS))
@example((1, 8, 2, 4))
@example((2, 4, 1, 8))
def test_exact_zero_margin_of_two_devices_votes_positive(case):
    w1, x1, w2, x2 = case
    L = np.array([[w1], [-w2]])
    res = simulate_batch(system_of(L), np.array([[x1, x2]]) / MAX)
    assert res.line_finals[0, 0] == Q.vdd / 2
    assert res.votes[0, 0] == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, MAX), st.integers(1, MAX)), min_size=1, max_size=6))
def test_swapped_roles_cancel_exactly(products):
    # p-type devices (w, x) against n-type devices (x, w): every term is
    # matched by one with weight and feature level swapped.
    k = len(products)
    L = np.zeros((2 * k, 1), dtype=np.int64)
    levels = np.zeros((1, 2 * k), dtype=np.int64)
    for i, (w, x) in enumerate(products):
        L[i, 0], levels[0, i] = w, x
        L[k + i, 0], levels[0, k + i] = -x, w
    res = simulate_batch(system_of(L), levels / MAX)
    assert res.line_finals[0, 0] == Q.vdd / 2
    assert res.votes[0, 0] == 1


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def integrator_cases(draw):
    """A small array and inputs at a line/device point the stability guard
    admits. Its lines may stay linear, leave the linear regime, settle at
    their fixed point near or on a rail, or (v_dsat >= vdd/2) start in both
    triode regions. A floor under the worst-case Euler factor is drawn, and
    i_on follows from it and the array's strongest line. The floor stays
    below 0.999, so a one-level drive difference moves a line by more than
    1e-9 V per step: the step-by-step reference loses steps below an ulp of
    vdd."""
    L, levels = draw(arrays_and_inputs())
    dt = draw(finite(1e-12, 1e-10))
    timing = LineTiming(c_line=draw(finite(1e-15, 1e-13)),
                        t_classify=dt * draw(st.integers(10, 300)), dt=dt)
    v_dsat = draw(st.one_of(finite(0.01, Q.vdd / 2), finite(Q.vdd / 2, 2 * Q.vdd),
                            st.sampled_from([Q.vdd / 2, Q.vdd])))
    factor = draw(st.floats(1e-3, 0.999))
    drive = max(np.abs(L).sum(axis=0).max() / MAX, 1.0)
    params = DeviceParams(i_on=(1 - factor) * timing.c_line * v_dsat / (dt * drive),
                          v_dsat=v_dsat)
    return SystemConfig(all_pairs()[:L.shape[1]], L, Q, params, timing), levels / MAX


@settings(max_examples=150, deadline=None)
@given(integrator_cases())
def test_batch_equals_reference_integrator(case):
    assert_matches_reference(*case)


@settings(max_examples=150, deadline=None)
@given(integrator_cases())
def test_closed_form_votes_and_traces(case):
    # Every vote is the integer margin's sign, and every trace starts at
    # vdd/2, stays in [0, vdd], is monotone and ends on the batch final.
    s, X = case
    res = simulate_batch(s, X)
    assert np.array_equal(res.votes, np.where(quantized_margins(s, X) >= 0, 1, -1))
    for i, x in enumerate(X):
        rec = simulate_batch(s, x[None, :], record_traces=True)
        v = rec.line_traces[:, 0].T
        assert np.all(v[:, 0] == Q.vdd / 2)
        assert np.all((v >= 0) & (v <= Q.vdd))
        dv = np.diff(v, axis=1)
        assert np.all(np.all(dv >= 0, axis=1) | np.all(dv <= 0, axis=1))
        assert np.array_equal(v[:, -1], res.line_finals[i])
        assert rec.energies[0] == res.energies[i]


@st.composite
def compiled_systems(draw):
    """A random signed level matrix on a random subset of the pairs, at valid
    line and device parameters and a random quantizer (supply and windows)."""
    pairs = draw(st.lists(st.sampled_from(all_pairs()), min_size=1, max_size=45, unique=True))
    L = draw(arrays(np.int64, (N_FEATURES, len(pairs)), elements=st.integers(-MAX, MAX)))
    vdd = draw(finite(0.5, 10.0))
    quant = QuantSpec(step_volts=vdd / 2 / MAX * draw(finite(0.1, 0.99)), vdd=vdd)
    params = DeviceParams(i_on=draw(finite(1e-9, 1e-4)), v_dsat=draw(finite(0.01, 1.0)))
    dt = draw(finite(1e-13, 1e-10))
    timing = LineTiming(c_line=draw(finite(1e-16, 1e-12)), t_precharge=draw(finite(1e-10, 1e-8)),
                        t_classify=dt * draw(st.integers(10, 1000)), dt=dt)
    return SystemConfig(pairs, L, quant, params, timing)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@settings(max_examples=60, deadline=None)
@given(compiled_systems())
def test_netlist_round_trip(scratch_dir, s):
    path = scratch_dir / "netlist.txt"
    emit_netlist(s, path)
    assert_netlist_describes(s, path)


@pytest.fixture(scope="module")
def idx_files(scratch_dir):
    """{(kind, compressed): (file bytes, array)} of a 5-digit IDX pair."""
    images, labels = synth.make_corpus(5, seed=0)
    files = {}
    for compress in (False, True):
        for kind, array, write in (("images", images, synth.write_idx_images),
                                   ("labels", labels, synth.write_idx_labels)):
            path = scratch_dir / f"{kind}{'.gz' if compress else ''}"
            write(path, array, compress=compress)
            files[kind, compress] = path.read_bytes(), array
    return files


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["images", "labels"]), compress=st.booleans(), data=st.data())
def test_corrupt_idx_raises_only_format_errors(idx_files, kind, compress, data):
    # A random truncation or byte flip. A raw file may load changed values; a
    # gzip file's CRC and length guard it, so it loads its original or fails.
    raw, original = idx_files[kind, compress]
    if data.draw(st.booleans(), label="truncate"):
        bad = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        bad = bytearray(raw)
        bad[data.draw(st.integers(0, len(raw) - 1), label="position")] ^= \
            data.draw(st.integers(1, 255), label="xor mask")
    fmt = dataset._IMAGE_FORMAT if kind == "images" else dataset._LABEL_FORMAT
    try:
        loaded = dataset._decode_idx("fuzzed", bytes(bad), *fmt)
    except (IdxFormatError, CountMismatchError):
        return
    if compress:
        assert np.array_equal(loaded, original)
