"""Property tests: the analog lines agree with the integer digital oracle, the
netlist round-trips, and corrupt IDX files fail with the dataset's errors.

Needs hypothesis (the `test` extra); skipped cleanly without it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import synth  # noqa: E402
from senseline.dataset import (  # noqa: E402
    CountMismatchError,
    IdxFormatError,
    read_idx_images,
    read_idx_labels,
)
from senseline.device import DeviceParams  # noqa: E402
from senseline.line_sim import LineTiming, simulate_batch  # noqa: E402
from senseline.quantizer import QuantSpec  # noqa: E402
from senseline.system import N_FEATURES, SystemConfig, emit_netlist, parse_netlist  # noqa: E402
from senseline.trainer import all_pairs  # noqa: E402

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
def compiled_systems(draw):
    """A random signed level matrix on a random subset of the pairs, at valid
    line and device parameters whose bias windows hold every quantizer level."""
    pairs = draw(st.lists(st.sampled_from(all_pairs()), min_size=1, max_size=45, unique=True))
    L = draw(arrays(np.int64, (N_FEATURES, len(pairs)), elements=st.integers(-MAX, MAX)))
    params = DeviceParams(i_on=draw(finite(1e-9, 1e-4)), v_dsat=draw(finite(0.01, 1.0)),
                          p_window=(draw(finite(-1.0, 0.0)), draw(finite(1.2, 1.49))),
                          n_window=(draw(finite(1.51, 1.8)), draw(finite(3.0, 4.0))),
                          tg_window_span=draw(finite(0.5, 3.0)))
    dt = draw(finite(1e-13, 1e-10))
    timing = LineTiming(c_line=draw(finite(1e-16, 1e-12)), t_precharge=draw(finite(1e-10, 1e-8)),
                        t_classify=dt * draw(st.integers(10, 1000)), dt=dt)
    return SystemConfig(pairs, L, Q, params, timing)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@settings(max_examples=60, deadline=None)
@given(compiled_systems())
def test_netlist_round_trip(scratch_dir, s):
    first, second = scratch_dir / "first.txt", scratch_dir / "second.txt"
    emit_netlist(s, first)
    parsed = parse_netlist(first)
    assert parsed == s
    emit_netlist(parsed, second)
    assert second.read_bytes() == first.read_bytes()


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
def test_corrupt_idx_raises_only_format_errors(scratch_dir, idx_files, kind, compress, data):
    # A random truncation or byte flip. A raw file may load changed values; a
    # gzip file's CRC and length guard it, so it loads its original or fails.
    raw, original = idx_files[kind, compress]
    if data.draw(st.booleans(), label="truncate"):
        bad = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        bad = bytearray(raw)
        bad[data.draw(st.integers(0, len(raw) - 1), label="position")] ^= \
            data.draw(st.integers(1, 255), label="xor mask")
    path = scratch_dir / "fuzzed"
    path.write_bytes(bytes(bad))
    read = read_idx_images if kind == "images" else read_idx_labels
    try:
        loaded = read(path)
    except (IdxFormatError, CountMismatchError):
        return
    if compress:
        assert np.array_equal(loaded, original)
