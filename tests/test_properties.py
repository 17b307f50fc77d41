"""Property tests: the analog lines agree with the integer digital oracle.

Needs hypothesis (the `test` extra); skipped cleanly without it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from senseline.line_sim import simulate_batch  # noqa: E402
from senseline.quantizer import QuantSpec  # noqa: E402
from senseline.system import SystemConfig  # noqa: E402
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
