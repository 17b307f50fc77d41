import dataclasses
import hashlib
import json
import os
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import requires_mnist
from senseline import cli, trainer
from senseline.trainer import (
    BinaryClassifier,
    OvOModel,
    SBSSpec,
    TrainHyper,
    TrainingDivergedError,
    logistic_grad,
    logistic_loss,
    pair_votes,
    predict_margin,
    tally_votes,
)
from senseline.quantizer import weight_levels

# float32 rounding, as a bound relative to the largest entry: 16 float32 ulps.
F32_ROUNDING = 16 * np.finfo(np.float32).eps


def toy_classifier(pair=(0, 1), weights=(1.0, 1.0), features=(0, 1)):
    return BinaryClassifier(pair, np.array(features), np.array(weights, dtype=float))


def sign_of(z):
    """The +/-1 vote of a one-weight classifier whose margin is z."""
    c = BinaryClassifier((0, 1), np.array([0]), np.array([1.0]))
    model = OvOModel([c] + [toy_classifier(p) for p in trainer.all_pairs()[1:]])
    return pair_votes(model, np.array([[z, 0.0]]))[0, 0]


class TestPredict:
    def test_margin_direct_arithmetic(self):
        c = toy_classifier(weights=(1.0, 1.0))
        assert predict_margin(c, np.array([1.0, 0.0])) == 1.0

    def test_zero_weights_zero_margin(self):
        c = toy_classifier(weights=(0.0, 0.0))
        rng = np.random.default_rng(0)
        assert predict_margin(c, rng.random(2)) == 0.0

    def test_margin_linearity(self):
        rng = np.random.default_rng(1)
        c = BinaryClassifier((2, 7), np.arange(5), rng.normal(size=5))
        x = rng.random(5)
        assert predict_margin(c, 2.0 * x) == pytest.approx(2.0 * predict_margin(c, x))

    def test_margin_index_out_of_range(self):
        c = BinaryClassifier((0, 1), np.array([10]), np.array([1.0]))
        with pytest.raises(IndexError):
            predict_margin(c, np.zeros(5))

    def test_sign_boundary_is_positive(self):
        assert sign_of(0.0) == 1
        assert sign_of(-0.0) == 1

    def test_sign_branches(self):
        assert sign_of(-0.001) == -1
        assert sign_of(5.0) == 1

    def test_sign_scale_invariance(self):
        # Scaling the margin by alpha > 0 never flips the sign.
        rng = np.random.default_rng(2)
        for _ in range(200):
            z = rng.normal()
            alpha = rng.uniform(0.01, 100)
            assert sign_of(z) == sign_of(alpha * z)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(20):
            n, d = rng.integers(5, 30), rng.integers(2, 8)
            X = rng.normal(size=(n, d))
            y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
            w = rng.normal(size=d)
            b = rng.normal()
            l2 = rng.uniform(0, 0.1)
            gw, gb = logistic_grad(w, X, y, l2, b)
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                num = (logistic_loss(w + e, X, y, l2, b) - logistic_loss(w - e, X, y, l2, b)) / (2 * h)
                assert abs(num - gw[k]) <= 1e-5 * max(1.0, abs(num))
            num_b = (logistic_loss(w, X, y, l2, b + h) - logistic_loss(w, X, y, l2, b - h)) / (2 * h)
            assert abs(num_b - gb) <= 1e-5 * max(1.0, abs(num_b))

    def test_descend_epochs_are_gradient_steps(self):
        # Ties acceptance C8's checked gradient to training: each grouped
        # epoch of a pair is w <- w - lr * logistic_grad(w) on its subset, to
        # float32 rounding (the products run in float32; measured 8.2e-8 of
        # max|step|), and 0 elsewhere.
        rng = np.random.default_rng(11)
        hyper = TrainHyper(learning_rate=0.3, max_epochs=1, grad_tol=0.0, l2_lambda=0.05)
        X = rng.normal(size=(47, 6))
        labels = np.array([0, 1, 2, 7])[np.arange(47) % 4]
        pairs, subsets = [(0, 1), (2, 7)], [np.arange(4), np.array([1, 2, 3, 4, 5])]
        mask = np.zeros((2, 6), dtype=bool)
        for m, f in zip(mask, subsets):
            m[f] = True
        first, _ = trainer._gd_grouped(X, labels, pairs, mask, hyper)
        second, _ = trainer._gd_grouped(X, labels, pairs, mask,
                                        dataclasses.replace(hyper, max_epochs=2))
        for (a, b), f, w1, w2 in zip(pairs, subsets, first, second):
            rows = (labels == a) | (labels == b)
            Xp, y = X[rows][:, f], np.where(labels[rows] == a, 1.0, -1.0)
            for w_old, w_new in ((np.zeros(len(f)), w1[f]), (w1[f], w2[f])):
                step = w_old - hyper.learning_rate * logistic_grad(w_old, Xp, y, hyper.l2_lambda)[0]
                np.testing.assert_allclose(w_new, step, rtol=0,
                                           atol=F32_ROUNDING * np.abs(step).max())
        assert not first[~mask].any() and not second[~mask].any()
        assert not np.array_equal(first[0], second[0])

    def test_gd_masked_epoch_is_a_gradient_step(self):
        # The same for one epoch of the masked candidate trainer that selection runs.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 5))
        y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        mask = rng.random((3, 5)) > 0.3
        W0 = rng.normal(size=(3, 5)) * mask
        hyper = TrainHyper(learning_rate=0.3, l2_lambda=0.05)
        W1 = trainer._gd_masked(X * y[:, None], W0.copy(), mask, hyper, epochs=1)
        for w0, w1, keep in zip(W0, W1, mask):
            step = w0 - hyper.learning_rate * logistic_grad(w0, X, y, hyper.l2_lambda)[0]
            np.testing.assert_allclose(w1, step * keep, rtol=1e-12, atol=1e-15)

    def test_loss_monotone_under_small_steps(self):
        # Fixed toy problem: full-batch descent with a small rate never increases the loss.
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 1.0, -1.0)
        w = np.zeros(3)
        prev = logistic_loss(w, X, y, 1e-4)
        for _ in range(200):
            gw, _ = logistic_grad(w, X, y, 1e-4)
            w = w - 0.1 * gw
            cur = logistic_loss(w, X, y, 1e-4)
            assert cur <= prev + 1e-12
            prev = cur


class TestTrainLogistic:
    def test_separable_toy(self):
        # Zero-centred inputs: the boundary passes through the origin.
        X = np.array([[0.4], [-0.4], [0.35], [-0.35]])
        labels = np.array([0, 1, 0, 1])
        c = trainer.train_logistic(X, labels, (0, 1), [0])
        assert c.weights[0] > 0
        preds = np.where(predict_margin(c, X) >= 0, 1, -1)
        assert np.array_equal(preds, np.where(labels == 0, 1, -1))

    def test_zero_learning_rate_warns_and_keeps_zeros(self):
        X = np.array([[0.9], [0.1]])
        labels = np.array([0, 1])
        with pytest.warns(RuntimeWarning, match="learning_rate"):
            c = trainer.train_logistic(X, labels, (0, 1), [0], TrainHyper(learning_rate=0.0))
        assert np.array_equal(c.weights, [0.0])

    def test_divergent_learning_rate_raises(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 4)) * 10
        labels = np.where(rng.random(50) > 0.5, 0, 1)
        with pytest.raises(TrainingDivergedError):
            trainer.train_logistic(X, labels, (0, 1), np.arange(4),
                                   TrainHyper(learning_rate=1e9, l2_lambda=0.1))

    def test_empty_class_rejected(self):
        X = np.ones((5, 2))
        labels = np.zeros(5, dtype=int)
        with pytest.raises(ValueError, match="empty"):
            trainer.train_logistic(X, labels, (0, 1), [0, 1])

    def test_foreign_digits_rejected(self):
        X = np.ones((4, 2))
        labels = np.array([0, 1, 2, 0])
        with pytest.raises(ValueError, match="outside pair"):
            trainer.train_logistic(X, labels, (0, 1), [0, 1])

    @requires_mnist
    def test_easiest_mnist_pair_above_99(self, mnist_features):
        # 0-vs-1 is linearly separable almost perfectly at 64 features.
        (tx, ty), (vx, vy), _ = mnist_features["64"]
        mask = (ty == 0) | (ty == 1)
        c = trainer.train_logistic(tx[mask], ty[mask], (0, 1), np.arange(64))
        Xv, yv = trainer.filter_pair(vx, vy, (0, 1))
        acc = np.mean((predict_margin(c, Xv) >= 0) == (yv > 0))
        assert acc > 0.99

    def test_masked_batch_matches_individual_training(self, synth_features):
        # Row c of the batched trainer equals a separate model trained
        # without feature c by the float64 per-pair descent (grad_tol 0
        # disables early stopping).
        (tx, ty), _, _ = synth_features
        hyper = TrainHyper(max_epochs=40, grad_tol=0.0)
        pair = (2, 5)
        Xp, yp = trainer.filter_pair(tx, ty, pair)
        Xp, yp = Xp[:300, :10], yp[:300]
        k = 10
        mask = ~np.eye(k, dtype=bool)
        W = np.zeros((k, k))
        assert trainer._gd_masked(Xp * yp[:, None], W, mask, hyper, 40) is W  # in place
        mask_rows = (ty == pair[0]) | (ty == pair[1])
        labels = ty[mask_rows][:300]
        for c in (0, 4, 9):
            feats = [f for f in range(k) if f != c]
            ref, _, _ = train_logistic_reference(Xp, labels, pair, feats, hyper)
            np.testing.assert_allclose(np.delete(W[c], c), ref, rtol=1e-10, atol=1e-12)


def train_logistic_reference(X, labels, pair, feature_indices, hyper):
    """The float64 per-pair descent the lockstep trainer replaced: (weights, epochs stepped, path).

    X and labels hold the pair's rows only. path[e] is the weights after e
    steps, for e up to one step past the stop.
    """
    Xs = X[:, feature_indices]
    y = np.where(labels == pair[0], 1.0, -1.0)
    path = [np.zeros(len(feature_indices))]
    with np.errstate(over="ignore"):
        while True:
            grad_w, _ = logistic_grad(path[-1], Xs, y, hyper.l2_lambda)
            stop = len(path) - 1 == hyper.max_epochs or np.max(np.abs(grad_w)) < hyper.grad_tol
            path.append(path[-1] - hyper.learning_rate * grad_w)
            if stop:
                return path[-2], len(path) - 2, path


def sigmoid_neg_two_branch(u):
    # Reference: sigma(-u) by sign, one exp per element.
    out = np.empty(u.shape)
    pos = u >= 0
    eu = np.exp(-u[pos])
    out[pos] = eu / (1.0 + eu)
    ev = np.exp(u[~pos])
    out[~pos] = 1.0 / (1.0 + ev)
    return out


SHAPES = [(1, 7), (5, 173), (30, 200), (64, 200), (65, 1000)]  # (k columns, n rows)


def gd_masked_reference(X, y, W0, mask, hyper, epochs):
    # Reference: masked full-batch gradient descent written out directly.
    W = W0 * mask
    yc = y[:, None]
    for _ in range(epochs):
        Z = X @ W.T
        S = yc * sigmoid_neg_two_branch(yc * Z)
        G = -(S.T @ X) / len(y) + hyper.l2_lambda * W
        W = (W - hyper.learning_rate * G) * mask
    return W


def sbs_record_reference(pair, tx, ty, vx, vy, hyper, spec):
    # Reference elimination: gathers the active columns afresh every round.
    Xtr, ytr = trainer.filter_pair(tx, ty, pair)
    Xv, yv = trainer.filter_pair(vx, vy, pair)
    Xtr, ytr = Xtr[: spec.candidate_rows], ytr[: spec.candidate_rows]
    d = tx.shape[1]

    def acc(W, act):
        return np.mean((Xv[:, act] @ W.T >= 0) == (yv[:, None] > 0), axis=0)

    active = np.arange(d)
    parent = gd_masked_reference(Xtr, ytr, np.zeros((1, d)), np.ones((1, d), dtype=bool),
                                 hyper, spec.full_epochs)[0]
    record = [(active, acc(parent[None, :], active)[0])]
    while len(active) > 1:
        k = len(active)
        mask = ~np.eye(k, dtype=bool)
        W = gd_masked_reference(Xtr[:, active], ytr, np.tile(parent, (k, 1)), mask,
                                hyper, spec.candidate_epochs)
        accs = acc(W, active)
        j = int(np.argmax(accs))
        parent = np.delete(W[j], j)
        active = np.delete(active, j)
        record.append((active, accs[j]))
    return record


def assert_bits_equal(a, b):
    np.testing.assert_array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def gd_masked_problem(k, n, layout):
    """(X, y, hyper, parent) of one kernel case; layout is X's memory layout."""
    rng = np.random.default_rng(k * 1000 + n)
    X = rng.random((n, 2 * k))
    cols = np.arange(k)
    X = {"C": np.ascontiguousarray(X[:, cols]),  # row-major copy
         "gathered": X[:, cols],                 # column gather: Fortran order
         "sliced": X[:, :k]}[layout]             # view with a wider row stride
    y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    return X, y, TrainHyper(learning_rate=0.5, l2_lambda=1e-3), rng.normal(scale=0.3, size=k)


class TestKernelMatchesReference:
    """The three-pass sigmoid matches the two-branch form to rounding; the
    candidate-training kernel equals the direct form up to rounding (float64
    data) or to float32 rounding (float32 data), and eliminates exactly as it does."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_three_pass_matches_two_branch(self, dtype):
        # Within a few ulps of the two-branch form, in place, in u's dtype;
        # exact at +-0 and +-inf, NaN for NaN, and 0 (not a subnormal) where
        # exp(u) overflows, with no warning under the trainers' errstate.
        u = np.array([0.0, -0.0, 1e-310, -1e-310, 745.0, -745.0, np.inf, -np.inf,
                      np.nan, -np.nan, 1e-20, -1e-20, 36.0, -36.0])
        u = np.concatenate([u, np.random.default_rng(8).normal(scale=40.0, size=5001)])
        u = u.astype(dtype)
        got = u.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                assert trainer._sigma_neg(got) is got
            # logistic_grad sets the errstate itself: margins of +-1e4 warn nothing.
            logistic_grad(np.array([1e4]), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        assert got.dtype == dtype
        np.testing.assert_allclose(got, sigmoid_neg_two_branch(u.astype(np.float64)),
                                   rtol=4 * np.finfo(dtype).eps, atol=np.finfo(dtype).tiny)
        assert got[[0, 1, 6, 7]].tolist() == [0.5, 0.5, 0.0, 1.0]
        assert np.isnan(got[[8, 9]]).all() and got[4] == 0.0

    # Ids end in "-False", the no-intercept value of an axis these cases had while the
    # kernel could also train an intercept; each surviving case keeps its id.
    @pytest.mark.parametrize("k,n", SHAPES, ids=[f"{k}-{n}-False" for k, n in SHAPES])
    @pytest.mark.parametrize("layout", ["C", "gathered", "sliced"])
    def test_gd_masked_equals_reference(self, k, n, layout):
        X, y, hyper, parent = gd_masked_problem(k, n, layout)
        for mask in (np.ones((1, k), dtype=bool), ~np.eye(k, dtype=bool)):
            W = trainer._gd_masked(X * y[:, None], parent * mask, mask, hyper, 12)
            ref = gd_masked_reference(X, y, np.tile(parent, (len(mask), 1)), mask, hyper, 12)
            np.testing.assert_allclose(W, ref, rtol=1e-10, atol=1e-12)
            assert np.all(W[~mask] == 0.0)

    @pytest.mark.parametrize("k,n", SHAPES, ids=[f"{k}-{n}" for k, n in SHAPES])
    @pytest.mark.parametrize("layout", ["C", "gathered", "sliced"])
    def test_gd_masked_float32_data_near_reference(self, k, n, layout):
        # The mixed-precision instance that selection runs: float32 products,
        # float64 weights. Tolerance: 5e-4 relative to max(|ref|, 1e-3); the
        # worst case measured over these cases is 6.5e-5.
        X, y, hyper, parent = gd_masked_problem(k, n, layout)
        Xy = (X * y[:, None]).astype(np.float32)
        for mask in (np.ones((1, k), dtype=bool), ~np.eye(k, dtype=bool)):
            W = trainer._gd_masked(Xy, parent * mask, mask, hyper, 12)
            ref = gd_masked_reference(X, y, np.tile(parent, (len(mask), 1)), mask, hyper, 12)
            assert W.dtype == np.float64
            np.testing.assert_allclose(W, ref, rtol=5e-4, atol=5e-7)
            assert np.all(W[~mask] == 0.0)

    def test_gd_masked_float32_data_keeps_small_updates(self):
        # At learning rate 1e-5 each epoch moves weights of ~0.3 by far less
        # than float32 resolves; the float64 W adds the moves up. Measured
        # error: 2e-7 of the largest move; float32 weights gave 3.5e-2.
        X, y, _, parent = gd_masked_problem(64, 200, "gathered")
        hyper = TrainHyper(learning_rate=1e-5, l2_lambda=1e-3)
        mask = ~np.eye(64, dtype=bool)
        W0 = parent * mask
        W = trainer._gd_masked((X * y[:, None]).astype(np.float32), W0.copy(), mask, hyper, 12)
        ref_moved = gd_masked_reference(X, y, np.tile(parent, (64, 1)), mask, hyper, 12) - W0
        np.testing.assert_allclose(W - W0, ref_moved, rtol=0,
                                   atol=1e-4 * np.abs(ref_moved).max())

    def test_sbs_record_equals_reference_elimination(self, synth_features):
        # Every subset and recorded accuracy of every pair is exact, though
        # selection trains on float32 products and the reference in float64,
        # and pairs train in the blocks build_ovo forms.
        (tx, ty), (vx, vy), _ = synth_features
        hyper = TrainHyper(max_epochs=150)
        spec = SBSSpec(candidate_epochs=8, full_epochs=60, candidate_rows=200)
        blocks = trainer.sbs_blocks(ty, spec, tx.shape[1])
        assert [len(b) for b in blocks] == [10, 10, 10, 10, 5]
        records = [record for block in blocks for _, record in
                   trainer.sbs_select(block, tx, ty, vx, vy, hyper, spec, return_record=True)]
        for pair, record in zip(trainer.all_pairs(), records):
            ref = sbs_record_reference(pair, tx, ty, vx, vy, hyper, spec)
            assert len(record) == len(ref) == 64
            for (sub, acc), (ref_sub, ref_acc) in zip(record, ref):
                assert np.array_equal(sub, ref_sub), pair
                assert acc == ref_acc, pair


def lockstep_tasks(ty, features):
    """One (pair, rows, feature indices) task per pair: all 64 features, or seeded subsets."""
    rng = np.random.default_rng(9)
    tasks = []
    for pair in trainer.all_pairs():
        k = 64 if features == "full" else int(rng.integers(1, 65))
        tasks.append((pair, (ty == pair[0]) | (ty == pair[1]), np.sort(rng.permutation(64)[:k])))
    return tasks


class TestLockstepTrainer:
    """The final training equals the float64 per-pair descent up to float32
    rounding, with the same freeze epochs and the same weight levels, and a
    pair trains bit for bit the same in a block as alone."""

    @pytest.mark.parametrize("grad_tol", [0.0, 2e-2])
    # "-False" in the ids: see test_gd_masked_equals_reference.
    @pytest.mark.parametrize("features", ["full", "subsets"], ids=["full-False", "subsets-False"])
    def test_all_pairs_equal_reference(self, synth_features, features, grad_tol):
        # Each pair's weights lie within 1e-6 of max(max|w|, 1) of the
        # reference's and farther than that from the reference's one epoch
        # before or after, so each pair froze at the reference's epoch.
        # Measured: at most 4.2e-8, and 3.2e-9 on a one-feature pair whose
        # weight, 2.3e-3, sums rows that nearly cancel; neighbours >= 3.7e-5.
        (tx, ty), (vx, vy), _ = synth_features
        hyper = TrainHyper(max_epochs=60, grad_tol=grad_tol)
        tasks = lockstep_tasks(ty, features)
        if features == "full":
            got = trainer.build_ovo(tx, ty, vx, vy, hyper, sbs=None).classifiers
        else:
            assert len({len(f) for _, _, f in tasks}) > 20  # uneven subsets
            got = trainer._train_pairs(tx, ty, tasks, hyper)
        stopped = []
        for c, (pair, rows, feats) in zip(got, tasks):
            w, epochs, path = train_logistic_reference(tx[rows], ty[rows], pair, feats, hyper)
            assert c.class_pair == pair
            assert np.array_equal(c.feature_indices, feats)
            tol = 1e-6 * max(np.abs(w).max(), 1.0)
            assert np.abs(c.weights - w).max() <= tol, pair
            for other in path[max(epochs - 1, 0):epochs] + path[epochs + 1:]:
                assert np.abs(c.weights - other).max() > tol, pair
            if w.any():
                assert np.array_equal(weight_levels(c), weight_levels(w)), pair
            else:  # frozen before its first step
                assert not c.weights.any()
            stopped.append(epochs)
        if grad_tol:  # pairs freeze at different epochs, and some run to the end
            assert len(set(stopped) - {hyper.max_epochs}) >= 2
            assert hyper.max_epochs in stopped

    @pytest.mark.parametrize("features", ["full", "subsets"])
    def test_block_equals_each_pair_alone(self, synth_features, features, monkeypatch):
        (tx, ty), _, _ = synth_features
        hyper = TrainHyper(max_epochs=60, grad_tol=2e-2)
        tasks = lockstep_tasks(ty, features)
        sizes, kernel = [], trainer._gd_grouped
        monkeypatch.setattr(trainer, "_gd_grouped",
                            lambda X, labels, pairs, *a: sizes.append(len(pairs))
                            or kernel(X, labels, pairs, *a))
        block = trainer._train_pairs(tx, ty, tasks, hyper)
        assert sizes == [len(tasks)]  # one kernel call trains all tasks
        for c, task in zip(block, tasks):
            [alone] = trainer._train_pairs(tx, ty, [task], hyper)
            assert_bits_equal(c.weights, alone.weights)

    def test_task_order_does_not_change_weights(self, synth_features):
        (tx, ty), _, _ = synth_features
        hyper = TrainHyper(max_epochs=60, grad_tol=2e-2)
        tasks = lockstep_tasks(ty, "subsets")
        order = np.random.default_rng(3).permutation(len(tasks))
        in_order = trainer._train_pairs(tx, ty, tasks, hyper)
        shuffled = trainer._train_pairs(tx, ty, [tasks[i] for i in order], hyper)
        for i, c in zip(order, shuffled):
            assert c.class_pair == tasks[i][0]
            assert_bits_equal(c.weights, in_order[i].weights)

    def test_rows_must_be_the_pairs_two_digits(self, synth_features, monkeypatch):
        # Every task trains on all rows of its two digits, so a different
        # mask is refused, as are a repeated pair and a repeated feature.
        (tx, ty), _, _ = synth_features
        monkeypatch.setattr(trainer, "_gd_grouped", lambda *a: pytest.fail("training ran"))
        rows = (ty == 2) | (ty == 7)
        fewer = rows.copy()
        fewer[np.flatnonzero(rows)[0]] = False
        task = ((2, 7), rows, np.arange(64))
        for tasks, message in (
                ([((2, 7), fewer, np.arange(64))], r"rows of pair \(2, 7\) must be all rows"),
                ([((2, 7), rows | (ty == 3), np.arange(64))],
                 r"rows contain digits \[2, 3, 7\] outside pair \(2, 7\)"),
                ([((2, 7), rows, [3, 5, 3])], r"pair \(2, 7\) repeats a feature index"),
                ([task, task], r"pair \(2, 7\) repeats .* an earlier task's pair")):
            with pytest.raises(ValueError, match=message):
                trainer._train_pairs(tx, ty, tasks, TrainHyper(max_epochs=5))

    def test_float64_weights_keep_small_updates(self, synth_features):
        # At learning rate 1e-5, epoch 3,000 moves the weights by ~1/3,000 of
        # their size, near float32's resolution; the float64 weights add the
        # moves up. Measured error: 2.8e-8 of max|w|; float32 weights gave 2.7e-6.
        (tx, ty), _, _ = synth_features
        hyper = TrainHyper(learning_rate=1e-5, max_epochs=3000, grad_tol=0.0)
        pair, rows = (2, 7), np.isin(ty, (2, 7))
        [c] = trainer._train_pairs(tx, ty, [(pair, rows, np.arange(64))], hyper)
        w, _, _ = train_logistic_reference(tx[rows], ty[rows], pair, np.arange(64), hyper)
        np.testing.assert_allclose(c.weights, w, rtol=0, atol=2e-7 * np.abs(w).max())

    def test_one_diverging_pair_is_named_without_warnings(self, synth_features):
        # Pair 3-8 alone trains on a column of 1e307, whose gradient overflows;
        # its weights stay non-finite through the remaining epochs.
        (tx, ty), _, _ = synth_features
        X = np.hstack([tx, np.full((len(tx), 1), 1e307)])
        tasks = [(pair, (ty == pair[0]) | (ty == pair[1]),
                  [64] if pair == (3, 8) else np.arange(64)) for pair in trainer.all_pairs()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError, match=r"pair \(3, 8\): weights"):
                trainer._train_pairs(X, ty, tasks, TrainHyper(max_epochs=30))

    def test_zero_learning_rate_warns_once(self, synth_features):
        (tx, ty), (vx, vy), _ = synth_features
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = trainer.build_ovo(tx, ty, vx, vy, TrainHyper(learning_rate=0.0), sbs=None)
        assert [str(w.message) for w in caught] == [
            "learning_rate is 0; returning zero-initialized weights"]
        assert not any(c.weights.any() for c in model.classifiers)


class TestSBS:
    def _problem(self, n=400, d=12, seed=6):
        # Only features 0 and 1 are informative; the rest are noise.
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        labels = np.where(X[:, 0] - X[:, 1] > 0, 3, 4)
        return X[: n // 2], labels[: n // 2], X[n // 2:], labels[n // 2:]

    def test_selects_small_informative_subset(self):
        tx, ty, vx, vy = self._problem()
        spec = SBSSpec(candidate_epochs=40, full_epochs=150)
        [(subset, record)] = trainer.sbs_select([(3, 4)], tx, ty, vx, vy,
                                                TrainHyper(), spec, return_record=True)
        assert {0, 1} <= set(subset.tolist())
        assert len(subset) < 12
        sizes = [len(sub) for sub, _ in record]
        assert sizes == list(range(12, 0, -1))
        # the returned subset's recorded accuracy respects the tolerance bar
        best = max(acc for _, acc in record)
        acc_of_subset = [acc for sub, acc in record if set(sub) == set(subset)][0]
        assert acc_of_subset >= best - spec.tolerance

    def test_degenerate_tolerance_returns_single_feature(self):
        tx, ty, vx, vy = self._problem()
        spec = SBSSpec(tolerance=1.0, candidate_epochs=20, full_epochs=50)
        [subset] = trainer.sbs_select([(3, 4)], tx, ty, vx, vy, TrainHyper(), spec)
        assert len(subset) == 1

    def test_max_features_cap(self):
        tx, ty, vx, vy = self._problem()
        spec = SBSSpec(max_features=3, candidate_epochs=20, full_epochs=50)
        [subset] = trainer.sbs_select([(3, 4)], tx, ty, vx, vy, TrainHyper(), spec)
        assert len(subset) <= 3

    def test_divergence_names_the_pair_without_warnings(self):
        tx, ty, vx, vy = self._problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError, match=r"pair \(3, 4\): weights"):
                trainer.sbs_select([(3, 4)], tx, ty, vx, vy, TrainHyper(learning_rate=1e6),
                                   SBSSpec(candidate_epochs=5))
            # In a block, the pair whose weights turn non-finite is named, not the
            # block's first: digits 5 and 6 are the rows of (3, 4) with one
            # infinite training feature, so their margins are NaN from epoch 1.
            tx, vx = (np.vstack([x, x]) for x in (tx, vx))
            ty, vy = (np.concatenate([y, y + 2]) for y in (ty, vy))
            tx[-1, 5] = np.inf
            with pytest.raises(TrainingDivergedError, match=r"pair \(5, 6\): weights"):
                trainer.sbs_select([(3, 4), (5, 6)], tx, ty, vx, vy, TrainHyper(),
                                   SBSSpec(candidate_epochs=5))


class TestBlocks:
    """Pairs eliminated in one block equal the same pairs eliminated alone, bit for bit."""

    def test_block_equals_blocks_of_one(self, synth_features, monkeypatch):
        # Same removal order, accuracies and picks, and the same candidate
        # weights after every kernel call of every round.
        (tx, ty), (vx, vy), _ = synth_features
        hyper, spec = TrainHyper(), SBSSpec(candidate_epochs=4, full_epochs=20, candidate_rows=200)
        weights = []
        kernel = trainer._gd_masked
        monkeypatch.setattr(trainer, "_gd_masked",
                            lambda *a, **kw: weights.append(kernel(*a, **kw).copy()) or a[2])
        pairs = [(0, 1), (2, 7), (3, 8), (4, 9)]
        block = trainer.sbs_select(pairs, tx, ty, vx, vy, hyper, spec, return_record=True)
        block_weights, weights[:] = weights[:], []
        for b, pair in enumerate(pairs):
            [(subset, record)] = trainer.sbs_select([pair], tx, ty, vx, vy, hyper, spec,
                                                    return_record=True)
            assert np.array_equal(subset, block[b][0])
            for (sub, acc), (block_sub, block_acc) in zip(record, block[b][1], strict=True):
                assert np.array_equal(sub, block_sub) and acc == block_acc
            assert len(weights) == len(block_weights) == 64
            for alone, stacked in zip(weights, block_weights):
                assert_bits_equal(alone[0], stacked[b])
            weights.clear()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("j", [0, 3, 6])
    def test_drop_column_equals_delete(self, dtype, j):
        # Column j of the leading k = 7 of 9 columns of a Fortran array, and
        # entry j of a vector; the columns past k stay as they were.
        X = np.asfortranarray(np.random.default_rng(j).normal(size=(5, 9)).astype(dtype))
        for A in (X, X[0].copy()):
            want, tail = np.delete(A[..., :7], j, axis=-1), A[..., 7:].copy()
            trainer._drop_column(A, j, 7)
            assert np.array_equal(A[..., :6], want) and np.array_equal(A[..., 7:], tail)

    def test_blocks_hold_equal_row_pairs_within_the_byte_budget(self, synth_features):
        (_, ty), _, _ = synth_features
        # 200 capped rows a pair: 102,400 bytes of float32 data, 10 pairs a block.
        blocks = trainer.sbs_blocks(ty, SBSSpec(candidate_rows=200), 64)
        assert [len(b) for b in blocks] == [10, 10, 10, 10, 5]
        assert sum(blocks, []) == trainer.all_pairs()
        # Uncapped, the pairs' row counts differ: consecutive equal counts
        # share a block, the others train alone.
        blocks = trainer.sbs_blocks(ty, SBSSpec(candidate_rows=None), 64)
        assert sum(blocks, []) == trainer.all_pairs()
        for block in blocks:
            rows = {np.count_nonzero(np.isin(ty, pair)) for pair in block}
            assert len(rows) == 1
            assert len(block) == 1 or 8 * rows.pop() * 64 * len(block) <= trainer._BLOCK_BYTES

    def test_unequal_rows_rejected(self, synth_features):
        (tx, ty), (vx, vy), _ = synth_features
        with pytest.raises(ValueError, match="equal candidate row counts"):
            trainer.sbs_select([(0, 1), (2, 3)], tx, ty, vx, vy, TrainHyper(),
                               SBSSpec(candidate_rows=None))

    def test_pair_without_training_rows_rejected(self, synth_features, monkeypatch):
        # Its rows would be scaled by lr/0 (was a bare ZeroDivisionError); no training runs.
        (tx, ty), (vx, vy), _ = synth_features
        keep = ~np.isin(ty, (2, 3))
        monkeypatch.setattr(trainer, "_gd_masked", lambda *a, **kw: pytest.fail("training ran"))
        with pytest.raises(ValueError, match=r"pair \(2, 3\) has no training rows; "
                                             r"raise split.train_count"):
            trainer.sbs_select([(0, 1), (2, 3)], tx[keep], ty[keep], vx, vy)

    def test_candidate_rows_of_one_digit_rejected(self, synth_features, monkeypatch):
        # At one candidate row a pair eliminated on one digit's row and kept ~1
        # feature. Selection and build_ovo reject it before any training.
        (tx, ty), (vx, vy), _ = synth_features
        spec = SBSSpec(candidate_rows=1)
        for name in ("_gd_masked", "_train_pairs"):
            monkeypatch.setattr(trainer, name, lambda *a, **kw: pytest.fail("training ran"))
        for first, call in (("2, 3", lambda: trainer.sbs_select([(2, 3)], tx, ty, vx, vy,
                                                                 spec=spec)),
                            ("0, 1", lambda: trainer.build_ovo(tx, ty, vx, vy, sbs=spec))):
            with pytest.raises(ValueError, match=rf"pair \({first}\): its first 1 training rows "
                                                 r"hold one digit; raise sbs.candidate_rows "
                                                 r"\(now 1\)"):
                call()
        # Below the cap, all of the pair's rows hold one digit: the split is at fault.
        keep = ty != 3
        with pytest.raises(ValueError, match=rf"pair \(2, 3\): its first "
                                             rf"{np.count_nonzero(ty == 2)} training rows hold one "
                                             rf"digit; raise split.train_count \(now {keep.sum()}\)"):
            trainer.sbs_select([(2, 3)], tx[keep], ty[keep], vx, vy)

    def test_pair_without_validation_rows_rejected(self, synth_features, monkeypatch):
        # Its accuracy would be 0/0; no training runs.
        (tx, ty), (vx, vy), _ = synth_features
        keep = ~np.isin(vy, (2, 3))
        for name in ("_gd_masked", "_train_pairs"):
            monkeypatch.setattr(trainer, name, lambda *a, **kw: pytest.fail("training ran"))
        for call in (lambda: trainer.sbs_select([(0, 1), (2, 3)], tx, ty, vx[keep], vy[keep]),
                     lambda: trainer.build_ovo(tx, ty, vx[keep], vy[keep], sbs=SBSSpec())):
            with pytest.raises(ValueError, match=r"pair \(2, 3\) has no validation rows; "
                                                 r"raise split.val_count"):
                call()


class TestOvO:
    def test_build_ovo_counts(self, synth_features):
        (tx, ty), (vx, vy), _ = synth_features
        model = trainer.build_ovo(tx, ty, vx, vy, TrainHyper(max_epochs=30), sbs=None)
        assert len(model.classifiers) == 45
        assert model.mean_feature_count() == 64.0
        assert sorted(c.class_pair for c in model.classifiers) == trainer.all_pairs()

    def test_build_ovo_requires_all_digits(self, synth_features):
        (tx, ty), (vx, vy), _ = synth_features
        keep = ty != 7
        with pytest.raises(ValueError, match="10 digits"):
            trainer.build_ovo(tx[keep], ty[keep], vx, vy, TrainHyper(max_epochs=5))

    def test_model_validation(self):
        cs = [toy_classifier(pair) for pair in trainer.all_pairs()[:44]]
        with pytest.raises(ValueError, match="45"):
            OvOModel(cs)


def engineered_model(winner_of):
    """Model whose pair (a, b) votes winner_of(a, b) on the all-ones input."""
    classifiers = []
    for a, b in trainer.all_pairs():
        w = 1.0 if winner_of(a, b) == a else -1.0
        classifiers.append(BinaryClassifier((a, b), np.array([0]), np.array([w])))
    return OvOModel(classifiers)


def vote(model, x):
    """(tally of 10, predicted digit) of one input, through pair_votes and tally_votes."""
    tallies, preds = tally_votes(model.pairs, pair_votes(model, x))
    return tallies[0], int(preds[0])


def save_model(model, path):
    cli._write_json(path, trainer.model_to_dict(model))


class TestVote:
    def test_sweep_winner_gets_nine(self):
        model = engineered_model(lambda a, b: 3 if 3 in (a, b) else a)
        tally, pred = vote(model, np.ones(1))
        assert tally[3] == 9
        assert pred == 3
        assert tally.sum() == 45

    def test_total_always_45(self, synth_model, synth_features):
        _, _, (sx, _) = synth_features
        for i in range(10):
            tally, _ = vote(synth_model, sx[i])
            assert tally.sum() == 45
            assert tally.max() <= 9

    def test_tiebreak_prefers_smaller_digit(self):
        # Tournament where classes 1 and 2 both collect 8 votes.
        def winner_of(a, b):
            if (a, b) == (1, 2):
                return 2   # 1 loses only to 2
            if (a, b) == (2, 3):
                return 3   # 2 loses only to 3
            if 1 in (a, b):
                return 1
            if 2 in (a, b):
                return 2
            return a
        model = engineered_model(winner_of)
        tally, pred = vote(model, np.ones(1))
        assert tally[1] == tally[2] == 8
        assert tally.max() == 8
        assert pred == 1

    def test_tally_matches_loop_reference(self):
        # The per-pair loop tally_votes replaced, restated as the reference;
        # zero votes count for b, ties go to the smallest digit.
        pairs = trainer.all_pairs()
        votes = np.random.default_rng(8).integers(-1, 2, size=(500, 45)).astype(float)
        want = np.zeros((500, 10), dtype=int)
        for k, (a, b) in enumerate(pairs):
            want[np.arange(500), np.where(votes[:, k] > 0, a, b)] += 1
        tallies, preds = tally_votes(pairs, votes)
        assert tallies.dtype == want.dtype
        assert np.array_equal(tallies, want)
        assert np.array_equal(preds, [np.flatnonzero(t == t.max())[0] for t in want])
        assert (tallies.max(axis=1)[:, None] == tallies).sum(axis=1).max() > 1  # ties occur

    @staticmethod
    def bincount_tally(pairs, votes):
        """The bincount over n x 45 winner indices that tally_votes replaced, as its reference."""
        votes = np.atleast_2d(votes)
        n = votes.shape[0]
        a, b = np.asarray(pairs).T
        winners = np.where(votes > 0, a, b) + 10 * np.arange(n)[:, None]
        tallies = np.bincount(winners.ravel(), minlength=10 * n).reshape(n, 10)
        return tallies, np.argmax(tallies, axis=1)

    @pytest.mark.parametrize("seed", range(3))
    def test_tally_matches_bincount_reference(self, seed):
        rng = np.random.default_rng(seed)
        pairs = trainer.all_pairs()
        votes = rng.choice([-1, 1], size=(300, 45))
        # All +1, all -1, and a nine-way tie at the top: 9 loses every pair,
        # and each of 0..8 beats the next four digits, counting round 0..8.
        votes[0], votes[1] = 1, -1
        votes[2] = [1 if b == 9 or b - a <= 4 else -1 for a, b in pairs]
        tallies, preds = tally_votes(pairs, votes)
        want, want_preds = self.bincount_tally(pairs, votes)
        assert tallies.dtype == want.dtype and np.array_equal(tallies, want)
        assert np.array_equal(preds, want_preds)
        assert want[2].tolist() == [5] * 9 + [0] and preds[2] == 0
        for row in votes[:5]:  # a 1-D vote vector is one row
            got, ref = tally_votes(pairs, row), self.bincount_tally(pairs, row)
            assert got[0].shape == (1, 10)
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))

    def test_vote_batch_matches_single(self, synth_model, synth_features):
        _, _, (sx, _) = synth_features
        tallies, preds = tally_votes(synth_model.pairs, pair_votes(synth_model, sx[:20]))
        for i in range(20):
            tally, pred = vote(synth_model, sx[i])
            assert np.array_equal(tally, tallies[i])
            assert pred == preds[i]


class TestModelIO:
    def test_roundtrip_lossless_and_stable(self, synth_model, tmp_path):
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
        save_model(synth_model, p1)
        loaded = trainer.load_model(p1)
        for a, b in zip(synth_model.classifiers, loaded.classifiers):
            assert a.class_pair == b.class_pair
            assert np.array_equal(a.feature_indices, b.feature_indices)
            assert np.array_equal(a.weights, b.weights)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_record_fields(self, synth_model, tmp_path):
        path = tmp_path / "m.json"
        save_model(synth_model, path)
        doc = json.loads(path.read_text())
        rec = doc["classifiers"][0]
        assert list(rec) == ["pair", "feature_indices", "weights"]

    @pytest.mark.parametrize("edit,match", [
        ({"weights": None}, r"classifier 3: missing key 'weights'"),
        ({"threshold": 0.0}, r"classifier 3: unknown key 'threshold'.*rerun `train`"),
        ({"intercept": 0.0}, r"classifier 3: unknown key 'intercept'.*rerun `train`"),
        ({"feature_indices": [0.5, 1.7], "weights": [1.0, -1.0]},
         r"classifier 3: feature_indices\[0\] must be an integer >= 0, got 0.5"),
        # Written as JSON null, NaN and Infinity; each would load as a non-finite weight.
        ({"feature_indices": [0, 1], "weights": [1.0, None]},
         r"classifier 3: weights must be finite, got nan; rerun `train`"),
        ({"feature_indices": [0, 1], "weights": [float("nan"), 1.0]},
         r"classifier 3: weights must be finite, got nan; rerun `train`"),
        ({"feature_indices": [0, 1], "weights": [1.0, float("-inf")]},
         r"classifier 3: weights must be finite, got -inf; rerun `train`"),
    ], ids=["missing-key", "threshold-key", "intercept-key", "float-index", "null-weight",
            "nan-weight", "infinite-weight"])
    def test_malformed_record_rejected(self, synth_model, tmp_path, edit, match):
        doc = trainer.model_to_dict(synth_model)
        rec = doc["classifiers"][3]
        rec.update(edit)
        if rec["weights"] is None:
            del rec["weights"]
        path = tmp_path / "m.json"
        cli._write_json(path, doc)
        with pytest.raises(ValueError, match=match):
            trainer.load_model(path)


class TestLastParse:
    """LastParse.load reuses its value only while every file holds the held bytes."""

    SIZE = 3 * trainer._CHUNK + 123  # several whole chunks and a partial one

    @pytest.fixture()
    def files(self, tmp_path):
        rng = np.random.default_rng(5)
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for i, p in enumerate(paths):
            p.write_bytes(rng.integers(0, 256, self.SIZE + i, dtype=np.uint8).tobytes())
        return paths

    @pytest.fixture()
    def slot(self):
        """(load(*paths), parsed): each parse returns its count, so a hit returns an old one."""
        slot, parsed = trainer.LastParse(), []
        return (lambda *paths: slot.load(paths, lambda *c: parsed.append(c) or len(parsed)),
                parsed)

    def test_equal_copy_at_another_path_hits(self, files, tmp_path, slot):
        load, parsed = slot
        assert load(*files) == 1
        copy = tmp_path / "copy.bin"
        copy.write_bytes(files[0].read_bytes())
        assert load(copy, files[1]) == 1 and len(parsed) == 1

    def test_rename_over_with_equal_bytes_hits(self, files, tmp_path, slot):
        load, parsed = slot
        assert load(*files) == 1
        other = tmp_path / "new.bin"
        other.write_bytes(files[0].read_bytes())
        os.replace(other, files[0])
        assert load(*files) == 1 and len(parsed) == 1

    @staticmethod
    def _edit_keeping_mtime(path, edit):
        st = os.stat(path)
        data = bytearray(path.read_bytes())
        edit(data)
        path.write_bytes(bytes(data))
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))

    def _flip(i):
        def edit(data):
            data[i] ^= 0x01
        return edit

    def _append(data):
        data.append(data[-1])

    def _cut(data):
        del data[-1]

    @pytest.mark.parametrize("edit", [_flip(0), _flip(-1), _flip(trainer._CHUNK + 7),
                                      _append, _cut],
                             ids=["first-byte-flipped", "last-byte-flipped",
                                  "second-chunk-byte-flipped", "byte-appended", "byte-cut"])
    def test_changed_bytes_with_the_old_mtime_miss(self, files, slot, edit):
        load, parsed = slot
        assert load(*files) == 1
        self._edit_keeping_mtime(files[1], edit)
        assert load(*files) == 2
        assert parsed[1] == (files[0].read_bytes(), files[1].read_bytes())
        assert load(*files) == 2

    def test_parse_error_leaves_the_slot_empty(self, files):
        slot, original = trainer.LastParse(), files[0].read_bytes()
        slot.load(files, lambda *c: "first")
        files[0].write_bytes(b"other")

        def fail(*contents):
            raise ValueError("bad file")

        with pytest.raises(ValueError, match="bad file"):
            slot.load(files, fail)
        assert slot.key is None and slot.value is None
        files[0].write_bytes(original)  # the old bytes again are parsed again
        assert slot.load(files, lambda *c: "second") == "second"

    def test_hit_neither_reads_whole_files_nor_hashes(self, files, slot, monkeypatch):
        load, parsed = slot
        assert load(*files) == 1

        def forbidden(*args, **kwargs):
            raise AssertionError("called on a hit")

        monkeypatch.setattr(pathlib.Path, "read_bytes", forbidden)
        for name, value in vars(hashlib).items():
            if callable(value) and not name.startswith("__"):
                monkeypatch.setattr(hashlib, name, forbidden)
        tracemalloc.start()
        try:
            assert load(*files) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * trainer._CHUNK < self.SIZE
        files[0].write_bytes(b"changed")
        with pytest.raises(AssertionError, match="on a hit"):  # a miss reads through the patch
            load(*files)
