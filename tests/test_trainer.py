import dataclasses
import json
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
        # Ties acceptance C8's checked gradient to training: each lockstep
        # epoch of a pair is w <- w - lr * logistic_grad(w), to rounding.
        rng = np.random.default_rng(11)
        hyper = TrainHyper(learning_rate=0.3, max_epochs=1, grad_tol=0.0, l2_lambda=0.05)
        rows, problems = [], []
        for pair, n, d in (((0, 1), 30, 4), ((2, 7), 17, 6)):
            X = rng.normal(size=(n, d))
            labels = np.array(pair)[np.arange(n) % 2]
            rows.append((X, np.where(labels == pair[0], 1.0, -1.0)))
            problems.append(trainer._pair_problem(X, labels, pair, np.arange(d)))
        first = trainer._descend(problems, hyper)
        second = trainer._descend(problems, dataclasses.replace(hyper, max_epochs=2))
        for (X, y), w1, w2 in zip(rows, first, second):
            for w_old, w_new in ((np.zeros_like(w1), w1), (w1, w2)):
                step = w_old - hyper.learning_rate * logistic_grad(w_old, X, y, hyper.l2_lambda)[0]
                np.testing.assert_allclose(w_new, step, rtol=1e-12, atol=1e-15)
        assert not np.array_equal(first[0], second[0])

    def test_gd_masked_epoch_is_a_gradient_step(self):
        # The same for one epoch of the masked candidate trainer that selection runs.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 5))
        y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        mask = rng.random((3, 5)) > 0.3
        W0 = rng.normal(size=(3, 5)) * mask
        hyper = TrainHyper(learning_rate=0.3, l2_lambda=0.05)
        W1 = trainer._gd_masked(X, y, W0.copy(), mask, hyper, epochs=1)
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
        # without feature c (grad_tol 0 disables early stopping).
        (tx, ty), _, _ = synth_features
        hyper = TrainHyper(max_epochs=40, grad_tol=0.0)
        pair = (2, 5)
        Xp, yp = trainer.filter_pair(tx, ty, pair)
        Xp, yp = Xp[:300, :10], yp[:300]
        k = 10
        mask = ~np.eye(k, dtype=bool)
        W = np.zeros((k, k))
        assert trainer._gd_masked(Xp, yp, W, mask, hyper, 40) is W  # in place
        mask_rows = (ty == pair[0]) | (ty == pair[1])
        labels = ty[mask_rows][:300]
        for c in (0, 4, 9):
            feats = [f for f in range(k) if f != c]
            ref = trainer.train_logistic(Xp, labels, pair, feats, hyper)
            np.testing.assert_allclose(np.delete(W[c], c), ref.weights, rtol=1e-10, atol=1e-12)


def train_logistic_reference(X, labels, pair, feature_indices, hyper):
    """The per-pair loop the lockstep trainer replaced: (weights, epochs stepped).

    X and labels hold the pair's rows only.
    """
    Xs = X[:, feature_indices]
    y = np.where(labels == pair[0], 1.0, -1.0)
    w = np.zeros(len(feature_indices))
    with np.errstate(over="ignore"):
        for epoch in range(hyper.max_epochs):
            grad_w, _ = logistic_grad(w, Xs, y, hyper.l2_lambda)
            if np.max(np.abs(grad_w)) < hyper.grad_tol:
                return w, epoch
            w = w - hyper.learning_rate * grad_w
    return w, hyper.max_epochs


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


class TestKernelMatchesReference:
    """The candidate-training kernel is bit-identical to the direct form."""

    def test_sigmoid_single_pass_equals_two_branch(self):
        u = np.array([0.0, -0.0, 1e-310, -1e-310, 745.0, -745.0, np.inf, -np.inf,
                      np.nan, -np.nan, 1e-20, -1e-20, 36.0, -36.0])
        u = np.concatenate([u, np.random.default_rng(8).normal(scale=40.0, size=5001)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = trainer._sigmoid_neg(u)
            ref = sigmoid_neg_two_branch(u)
            in_place = u.copy()
            trainer._sigmoid_neg(in_place, out=in_place)
        assert_bits_equal(got, ref)
        assert_bits_equal(in_place, ref)

    # Ids end in "-False", the no-intercept value of an axis these cases had while the
    # kernel could also train an intercept; each surviving case keeps its id.
    @pytest.mark.parametrize("k,n", SHAPES, ids=[f"{k}-{n}-False" for k, n in SHAPES])
    @pytest.mark.parametrize("layout", ["C", "gathered", "sliced"])
    def test_gd_masked_equals_reference(self, k, n, layout):
        rng = np.random.default_rng(k * 1000 + n)
        X = rng.random((n, 2 * k))
        cols = np.arange(k)
        X = {"C": np.ascontiguousarray(X[:, cols]),  # row-major copy
             "gathered": X[:, cols],                 # column gather: Fortran order
             "sliced": X[:, :k]}[layout]             # view with a wider row stride
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        hyper = TrainHyper(learning_rate=0.5, l2_lambda=1e-3)
        parent = rng.normal(scale=0.3, size=k)
        for mask in (np.ones((1, k), dtype=bool), ~np.eye(k, dtype=bool)):
            W = trainer._gd_masked(X, y, parent * mask, mask, hyper, 12)
            ref = gd_masked_reference(X, y, np.tile(parent, (len(mask), 1)), mask, hyper, 12)
            assert_bits_equal(W, ref)

    def test_sbs_record_equals_reference_elimination(self, synth_features):
        (tx, ty), (vx, vy), _ = synth_features
        hyper = TrainHyper(max_epochs=150)
        spec = SBSSpec(candidate_epochs=8, full_epochs=60, candidate_rows=200)
        _, record = trainer.sbs_select((3, 8), tx, ty, vx, vy, hyper, spec, return_record=True)
        ref = sbs_record_reference((3, 8), tx, ty, vx, vy, hyper, spec)
        assert len(record) == len(ref) == 64
        for (sub, acc), (ref_sub, ref_acc) in zip(record, ref):
            assert np.array_equal(sub, ref_sub)
            assert acc == ref_acc


class TestLockstepTrainer:
    """Every pair trained in lockstep equals the same pair trained alone, bit for bit."""

    @pytest.mark.parametrize("grad_tol", [0.0, 2e-2])
    # "-False" in the ids: see test_gd_masked_equals_reference.
    @pytest.mark.parametrize("features", ["full", "subsets"], ids=["full-False", "subsets-False"])
    def test_all_pairs_equal_reference(self, synth_features, features, grad_tol):
        (tx, ty), (vx, vy), _ = synth_features
        hyper = TrainHyper(max_epochs=60, grad_tol=grad_tol)
        rng = np.random.default_rng(9)
        tasks = []
        for pair in trainer.all_pairs():
            rows = (ty == pair[0]) | (ty == pair[1])
            k = 64 if features == "full" else int(rng.integers(1, 65))
            tasks.append((pair, rows, np.sort(rng.permutation(64)[:k])))
        if features == "full":
            got = trainer.build_ovo(tx, ty, vx, vy, hyper, sbs=None).classifiers
        else:
            assert len({len(f) for _, _, f in tasks}) > 20  # uneven subsets
            got = trainer._train_pairs(tx, ty, tasks, hyper)
        stopped = []
        for c, (pair, rows, feats) in zip(got, tasks):
            w, epochs = train_logistic_reference(tx[rows], ty[rows], pair, feats, hyper)
            assert c.class_pair == pair
            assert np.array_equal(c.feature_indices, feats)
            assert_bits_equal(c.weights, w)
            stopped.append(epochs)
        if grad_tol:  # pairs freeze at different epochs, and some run to the end
            assert len(set(stopped) - {hyper.max_epochs}) >= 2
            assert hyper.max_epochs in stopped

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
        subset, record = trainer.sbs_select((3, 4), tx, ty, vx, vy,
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
        subset = trainer.sbs_select((3, 4), tx, ty, vx, vy, TrainHyper(), spec)
        assert len(subset) == 1

    def test_max_features_cap(self):
        tx, ty, vx, vy = self._problem()
        spec = SBSSpec(max_features=3, candidate_epochs=20, full_epochs=50)
        subset = trainer.sbs_select((3, 4), tx, ty, vx, vy, TrainHyper(), spec)
        assert len(subset) <= 3


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
