"""One-vs-one logistic classifier training and inference.

A binary classifier for digit pair (a, b) scores an input x by the linear
margin Z = sum_i w_i * x_i and predicts +1 (class a) when Z >= Z_th, else -1
(class b). Training is full-batch gradient descent on the logistic loss.
The multiclass ensemble holds one classifier per unordered digit pair
(45 for ten digits) and predicts by majority vote.

Per-pair feature subsets come from greedy backward elimination: repeatedly
retrain without each remaining feature, drop the one whose removal helps
validation accuracy most, and finally return the smallest subset whose
recorded accuracy stays within a tolerance of the best subset seen.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass

import numpy as np


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; the learning rate is too large."""


@dataclass(frozen=True)
class TrainHyper:
    """Gradient-descent hyperparameters.

    No intercept by default: every trained weight must map onto one device
    of the array, and the array has no constant-input column. The intercept
    option exists for digital-only studies.
    """

    learning_rate: float = 0.5
    max_epochs: int = 500
    grad_tol: float = 1e-5
    l2_lambda: float = 1e-4
    include_intercept: bool = False

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.grad_tol < 0 or self.l2_lambda < 0:
            raise ValueError("grad_tol and l2_lambda must be >= 0")


@dataclass(frozen=True)
class SBSSpec:
    """Backward-elimination controls.

    tolerance: accept the smallest subset whose recorded validation accuracy
        is within this of the best subset seen (fraction, not percent).
    max_features: optional hard cap on the returned subset size.
    candidate_epochs: gradient steps per candidate retrain during
        elimination. Candidates warm-start from the current parent weights,
        so a short refinement budget ranks them reliably.
    full_epochs: gradient steps for the initial full-feature parent.
    candidate_rows: cap on training rows used during elimination (the final
        model is retrained on all rows with the full budget). None = all.
    """

    enabled: bool = True
    tolerance: float = 0.002
    max_features: int | None = None
    candidate_epochs: int = 60
    full_epochs: int = 300
    candidate_rows: int | None = 4000


@dataclass
class BinaryClassifier:
    """Linear margin classifier for one digit pair.

    Positive margin means class_pair[0]; negative means class_pair[1].
    """

    class_pair: tuple[int, int]
    feature_indices: np.ndarray
    weights: np.ndarray
    intercept: float = 0.0
    threshold: float = 0.0

    def __post_init__(self):
        a, b = self.class_pair
        if not (0 <= a < b <= 9):
            raise ValueError(f"class_pair must satisfy 0 <= a < b <= 9, got {self.class_pair}")
        self.feature_indices = np.asarray(self.feature_indices, dtype=np.intp)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.weights) != len(self.feature_indices) or len(self.weights) < 1:
            raise ValueError("weights and feature_indices must have equal nonzero length")


@dataclass
class OvOModel:
    """One-vs-one ensemble: one classifier per unordered digit pair."""

    classifiers: list[BinaryClassifier]

    def __post_init__(self):
        pairs = [c.class_pair for c in self.classifiers]
        if len(pairs) != 45 or len(set(pairs)) != 45:
            raise ValueError(f"expected 45 distinct digit pairs, got {len(set(pairs))}")

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [c.class_pair for c in self.classifiers]

    def mean_feature_count(self) -> float:
        return float(np.mean([len(c.feature_indices) for c in self.classifiers]))

    def classifier_for(self, pair: tuple[int, int]) -> BinaryClassifier:
        for c in self.classifiers:
            if c.class_pair == tuple(pair):
                return c
        raise KeyError(f"no classifier for pair {pair}")


def all_pairs(n_classes: int = 10) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n_classes), 2))


def _sigmoid_neg(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # sigma(-u) in one pass, no masks, no overflow: e = exp(-|u|) <= 1, so
    # max(e, u < 0) is 1 where u < 0 (giving 1/(1 + exp(u))) and e elsewhere
    # (giving exp(-u)/(1 + exp(-u))). min(u, -u) is -|u| and keeps a NaN's
    # sign. out may be u itself.
    u = np.asarray(u, dtype=np.float64)
    e = np.minimum(u, -u)
    np.exp(e, out=e)
    out = np.maximum(e, u < 0, out=out)
    e += 1.0
    out /= e
    return out


def logistic_loss(w: np.ndarray, X: np.ndarray, y: np.ndarray,
                  l2_lambda: float = 0.0, intercept: float = 0.0) -> float:
    """Mean logistic loss with L2 penalty on the weights (not the intercept).

    y holds +/-1 labels.
    """
    z = X @ w + intercept
    return float(np.mean(np.logaddexp(0.0, -y * z)) + 0.5 * l2_lambda * np.dot(w, w))


def logistic_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray,
                  l2_lambda: float = 0.0, intercept: float = 0.0):
    """Analytic gradient of logistic_loss: (d/dw, d/d_intercept)."""
    z = X @ w + intercept
    s = y * _sigmoid_neg(y * z)
    grad_w = -(X.T @ s) / len(y) + l2_lambda * w
    grad_b = float(-np.mean(s))
    return grad_w, grad_b


def predict_margin(c: BinaryClassifier, x: np.ndarray) -> np.ndarray | float:
    """Margin Z = sum_i w_i * x[feature_indices[i]] (+ intercept).

    Accepts a single feature vector or a (n, d) matrix.
    """
    x = np.asarray(x)
    max_idx = int(np.max(c.feature_indices))
    if x.shape[-1] <= max_idx:
        raise IndexError(f"input dimension {x.shape[-1]} does not cover feature index {max_idx}")
    z = x[..., c.feature_indices] @ c.weights + c.intercept
    return float(z) if z.ndim == 0 else z


def filter_pair(X: np.ndarray, labels: np.ndarray, pair: tuple[int, int]):
    """Restrict rows to the two digits of a pair; labels become +/-1.

    +1 encodes the smaller digit of the pair.
    """
    a, b = pair
    mask = (labels == a) | (labels == b)
    y = np.where(labels[mask] == a, 1.0, -1.0)
    return X[mask], y


def _gd_masked(X: np.ndarray, y: np.ndarray, W: np.ndarray, mask: np.ndarray,
               hyper: TrainHyper, epochs: int, with_intercept: bool) -> np.ndarray:
    """Train a batch of linear-logistic models simultaneously, in place.

    Row c of W (float64, C-contiguous) is one model and is updated in place;
    entries where mask is False must be zero on entry and stay zero, which
    makes row c equivalent to a model trained without those features. When
    with_intercept, the last column of X is the constant 1 and is never
    masked or regularized. Returns W.

    Each epoch is the plain full-batch step W <- (W - lr*(l2*W - M/n)) * mask
    with M = (y * sigma(-y * (X @ W.T))).T @ X, computed with y folded into
    the rows of X: (y*X) @ W.T equals y * (X @ W.T) and sigma(..).T @ (y*X)
    equals M bit for bit, because y = +/-1 only flips signs. The two matmuls
    see the layouts of X and W that a direct transcription would, so BLAS
    sums in the same order (its order can depend on operand layout).
    """
    n = len(y)
    lr = hyper.learning_rate
    l2 = hyper.l2_lambda
    if with_intercept:  # the constant column is not regularized
        l2 = np.full(X.shape[1], l2)
        l2[-1] = 0.0
    keep = mask.astype(np.float64)
    Xy = X * y[:, None]              # a contiguous X keeps its memory order
    V = np.empty((n, len(W)))        # y * margins, then sigma(-y * margins)
    G = np.empty_like(W)
    R = np.empty_like(W)
    with np.errstate(over="ignore"):  # divergence is detected below, not warned
        for _ in range(epochs):
            np.matmul(Xy, W.T, out=V)
            np.matmul(_sigmoid_neg(V, out=V).T, Xy, out=G)
            G /= n
            np.multiply(W, l2, out=R)
            np.subtract(R, G, out=G)
            G *= lr
            W -= G
            W *= keep
    if not np.all(np.isfinite(W)):
        raise TrainingDivergedError("weights became non-finite; lower the learning rate")
    return W


def train_logistic(X: np.ndarray, labels: np.ndarray, pair: tuple[int, int],
                   feature_indices, hyper: TrainHyper = TrainHyper()) -> BinaryClassifier:
    """Full-batch gradient descent from zero initialization.

    X and labels must already be restricted to the two digits of the pair.
    Stops at max_epochs or when the gradient infinity-norm drops below
    grad_tol. Raises TrainingDivergedError if the loss goes non-finite.
    """
    feature_indices = np.asarray(feature_indices, dtype=np.intp)
    if len(feature_indices) == 0:
        raise ValueError("feature set must be nonempty")
    a, b = pair
    present = set(np.unique(labels).tolist())
    if not present <= {a, b}:
        raise ValueError(f"rows contain digits {sorted(present)} outside pair {pair}")
    if a not in present or b not in present:
        raise ValueError(f"one class of pair {pair} is empty after filtering")

    Xs = X[:, feature_indices]
    y = np.where(labels == a, 1.0, -1.0)
    w = np.zeros(len(feature_indices))
    bias = 0.0

    if hyper.learning_rate == 0.0:
        warnings.warn("learning_rate is 0; returning zero-initialized weights", RuntimeWarning)
        return BinaryClassifier((a, b), feature_indices, w, bias)

    with np.errstate(over="ignore"):  # divergence is detected below, not warned
        for _ in range(hyper.max_epochs):
            grad_w, grad_b = logistic_grad(w, Xs, y, hyper.l2_lambda, bias)
            gmax = np.max(np.abs(grad_w))
            if hyper.include_intercept:
                gmax = max(gmax, abs(grad_b))
            if gmax < hyper.grad_tol:
                break
            w = w - hyper.learning_rate * grad_w
            if hyper.include_intercept:
                bias -= hyper.learning_rate * grad_b
            if not np.all(np.isfinite(w)):
                raise TrainingDivergedError(
                    f"pair {pair}: weights became non-finite; lower the learning rate"
                )
    loss = logistic_loss(w, Xs, y, hyper.l2_lambda, bias)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"pair {pair}: final loss is non-finite")
    return BinaryClassifier((a, b), feature_indices, w, bias)


def sbs_select(pair: tuple[int, int], train_x: np.ndarray, train_y: np.ndarray,
               val_x: np.ndarray, val_y: np.ndarray,
               hyper: TrainHyper = TrainHyper(), spec: SBSSpec = SBSSpec(),
               return_record: bool = False):
    """Greedy backward elimination of features for one digit pair.

    Starts from the full feature set. Each iteration retrains a candidate
    model per remaining feature (that feature removed), records the
    validation accuracy of the best candidate, and drops its feature. The
    returned subset is the smallest recorded one whose accuracy is at least
    best-seen minus spec.tolerance (ties in candidate accuracy break toward
    the lowest feature index).

    With return_record, also returns the elimination trail as a list of
    (feature index array, recorded validation accuracy) pairs.
    """
    Xtr, ytr = filter_pair(train_x, train_y, pair)
    Xv, yv = filter_pair(val_x, val_y, pair)
    if spec.candidate_rows is not None and len(ytr) > spec.candidate_rows:
        Xtr, ytr = Xtr[: spec.candidate_rows], ytr[: spec.candidate_rows]

    d = train_x.shape[1]
    with_b = hyper.include_intercept
    # Columns of the active features (then the constant column, if any),
    # Fortran-ordered like a column gather; np.delete keeps that order.
    Xa = np.asfortranarray(np.hstack([Xtr, np.ones((len(ytr), 1))]) if with_b else Xtr)
    Xva = np.asfortranarray(np.hstack([Xv, np.ones((len(yv), 1))]) if with_b else Xv)
    val_pos = yv[:, None] > 0

    def val_acc(W):
        return np.mean((Xva @ W.T >= 0) == val_pos, axis=0)

    active = np.arange(d)
    parent = _gd_masked(Xa, ytr, np.zeros((1, d + with_b)), np.ones((1, d + with_b), dtype=bool),
                        hyper, spec.full_epochs, with_b)[0]
    record = [(active.copy(), float(val_acc(parent[None, :])[0]))]

    while len(active) > 1:
        k = len(active)
        mask = np.ones((k, k + with_b), dtype=bool)
        mask[np.arange(k), np.arange(k)] = False
        W = _gd_masked(Xa, ytr, parent * mask, mask, hyper, spec.candidate_epochs, with_b)
        accs = val_acc(W)
        j = int(np.argmax(accs))
        parent = np.delete(W[j], j)
        active = np.delete(active, j)
        Xa = np.delete(Xa, j, axis=1)
        Xva = np.delete(Xva, j, axis=1)
        record.append((active.copy(), float(accs[j])))

    best_acc = max(acc for _, acc in record)
    cap = spec.max_features if spec.max_features is not None else d
    eligible = [(sub, acc) for sub, acc in record
                if acc >= best_acc - spec.tolerance and len(sub) <= cap]
    if eligible:
        subset = min(eligible, key=lambda e: len(e[0]))[0]
    else:
        # max_features excluded every subset within tolerance; fall back to
        # the most accurate subset under the cap.
        under_cap = [(sub, acc) for sub, acc in record if len(sub) <= cap]
        subset = max(under_cap, key=lambda e: e[1])[0]
    subset = np.sort(subset)
    return (subset, record) if return_record else subset


def build_ovo(train_x: np.ndarray, train_y: np.ndarray,
              val_x: np.ndarray, val_y: np.ndarray,
              hyper: TrainHyper = TrainHyper(),
              sbs: SBSSpec | None = None) -> OvOModel:
    """Train all 45 pairwise classifiers, optionally with feature selection."""
    present = set(np.unique(train_y).tolist())
    if present != set(range(10)):
        raise ValueError(f"training set must contain all 10 digits, has {sorted(present)}")
    d = train_x.shape[1]
    classifiers = []
    for pair in all_pairs():
        if sbs is not None and sbs.enabled:
            features = sbs_select(pair, train_x, train_y, val_x, val_y, hyper, sbs)
        else:
            features = np.arange(d)
        Xp, _ = filter_pair(train_x, train_y, pair)
        mask = (train_y == pair[0]) | (train_y == pair[1])
        classifiers.append(train_logistic(Xp, train_y[mask], pair, features, hyper))
    return OvOModel(classifiers)


def pair_votes(model: OvOModel, X: np.ndarray) -> np.ndarray:
    """+/-1 vote of every classifier on each row of X: (n, 45), classifier order.

    +1 (class_pair[0]) where the margin reaches the threshold; the boundary
    belongs to +1.
    """
    X = np.atleast_2d(X)
    return np.stack([np.where(predict_margin(c, X) >= c.threshold, 1, -1)
                     for c in model.classifiers], axis=1)


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


def score_votes(pairs: list[tuple[int, int]], votes: np.ndarray, labels: np.ndarray):
    """Tally (n, 45) pair votes and score them against the true labels.

    Returns (accuracy, 10x10 confusion matrix with rows true and columns
    predicted, predictions).
    """
    _, preds = tally_votes(pairs, votes)
    confusion = np.zeros((10, 10), dtype=int)
    np.add.at(confusion, (np.asarray(labels, dtype=int), preds), 1)
    return float(np.trace(confusion) / len(labels)), confusion, preds


def evaluate_model(model: OvOModel, X: np.ndarray, labels: np.ndarray):
    """Majority-vote accuracy, confusion matrix and predictions (see score_votes)."""
    return score_votes(model.pairs, pair_votes(model, X), labels)


def per_pair_val_accuracy(model: OvOModel, val_x: np.ndarray, val_y: np.ndarray) -> dict:
    """Validation accuracy of each binary classifier on its own digit pair."""
    out = {}
    for c in model.classifiers:
        Xv, yv = filter_pair(val_x, val_y, c.class_pair)
        z = predict_margin(c, Xv)
        out[c.class_pair] = float(np.mean((z >= c.threshold) == (yv > 0)))
    return out


def model_to_dict(model: OvOModel) -> dict:
    return {
        "classifiers": [
            {
                "pair": list(c.class_pair),
                "feature_indices": c.feature_indices.tolist(),
                "weights": c.weights.tolist(),
                "intercept": c.intercept,
                "threshold": c.threshold,
            }
            for c in model.classifiers
        ]
    }


def model_from_dict(d: dict) -> OvOModel:
    return OvOModel([
        BinaryClassifier(
            class_pair=tuple(rec["pair"]),
            feature_indices=np.asarray(rec["feature_indices"], dtype=np.intp),
            weights=np.asarray(rec["weights"]),
            intercept=float(rec.get("intercept", 0.0)),
            threshold=float(rec.get("threshold", 0.0)),
        )
        for rec in d["classifiers"]
    ])


def load_model(path) -> OvOModel:
    with open(path) as f:
        return model_from_dict(json.load(f))
