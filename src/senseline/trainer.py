"""One-vs-one logistic classifier training and inference.

A binary classifier for digit pair (a, b) scores an input x by the linear
margin Z = sum_i w_i * x_i and predicts +1 (class a) when Z >= 0, else -1
(class b). That is all the array realizes: one device per weight, no bias
device, and a line that decides at a fixed vdd/2. Training is full-batch
gradient descent on the logistic loss. The multiclass ensemble holds one
classifier per unordered digit pair (45 for ten digits) and predicts by
majority vote.

Per-pair feature subsets come from greedy backward elimination: repeatedly
retrain without each remaining feature, drop the one whose removal helps
validation accuracy most, and finally return the smallest subset whose
recorded accuracy stays within a tolerance of the best subset seen.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; the learning rate is too large."""


def _check_number(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _check_count(name: str, value, optional: bool = False, minimum: int = 1) -> None:
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be {'null or ' if optional else ''}an integer "
                         f">= {minimum}, got {value!r}")


@dataclass(frozen=True)
class TrainHyper:
    """Gradient-descent hyperparameters.

    Models have no intercept: every trained weight maps onto one device of
    the array, and the array has no constant-input column.
    """

    learning_rate: float = 0.5
    max_epochs: int = 500
    grad_tol: float = 1e-5
    l2_lambda: float = 1e-4

    def __post_init__(self):
        for name in ("learning_rate", "grad_tol", "l2_lambda"):
            _check_number(name, getattr(self, name))
        _check_count("max_epochs", self.max_epochs)


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

    def __post_init__(self):
        if not isinstance(self.enabled, bool):
            raise ValueError(f"enabled must be true or false, got {self.enabled!r}")
        _check_number("tolerance", self.tolerance)
        _check_count("candidate_epochs", self.candidate_epochs)
        _check_count("full_epochs", self.full_epochs)
        _check_count("max_features", self.max_features, optional=True)
        _check_count("candidate_rows", self.candidate_rows, optional=True)


@dataclass
class BinaryClassifier:
    """Linear margin classifier for one digit pair.

    Positive margin means class_pair[0]; negative means class_pair[1].
    """

    class_pair: tuple[int, int]
    feature_indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        a, b = self.class_pair
        if not (0 <= a < b <= 9):
            raise ValueError(f"class_pair must satisfy 0 <= a < b <= 9, got {self.class_pair}")
        self.feature_indices = np.asarray(self.feature_indices, dtype=np.intp)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.weights) != len(self.feature_indices) or len(self.weights) < 1:
            raise ValueError("weights and feature_indices must have equal nonzero length")
        bad = self.weights[~np.isfinite(self.weights)]
        if bad.size:
            raise ValueError(f"weights must be finite, got {float(bad[0])}")


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
    """Margin Z = sum_i w_i * x[feature_indices[i]].

    Accepts a single feature vector or a (n, d) matrix.
    """
    x = np.asarray(x)
    max_idx = int(np.max(c.feature_indices))
    if x.shape[-1] <= max_idx:
        raise IndexError(f"input dimension {x.shape[-1]} does not cover feature index {max_idx}")
    z = x[..., c.feature_indices] @ c.weights
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
               hyper: TrainHyper, epochs: int) -> np.ndarray:
    """Train a batch of linear-logistic models simultaneously, in place.

    Row c of W (float64, C-contiguous) is one model and is updated in place;
    entries where mask is False must be zero on entry and stay zero, which
    makes row c equivalent to a model trained without those features.
    Returns W.

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


# Pairs train in lockstep blocks whose folded matrices total at most this
# many bytes, so that a block's two matmuls per epoch read from L2 cache
# rather than memory. Tuned on a Xeon with 2 MB of L2 per core: at 2,000
# training rows the 45 pairs trained in 0.15 s in 1 MiB blocks, 0.19 s in
# one block and 0.25 s one pair at a time.
_BLOCK_BYTES = 1 << 20


def _pair_problem(X: np.ndarray, labels: np.ndarray, pair: tuple[int, int], feature_indices):
    """Check one pair's rows; return (feature_indices, y * X[:, features]).

    y holds the +/-1 labels (+1 = pair[0]). Folding y into the rows is exact:
    it only flips signs. The column gather is Fortran-ordered and the fold
    keeps that order, so BLAS sums the margins as it would for X[:, features].
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
    y = np.where(labels == a, 1.0, -1.0)
    return feature_indices, X[:, feature_indices] * y[:, None]


def _descend(problems: list, hyper: TrainHyper):
    """Full-batch gradient descent from zero for a block of pairs, in lockstep.

    problems are _pair_problem results. Returns each pair's weights, as
    views into one array. Each pair takes exactly the steps it would take
    alone: w <- w - lr * (l2*w - (Xy.T @ s) / n) with s = sigma(-(Xy @ w)).
    A pair freezes at the first epoch whose gradient infinity-norm is below
    grad_tol, before that epoch's step. The pairs share one margin buffer
    and one weight and gradient vector, so each epoch makes one elementwise
    call where a pair alone would make one each.
    """
    lr, l2, tol = hyper.learning_rate, hyper.l2_lambda, hyper.grad_tol
    Xys = [Xy for _, Xy in problems]
    sizes = [len(f) for f, _ in problems]
    w_start = np.cumsum([0] + sizes)
    n_start = np.cumsum([0] + [len(Xy) for Xy in Xys])
    W = np.zeros(w_start[-1])
    G = np.empty_like(W)
    R = np.empty_like(W)
    V = np.empty(n_start[-1])            # y * margins, then sigma(-y * margins)
    Ws = [W[s:e] for s, e in zip(w_start, w_start[1:])]
    Gs = [G[s:e] for s, e in zip(w_start, w_start[1:])]
    Vs = [V[s:e] for s, e in zip(n_start, n_start[1:])]
    n_of_w = np.repeat([float(len(Xy)) for Xy in Xys], sizes)
    live = np.ones(len(problems), dtype=bool)
    steps, live_w = range(len(problems)), True
    # A diverged pair's weights stay non-finite; the caller checks them once.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hyper.max_epochs):
            for p in steps:
                np.matmul(Xys[p], Ws[p], out=Vs[p])
            _sigmoid_neg(V, out=V)
            for p in steps:
                np.matmul(Xys[p].T, Vs[p], out=Gs[p])
            G /= n_of_w
            np.multiply(W, l2, out=R)
            np.subtract(R, G, out=G)
            frozen = live & (np.maximum.reduceat(np.abs(G), w_start[:-1]) < tol)
            if frozen.any():
                live &= ~frozen
                if not live.any():
                    break
                steps = np.flatnonzero(live).tolist()
                live_w = np.repeat(live, sizes)
            G *= lr
            np.subtract(W, G, out=W, where=live_w)
    return Ws


def _train_pairs(X: np.ndarray, labels: np.ndarray, tasks: list,
                 hyper: TrainHyper) -> list[BinaryClassifier]:
    """One classifier per (pair, rows, feature_indices) task, rows a boolean mask.

    Builds each block's pair problems only when the block trains, so at most
    one block's matrices are held at a time. Raises TrainingDivergedError
    naming the first pair whose weights or final loss are non-finite.
    """
    if hyper.learning_rate == 0.0:
        warnings.warn("learning_rate is 0; returning zero-initialized weights", RuntimeWarning)
    ends, block_bytes = [], 0
    for i, (_, rows, features) in enumerate(tasks):
        nbytes = 8 * np.count_nonzero(rows) * len(features)
        if i and block_bytes + nbytes > _BLOCK_BYTES:
            ends.append(i)
            block_bytes = 0
        block_bytes += nbytes
    classifiers = []
    for start, end in zip([0] + ends, ends + [len(tasks)]):
        block = tasks[start:end]
        problems = [_pair_problem(X[rows], labels[rows], pair, features)
                    for pair, rows, features in block]
        if hyper.learning_rate == 0.0:
            classifiers += [BinaryClassifier(pair, f, np.zeros(len(f)))
                            for (pair, _, _), (f, _) in zip(block, problems)]
            continue
        for (pair, _, _), (features, Xy), w in zip(block, problems, _descend(problems, hyper)):
            if not np.all(np.isfinite(w)):
                raise TrainingDivergedError(
                    f"pair {pair}: weights became non-finite; lower the learning rate")
            # Xy = y * X, so with labels 1 the margins are the label-signed
            # ones and the loss is the same.
            if not np.isfinite(logistic_loss(w, Xy, 1.0, hyper.l2_lambda)):
                raise TrainingDivergedError(f"pair {pair}: final loss is non-finite")
            classifiers.append(BinaryClassifier(pair, features, w.copy()))
    return classifiers


def train_logistic(X: np.ndarray, labels: np.ndarray, pair: tuple[int, int],
                   feature_indices, hyper: TrainHyper = TrainHyper()) -> BinaryClassifier:
    """Full-batch gradient descent from zero initialization.

    X and labels must already be restricted to the two digits of the pair.
    Stops at max_epochs or when the gradient infinity-norm drops below
    grad_tol. Raises TrainingDivergedError if the loss goes non-finite.
    """
    rows = np.ones(len(labels), dtype=bool)
    return _train_pairs(X, labels, [(tuple(pair), rows, feature_indices)], hyper)[0]


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
    # Columns of the active features, Fortran-ordered like a column gather
    # (BLAS may sum in another order for another layout); np.delete keeps
    # that order.
    Xa = np.asfortranarray(Xtr)
    Xva = np.asfortranarray(Xv)
    val_pos = yv[:, None] > 0

    def val_acc(W):
        return np.mean((Xva @ W.T >= 0) == val_pos, axis=0)

    active = np.arange(d)
    parent = _gd_masked(Xa, ytr, np.zeros((1, d)), np.ones((1, d), dtype=bool),
                        hyper, spec.full_epochs)[0]
    record = [(active.copy(), float(val_acc(parent[None, :])[0]))]

    while len(active) > 1:
        mask = ~np.eye(len(active), dtype=bool)
        W = _gd_masked(Xa, ytr, parent * mask, mask, hyper, spec.candidate_epochs)
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
    tasks = []
    for pair in all_pairs():
        if sbs is not None and sbs.enabled:
            features = sbs_select(pair, train_x, train_y, val_x, val_y, hyper, sbs)
        else:
            features = np.arange(train_x.shape[1])
        tasks.append((pair, (train_y == pair[0]) | (train_y == pair[1]), features))
    return OvOModel(_train_pairs(train_x, train_y, tasks, hyper))


def pair_votes(model: OvOModel, X: np.ndarray) -> np.ndarray:
    """+/-1 vote of every classifier on each row of X: (n, 45), classifier order.

    +1 (class_pair[0]) where the margin is >= 0; the boundary belongs to +1.
    """
    X = np.atleast_2d(X)
    return np.stack([np.where(predict_margin(c, X) >= 0, 1, -1)
                     for c in model.classifiers], axis=1)


def tally_votes(pairs: list[tuple[int, int]], votes: np.ndarray):
    """votes (..., 45) of +/-1 -> (tallies (..., 10), predictions)."""
    votes = np.atleast_2d(votes)
    n = votes.shape[0]
    a, b = np.asarray(pairs).T
    winners = np.where(votes > 0, a, b) + 10 * np.arange(n)[:, None]
    tallies = np.bincount(winners.ravel(), minlength=10 * n).reshape(n, 10)
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
        out[c.class_pair] = float(np.mean((z >= 0) == (yv > 0)))
    return out


def model_to_dict(model: OvOModel) -> dict:
    return {
        "classifiers": [
            {
                "pair": list(c.class_pair),
                "feature_indices": c.feature_indices.tolist(),
                "weights": c.weights.tolist(),
            }
            for c in model.classifiers
        ]
    }


_RECORD_KEYS = ("pair", "feature_indices", "weights")


def _classifier_from_record(i: int, rec) -> BinaryClassifier:
    """Classifier i of a model file; a ValueError names i and the key at fault."""
    if not isinstance(rec, dict):
        raise ValueError(f"classifier {i}: expected an object with keys {list(_RECORD_KEYS)}")
    unknown = [k for k in rec if k not in _RECORD_KEYS]
    missing = [k for k in _RECORD_KEYS if k not in rec]
    if unknown or missing:
        raise ValueError(f"classifier {i}: {'unknown' if unknown else 'missing'} key "
                         f"{(unknown or missing)[0]!r}; a record holds exactly "
                         f"{', '.join(_RECORD_KEYS)}; rerun `train`")
    for key in ("pair", "feature_indices"):
        if not isinstance(rec[key], list):
            raise ValueError(f"classifier {i}: {key} must be a list, got {rec[key]!r}")
        for j, v in enumerate(rec[key]):
            if type(v) is not int or v < 0:  # a call per entry would cost ~2.5 ms a model
                _check_count(f"classifier {i}: {key}[{j}]", v, minimum=0)
    try:
        return BinaryClassifier(tuple(rec["pair"]), rec["feature_indices"], rec["weights"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"classifier {i}: {e}; rerun `train`") from None


def model_from_dict(d: dict) -> OvOModel:
    """The model of a model_to_dict document; malformed records raise ValueError."""
    records = d.get("classifiers") if isinstance(d, dict) else None
    if not isinstance(records, list):
        raise ValueError("model file has no 'classifiers' list; rerun `train`")
    return OvOModel([_classifier_from_record(i, rec) for i, rec in enumerate(records)])


def load_model(path) -> OvOModel:
    with open(path) as f:
        return model_from_dict(json.load(f))
