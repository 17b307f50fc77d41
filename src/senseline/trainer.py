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
import os
import pathlib
import warnings
from dataclasses import dataclass

import numpy as np


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; the learning rate is too large."""


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


# The kinds of config field: what a value must be, and the test it must pass.
# Booleans are never numbers. An enum kind is the tuple of its values.
_KINDS = {
    "count": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "count0": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "count?": ("null or an integer >= 1", lambda v: v is None or _is_int(v) and v >= 1),
    "nonneg": ("a finite number >= 0", lambda v: _is_finite(v) and v >= 0),
    "positive": ("a finite number > 0", lambda v: _is_finite(v) and v > 0),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "path": ("a non-empty path string", lambda v: isinstance(v, str) and v != ""),
    "indices": ("a list of integers >= 0",
                lambda v: isinstance(v, tuple) and all(_is_int(i) and i >= 0 for i in v)),
}


def _check_value(name: str, value, kind) -> None:
    """Raise a ValueError naming `name` unless value is of the given kind."""
    if isinstance(kind, tuple):  # an enum matches on type as well as value
        if not any(type(value) is type(c) and value == c for c in kind):
            raise ValueError(f"{name} must be one of {list(kind)}, got {value!r}")
        return
    what, ok = _KINDS[kind]
    if not ok(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_fields(section: str, obj, **kinds) -> None:
    """Check each named field of a config section; messages name `section.key`.

    Fields of the top-level config (section "") are named bare.
    """
    for key, kind in kinds.items():
        _check_value(f"{section}.{key}" if section else key, getattr(obj, key), kind)


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
        _check_fields("hyper", self, learning_rate="nonneg", max_epochs="count",
                      grad_tol="nonneg", l2_lambda="nonneg")


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
        _check_fields("sbs", self, enabled="bool", tolerance="nonneg", max_features="count?",
                      candidate_epochs="count", full_epochs="count", candidate_rows="count?")


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


def _sigma_neg(u: np.ndarray) -> np.ndarray:
    """sigma(-u) = 1/(1 + exp(u)) in place, in u's dtype: every trainer's one sigmoid form.

    Call it under np.errstate(over="ignore"): exp(u) overflowing to inf gives exactly 0."""
    np.exp(u, out=u)
    u += 1.0
    return np.reciprocal(u, out=u)


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
    with np.errstate(over="ignore"):
        s = y * _sigma_neg(y * z)
    return -(X.T @ s) / len(y) + l2_lambda * w, float(-np.mean(s))


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


def _gd_masked(Xy: np.ndarray, W: np.ndarray, mask: np.ndarray,
               hyper: TrainHyper, epochs: int) -> np.ndarray:
    """Train a batch of linear-logistic models simultaneously, in place.

    Xy is the label-folded y * X of the training rows, (n, k) or a (..., n, k)
    stack. Row c of W (float64, C-contiguous, (..., C, k)) is one model and is
    updated in place; entries where mask (C, k) is False must be zero on
    entry and stay zero, which makes row c equivalent to a model trained
    without those features. Returns W, non-finite where a model diverged.

    Each epoch is the full-batch step W <- (W - lr*(l2*W - M/n)) * mask with
    M = (y * sigma(-y * (X @ W.T))).T @ X, re-associated as
    W <- W*(1 - lr*l2) + (sigma(-(Xy @ W.T)).T @ Xy) * step with _sigma_neg,
    where step = mask * (lr/n) in the data's dtype, formed once per call:
    nine numpy calls for the whole stack. That equals the direct form up to
    rounding, not bit for bit; each slice of a stack gets the BLAS call it
    would get alone, so it trains bit for bit as alone.
    Mixed precision: the two products and the sigmoid run in the data's
    dtype, on a copy of W cast to it, while W itself is decayed and updated
    in float64. Float32 data halves the products' cost; the float64 weights
    keep the small per-epoch updates from being rounded away.
    """
    decay = 1.0 - hyper.learning_rate * hyper.l2_lambda
    Wp, G = np.empty(W.shape, Xy.dtype), np.empty(W.shape, Xy.dtype)  # W in the data's dtype
    V = np.empty(W.shape[:-2] + (Xy.shape[-2], W.shape[-2]), Xy.dtype)  # margins, then sigma(-u)
    with np.errstate(over="ignore", invalid="ignore"):
        step = (mask * (hyper.learning_rate / Xy.shape[-2])).astype(Xy.dtype)
        for _ in range(epochs):
            np.copyto(Wp, W)
            np.matmul(Xy, Wp.swapaxes(-1, -2), out=V)
            _sigma_neg(V)
            np.matmul(V.swapaxes(-1, -2), Xy, out=G)
            G *= step
            W *= decay
            W += G
    return W


def _drop_column(X: np.ndarray, j: int, k: int) -> None:
    """X[..., :k - 1] = np.delete(X[..., :k], j, axis=-1), one pass over Fortran-ordered X."""
    flat, n = X.T.reshape(-1), X.size // X.shape[-1]
    flat[j * n:(k - 1) * n] = flat[(j + 1) * n:k * n]


# Selection's lockstep blocks hold at most this many bytes of float32 data and
# margins, so that a block's products read from L2 cache, not memory.
_BLOCK_BYTES = 1 << 20


def _gd_grouped(X: np.ndarray, labels: np.ndarray, pairs: list, mask: np.ndarray,
                hyper: TrainHyper):
    """Full-batch gradient descent from zero for distinct digit pairs at once.

    Pair p = (a, b), a < b, trains on X's rows of digits a (y = +1) and b
    (y = -1), on the features where mask[p]. Returns (W, loss): float64
    (P, d) weights, 0 off the mask, and each pair's final loss. The rows sit
    by digit in one zero-padded float32 stack Xs (10, n_max, d) and each
    digit holds 9 slots, its partners' pair weights (negated where it is the
    b), so an epoch is two products for all pairs, V = y * (X @ w) and
    G = sigma(-V) @ Xs, pair (a, b)'s data term G[a, b's slot] - G[b, a's
    slot]; mixed precision as in _gd_masked. A pair freezes at the first
    epoch with max|g| < grad_tol, before the step, and steps bit for bit as
    alone. Pairs using a feature non-finite in float32 get NaN weights; it
    is zeroed for the rest (0 * inf would NaN every slot of its digit).
    """
    lr, l2, tol = hyper.learning_rate, hyper.l2_lambda, hyper.grad_tol
    P, d = mask.shape
    rows = [np.flatnonzero(labels == digit) for digit in range(10)]
    counts = np.array([len(r) for r in rows])
    stack = np.zeros((10, d, counts.max()), np.float32)  # Xs.T, C-ordered
    with np.errstate(over="ignore"):
        for digit, r in enumerate(rows):
            stack[digit, :, :len(r)] = X[r].T
    a, b = np.array(pairs).reshape(P, 2).T
    bad = ~np.isfinite(np.sum(stack, axis=2, dtype=np.float64))  # (10, d); float64 can't overflow
    poisoned = (mask & (bad[a] | bad[b])).any(axis=1)
    stack[bad] = 0.0  # the whole column of the digit: only the poisoned pairs use it
    slot = np.full((10, 10), 2 * P)  # slot s of digit i: partner s + (s >= i); 2P: zero row
    slot[a, b], slot[b, a] = np.arange(P), np.arange(P, 2 * P)  # rows w, then -w
    gather = slot[~np.eye(10, dtype=bool)].reshape(10, 9)
    halves = np.concatenate([a * 9 + b - 1, b * 9 + a])  # pair p's slot at a, then at b
    n = (counts[a] + counts[b])[:, None].astype(float)
    W, G, live = np.zeros((P, d)), np.empty((P, d)), ~poisoned
    Wp, (Wg, Gs) = np.zeros((2 * P + 1, d), np.float32), np.empty((2, 10, 9, d), np.float32)
    V, Gh = np.empty((10, 9, stack.shape[2]), np.float32), np.empty((2, P, d), np.float32)
    # A diverged pair's weights stay non-finite, in its own slots only.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hyper.max_epochs):
            np.copyto(Wp[:P], W)
            np.negative(Wp[:P], out=Wp[P:2 * P])
            np.take(Wp, gather, axis=0, out=Wg, mode="clip")  # "clip": no bounds pass
            _sigma_neg(np.matmul(Wg, stack, out=V))
            np.matmul(V, stack.swapaxes(1, 2), out=Gs)
            np.take(Gs.reshape(90, d), halves, axis=0, out=Gh.reshape(2 * P, d), mode="clip")
            np.subtract(Gh[0], Gh[1], out=G, dtype=np.float64)
            G /= n
            np.copyto(G, 0.0, where=~mask)
            np.subtract(W * l2, G, out=G)
            live &= ~(np.abs(G).max(axis=1) < tol)  # a NaN gradient never freezes
            if not live.any():
                break
            G *= lr
            np.subtract(W, G, out=W, where=live[:, None])
        # The loss from one more product, in float64 as the weights are (float32 margins
        # overflow at finite weights) and a digit at a time: mean log(1 + exp(-y z)).
        Wy = np.vstack([W, -W, np.zeros((1, d))])[gather]
        yz = np.array([w @ x for w, x in zip(Wy, stack)])
        rows_of = np.arange(stack.shape[2]) < counts[:, None, None]
        terms = np.maximum(-yz, 0.0) + np.log1p(np.exp(-np.abs(yz)))  # logaddexp(0, -yz), faster
        sums = np.sum(terms, axis=2, where=rows_of).reshape(90)
        loss = (sums[halves[:P]] + sums[halves[P:]]) / n[:, 0] + 0.5 * l2 * np.sum(W * W, axis=1)
    W[poisoned] = np.nan
    return W, loss


def _train_pairs(X: np.ndarray, labels: np.ndarray, tasks: list,
                 hyper: TrainHyper) -> list[BinaryClassifier]:
    """One classifier per (pair, rows, feature_indices) task, all in one _gd_grouped call.

    rows must mask exactly the pair's two digits in labels, and neither a
    pair nor a pair's feature may repeat; a ValueError names the pair.
    Raises TrainingDivergedError naming the first pair, in task order, whose
    weights or final loss are non-finite.
    """
    if hyper.learning_rate == 0.0:
        warnings.warn("learning_rate is 0; returning zero-initialized weights", RuntimeWarning)
    digits = labels == np.arange(10)[:, None]
    classifiers, pairs, mask = [], [], np.zeros((len(tasks), X.shape[1]), dtype=bool)
    for m, (pair, rows, features) in zip(mask, tasks):
        if len(features) == 0:
            raise ValueError("feature set must be nonempty")
        c = BinaryClassifier(tuple(pair), features, np.zeros(len(features)))
        a, b = c.class_pair
        if not np.array_equal(rows, digits[a] | digits[b]):
            present = set(labels[rows].tolist())  # np.unique would import numpy.ma
            raise ValueError(f"rows contain digits {sorted(present)} outside pair {pair}"
                             if present - {a, b} else f"rows of pair {pair} must be all rows "
                             "of its two digits")
        if not (digits[a].any() and digits[b].any()):
            raise ValueError(f"one class of pair {pair} is empty after filtering")
        m[c.feature_indices] = True
        if np.count_nonzero(m) != len(features) or c.class_pair in pairs:
            raise ValueError(f"pair {pair} repeats a feature index or an earlier task's pair")
        classifiers.append(c)
        pairs.append(c.class_pair)
    if hyper.learning_rate == 0.0:
        return classifiers
    W, loss = _gd_grouped(X, labels, pairs, mask, hyper)
    for c, w, pair_loss in zip(classifiers, W, loss):
        if not np.all(np.isfinite(w)):
            raise TrainingDivergedError(
                f"pair {c.class_pair}: weights became non-finite; lower the learning rate")
        if not np.isfinite(pair_loss):  # too-large weights make it inf or NaN
            raise TrainingDivergedError(f"pair {c.class_pair}: final loss is non-finite")
        c.weights = w[c.feature_indices]
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


def check_pair_rows(pairs: list, labels: np.ndarray, part="validation", key="val_count"):
    """Raise a ValueError naming the first pair with no rows among the part's labels."""
    present = set(labels.tolist())  # np.unique would import numpy.ma
    for pair in (p for p in pairs if not present & set(p)):
        raise ValueError(f"pair {tuple(pair)} has no {part} rows; raise "
                         f"split.{key} (now {len(labels)})")


def _candidate_rows(train_y: np.ndarray, pair: tuple[int, int], spec: SBSSpec) -> np.ndarray:
    """Indices of the pair's first spec.candidate_rows training rows; a ValueError
    names the pair if they hold one digit only, on which elimination cannot rank."""
    rows = np.flatnonzero((train_y == pair[0]) | (train_y == pair[1]))
    capped = rows[: spec.candidate_rows]
    if len(set(train_y[capped].tolist())) == 1:
        key, now = (("sbs.candidate_rows", spec.candidate_rows) if len(capped) < len(rows)
                    else ("split.train_count", len(train_y)))
        raise ValueError(f"pair {tuple(pair)}: its first {len(capped)} training rows hold one "
                         f"digit; raise {key} (now {now})")
    return capped


def sbs_select(pairs: list, train_x: np.ndarray, train_y: np.ndarray,
               val_x: np.ndarray, val_y: np.ndarray,
               hyper: TrainHyper = TrainHyper(), spec: SBSSpec = SBSSpec(),
               return_record: bool = False) -> list:
    """Greedy backward elimination of features for a block of pairs, in lockstep.

    Per pair, each round retrains a candidate model per remaining feature
    (that feature removed), records the validation accuracy of the best
    candidate (ties break toward the lowest feature index) and drops its
    feature. The pair's subset is the smallest recorded one whose accuracy
    is at least best-seen minus spec.tolerance. The pairs' candidate rows
    must be equal in number (see sbs_blocks) and hold both digits of their
    pair. They are folded with their +/-1 labels (+1 = pair[0]; a sign flip)
    into one float32 (B, n, d) stack of Fortran-ordered slices, so each
    pair's trail is bit for bit its trail alone (see _gd_masked). A round
    removes the eliminated column in place, for the next round's leading
    [..., :k] view. Accuracy is an exact hit count over n_val. Returns each
    pair's sorted subset, or with return_record its (subset, trail), a trail
    being (feature index array, recorded accuracy) pairs.
    """
    check_pair_rows(pairs, train_y, "training", "train_count")
    check_pair_rows(pairs, val_y)
    B, d = len(pairs), train_x.shape[1]
    rows = [_candidate_rows(train_y, pair, spec) for pair in pairs]
    with np.errstate(over="ignore"):  # a value beyond float32's range is inf: its pair diverges
        folded = [np.multiply(train_x[r], np.where(train_y[r] == p[0], 1.0, -1.0)[:, None],
                              dtype=np.float32) for p, r in zip(pairs, rows)]
    val = [(np.asfortranarray(X), y, np.count_nonzero(y < 0))
           for X, y in (filter_pair(val_x, val_y, pair) for pair in pairs)]
    if len({len(Xy) for Xy in folded}) > 1:
        raise ValueError("the pairs of a block must have equal candidate row counts")
    Xy = np.ascontiguousarray([f.T for f in folded]).swapaxes(1, 2)
    weights, keep, active = np.empty(B * d * d), ~np.eye(d, dtype=bool), np.tile(range(d), (B, 1))

    def descend(W, mask, epochs):
        _gd_masked(Xy[..., :W.shape[-1]], W, mask, hyper, epochs)
        for pair in (p for p, ok in zip(pairs, np.isfinite(W).all(axis=(1, 2))) if not ok):
            raise TrainingDivergedError(f"pair {pair}: weights became non-finite; "
                                        "lower the learning rate")
        return W

    W = descend(np.zeros((B, 1, d)), np.ones((1, d), dtype=bool), spec.full_epochs)
    records = [[(active[b].copy(), float((n_neg + y @ (Xv @ W[b].T >= 0))[0] / len(y)))]
               for b, (Xv, y, n_neg) in enumerate(val)]
    parent = W[:, 0].copy()
    for k in range(d, 1, -1):
        W = weights[: B * k * k].reshape(B, k, k)
        W[:] = parent[:, None, :k]
        W.reshape(B, k * k)[:, :: k + 1] = 0.0
        descend(W, keep[:k, :k], spec.candidate_epochs)
        for b, (Xv, y, n_neg) in enumerate(val):
            hits = n_neg + y @ (Xv[:, :k] @ W[b].T >= 0)  # +1 rows hit at >= 0, -1 below
            j = int(np.argmax(hits))
            parent[b, :k] = W[b, j]
            for X in (parent[b], active[b], Xy[b], Xv):
                _drop_column(X, j, k)
            records[b].append((active[b, : k - 1].copy(), float(hits[j] / len(y))))
    return [(pick_subset(r, spec), r) if return_record else pick_subset(r, spec) for r in records]


def pick_subset(record: list, spec: SBSSpec) -> np.ndarray:
    """The sorted subset sbs_select returns for an elimination trail.

    record is the trail: (feature index array, recorded validation accuracy)
    pairs, the full feature set first.
    """
    best_acc = max(acc for _, acc in record)
    cap = spec.max_features if spec.max_features is not None else len(record[0][0])
    eligible = [(sub, acc) for sub, acc in record
                if acc >= best_acc - spec.tolerance and len(sub) <= cap]
    if eligible:
        subset = min(eligible, key=lambda e: len(e[0]))[0]
    else:
        # max_features excluded every subset within tolerance; fall back to
        # the most accurate subset under the cap.
        under_cap = [(sub, acc) for sub, acc in record if len(sub) <= cap]
        subset = max(under_cap, key=lambda e: e[1])[0]
    return np.sort(subset)


def build_ovo(train_x: np.ndarray, train_y: np.ndarray,
              val_x: np.ndarray, val_y: np.ndarray,
              hyper: TrainHyper = TrainHyper(),
              sbs: SBSSpec | None = None) -> OvOModel:
    """Train all 45 pairwise classifiers, optionally with feature selection."""
    present = set(train_y.tolist())
    if present != set(range(10)):
        raise ValueError(f"training set must contain all 10 digits, has {sorted(present)}")
    features = [np.arange(train_x.shape[1]) for _ in range(45)]
    if sbs is not None and sbs.enabled:
        check_pair_rows(all_pairs(), val_y)
        features = [f for block in sbs_blocks(train_y, sbs, train_x.shape[1])
                    for f in sbs_select(block, train_x, train_y, val_x, val_y, hyper, sbs)]
    return OvOModel(_train_pairs(train_x, train_y, [
        (pair, (train_y == pair[0]) | (train_y == pair[1]), f)
        for pair, f in zip(all_pairs(), features)], hyper))


def sbs_blocks(train_y: np.ndarray, spec: SBSSpec, d: int) -> list[list]:
    """The 45 pairs in sbs_select's blocks: runs of consecutive pairs with equal
    candidate row counts n whose float32 data and margins (n x d each a pair) fit
    _BLOCK_BYTES. A ValueError names the first pair whose candidate rows hold one digit."""
    blocks, rows = [], [len(_candidate_rows(train_y, pair, spec)) for pair in all_pairs()]
    for i, (pair, n) in enumerate(zip(all_pairs(), rows)):
        if i and n == rows[i - 1] and 8 * n * d * (len(blocks[-1]) + 1) <= _BLOCK_BYTES:
            blocks[-1].append(pair)
        else:
            blocks.append([pair])
    return blocks


def pair_votes(model: OvOModel, X: np.ndarray) -> np.ndarray:
    """+/-1 vote of every classifier on each row of X: (n, 45), classifier order.

    +1 (class_pair[0]) where the margin is >= 0; the boundary belongs to +1.
    """
    X = np.atleast_2d(X)
    return np.stack([np.where(predict_margin(c, X) >= 0, 1, -1)
                     for c in model.classifiers], axis=1)


def tally_votes(pairs: list[tuple[int, int]], votes: np.ndarray):
    """votes (..., 45) of +/-1 -> (tallies (..., 10), predictions).

    A vote > 0 goes to the pair's a, any other to b: a digit's tally is its
    count of lines as b plus (votes > 0) @ (+1 as a, -1 as b), exact in
    float32 (every partial sum is an integer below 2**24), whose (n, 10)
    product and cast of the votes take half the memory of float64's.
    """
    votes = np.atleast_2d(votes)
    a, b = np.asarray(pairs).T
    lines = np.arange(len(pairs))
    net = np.zeros((len(pairs), 10), np.float32)
    net[lines, a], net[lines, b] = 1.0, -1.0
    tallies = ((votes > 0) @ net).astype(np.int64) + np.bincount(b, minlength=10)
    preds = np.argmax(tallies, axis=1)  # argmax takes the smallest digit on ties
    return tallies, preds


def score_predictions(preds: np.ndarray, labels: np.ndarray):
    """Score (n,) predicted digits against the true labels.

    Returns (accuracy, 10x10 confusion matrix with rows true and columns
    predicted). Labels must be one digit 0..9 per prediction.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.shape != preds.shape:
        raise ValueError(f"{labels.size} labels for {len(preds)} inputs")
    if labels.size and (labels.min() < 0 or labels.max() > 9):
        raise ValueError("labels must be digits 0..9")
    confusion = np.zeros((10, 10), dtype=int)
    np.add.at(confusion, (labels, preds), 1)
    return float(np.trace(confusion) / len(labels)), confusion


def evaluate_model(model: OvOModel, X: np.ndarray, labels: np.ndarray):
    """Majority-vote accuracy, confusion matrix (see score_predictions) and predictions."""
    _, preds = tally_votes(model.pairs, pair_votes(model, X))
    return (*score_predictions(preds, labels), preds)


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
_INTP_MAX = int(np.iinfo(np.intp).max)  # a larger index does not fit an index array


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
            if type(v) is not int or not 0 <= v <= _INTP_MAX:  # a call per entry: ~2.5 ms a model
                _check_value(f"classifier {i}: {key}[{j}]", v, "count0")
                raise ValueError(f"classifier {i}: {key}[{j}] must be at most {_INTP_MAX}, "
                                 f"got {v!r}")
    try:
        c = BinaryClassifier(tuple(rec["pair"]), rec["feature_indices"], rec["weights"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"classifier {i}: {e}; rerun `train`") from None
    c.feature_indices.flags.writeable = c.weights.flags.writeable = False
    return c


def model_from_dict(d: dict) -> OvOModel:
    """The read-only model of a model_to_dict document; malformed records raise ValueError."""
    records = d.get("classifiers") if isinstance(d, dict) else None
    if not isinstance(records, list):
        raise ValueError("model file has no 'classifiers' list; rerun `train`")
    return OvOModel([_classifier_from_record(i, rec) for i, rec in enumerate(records)])


class LastParse:
    """The last value parsed, reused while its key matches.

    `load` keys on the files' own bytes and `extra`, never path, mtime or
    size, which a same-size rewrite within one timestamp tick keeps. A
    later call compares each file with the held bytes through one fixed
    buffer, so a hit neither hashes nor allocates a file-sized copy; only
    a miss reads the files whole. `keyed` takes the key as given, such as
    other slots' keys for a value derived from theirs. Hits share the
    value: make it immutable.
    """

    def __init__(self):
        self.key, self.value = None, None

    def load(self, paths, parse, *extra):
        """parse(*contents) of the files, reused while their bytes and `extra` match."""
        n = len(paths)
        if self.key is not None and self.key[n:] == extra:
            buf = bytearray(_CHUNK)
            if all(_holds(p, held, buf) for p, held in zip(paths, self.key)):
                return self.value
        self.key = self.value = None  # the old bytes go before the new ones are read
        contents = tuple(pathlib.Path(p).read_bytes() for p in paths)
        return self.keyed(contents + extra, lambda: parse(*contents))

    def keyed(self, key, make):
        """make(), reused while `key` matches."""
        if key != self.key:
            self.key = self.value = None
            self.value, self.key = make(), key
        return self.value


_CHUNK = 1 << 16  # bytes a hit reads at a time


def _holds(path, data: bytes, buf: bytearray) -> bool:
    """Whether the file at path holds exactly `data`, read into buf chunk by chunk."""
    with open(path, "rb", buffering=0) as f:
        if os.fstat(f.fileno()).st_size != len(data):
            return False
        view, offset = memoryview(buf), 0
        while got := f.readinto(buf):
            if not data.startswith(view[:got], offset):
                return False
            offset += got
        return offset == len(data)


def load_model(path) -> OvOModel:
    """The model in a model file."""
    return model_from_dict(json.loads(pathlib.Path(path).read_bytes()))
