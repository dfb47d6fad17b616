"""Feature ranking by four methods, and top-k dataset projection.

All four methods return a full permutation of the dataset's feature names,
most impactful first, with ties broken by the dataset's column order:

* rfe         recursive elimination around an L2-regularized logistic fit,
* lasso       cross-validated L1 linear regression by coordinate descent
              with covariance updates,
* univariate  one-way analysis-of-variance F statistic per feature,
* importance  permutation importance measured on this package's own detector.

Their settings are the constants below, one value each.  Targets are
binarized benign-vs-malicious throughout except for the univariate F, which
handles any number of classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import detector, parallel
from .preprocess import Dataset

F_SENTINEL = 1e300  # stands in for an infinite F when within-class variance is 0
RFE_STEP = 5  # features dropped per elimination fit
LASSO_LAMBDAS = np.logspace(-4, 1, 30)[::-1]  # the lambda path, largest first
LASSO_FOLDS = 5
LASSO_MAX_SWEEPS = 500  # coordinate-descent sweeps per lambda before a fit is given up as unconverged
IMPORTANCE_EPOCHS = 60
IMPORTANCE_LEARNING_RATE = 0.05  # hotter than the detector's, to converge on small splits too
IMPORTANCE_TRIALS = 3  # shuffles of each feature
REPORT_TOP = 20  # names per method in a ranking report


@dataclass
class FeatureRanking:
    method: str
    ranked_names: list[str]
    scores: dict[str, float]
    flagged: list[str] = field(default_factory=list)


def _ordered(names: Sequence[str], keyed: list[tuple]) -> list[str]:
    """Sort feature indices by (key..., column index) and map to names."""
    order = sorted(range(len(keyed)), key=lambda j: keyed[j] + (j,))
    return [names[j] for j in order]


def _logistic_weights(X: np.ndarray, y: np.ndarray, l2: float = 1e-3, iters: int = 300, lr: float = 0.5) -> np.ndarray:
    """Full-batch gradient descent on L2-regularized logistic loss.

    Deterministic (zero init); returns the weight vector without intercept.
    """
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(iters):
        g = detector._sigmoid(X @ w + b) - y
        w -= lr * (X.T @ g / n + l2 * w)
        b -= lr * float(g.mean())
    return w


def _binary_targets(dataset: Dataset, method: str) -> np.ndarray:
    """The benign-vs-attack targets a linear ranker fits; a training set of
    one class, which gives it nothing to separate, is rejected by its
    labels."""
    y = dataset.binary_labels()
    if len(set(y.tolist())) < 2:
        found = ", ".join(sorted(set(dataset.labels))) or "no rows"
        raise ValueError(f"{method} ranking needs both benign and attack rows; the training set holds only {found}")
    return y


def rank_rfe(dataset: Dataset) -> FeatureRanking:
    """Repeatedly fit, drop the RFE_STEP weakest |weight| features, and rank
    by reverse elimination order."""
    if dataset.width < 2:
        raise ValueError("rfe needs at least 2 features")
    y = _binary_targets(dataset, "rfe")
    names = dataset.feature_names
    remaining = list(range(dataset.width))
    eliminated: list[int] = []
    while len(remaining) > 1:
        w = _logistic_weights(dataset.matrix[:, remaining], y)
        order = sorted(range(len(remaining)), key=lambda j: (abs(w[j]), remaining[j]))
        drop = order[: min(RFE_STEP, len(remaining) - 1)]
        eliminated.extend(remaining[j] for j in drop)
        kept = set(drop)
        remaining = [idx for j, idx in enumerate(remaining) if j not in kept]
    ranked_idx = remaining + list(reversed(eliminated))
    ranked_names = [names[i] for i in ranked_idx]
    scores = {names[i]: float(len(ranked_idx) - pos) for pos, i in enumerate(ranked_idx)}
    return FeatureRanking("rfe", ranked_names, scores)


@dataclass(frozen=True)
class _GramStats:
    """What the lasso objective needs of (X, y), each averaged over the n rows:
    XᵀX/n, Xᵀy/n, the column means, the column mean squares and the mean of
    y.  Built once per data set, outside the λ loop."""

    gram: np.ndarray
    xty: np.ndarray
    col_mean: np.ndarray
    col_ms: np.ndarray
    y_mean: float

    @classmethod
    def from_xy(cls, X: np.ndarray, y: np.ndarray) -> "_GramStats":
        n = X.shape[0]
        return cls(
            gram=X.T @ X / n,
            xty=X.T @ y / n,
            col_mean=X.mean(axis=0),
            col_ms=(X * X).mean(axis=0),
            y_mean=float(y.mean()),
        )


def _descend(
    stats: _GramStats, lam: float, w: np.ndarray, b: float, max_iter: int = LASSO_MAX_SWEEPS, tol: float = 1e-8
) -> tuple[np.ndarray, float, int]:
    """Cyclic coordinate descent on (1/2n)||y - b - Xw||^2 + lam * ||w||_1 by
    covariance updates (Friedman, Hastie & Tibshirani, JSS 2010).

    Instead of the n-length residual r = y - b - Xw it carries the d-length
    gradient q = Xᵀr/n and the residual mean, which give the same iterates
    up to rounding at O(d) per coordinate move.  Returns the coefficients,
    the intercept and the sweeps run: `max_iter` sweeps mean the fit stopped
    at the cap, not at `tol`.
    """
    G, mean, ms = stats.gram, stats.col_mean.tolist(), stats.col_ms.tolist()
    q = stats.xty - b * stats.col_mean - G @ w
    r_mean = stats.y_mean - b - float(stats.col_mean @ w)
    coords = [j for j in range(len(w)) if ms[j] != 0.0]
    wl = w.tolist()
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_delta = 0.0
        for j in coords:
            rho = q.item(j) + ms[j] * wl[j]
            shrunk = abs(rho) - lam
            new = (shrunk if rho > 0 else -shrunk) / ms[j] if shrunk > 0.0 else 0.0
            delta = new - wl[j]
            if delta != 0.0:
                q -= delta * G[j]  # row j is column j: the Gram matrix is symmetric
                r_mean -= delta * mean[j]
                wl[j] = new
                max_delta = max(max_delta, abs(delta))
        q -= r_mean * stats.col_mean
        b += r_mean
        r_mean = 0.0
        if max_delta < tol:
            break
    return np.array(wl), b, sweeps


def _path(stats: _GramStats, lambdas: np.ndarray) -> list[tuple[np.ndarray, float, int]]:
    """(coefficients, intercept, sweeps) per lambda, warm-started along the
    grid."""
    w = np.zeros(len(stats.xty))
    b = stats.y_mean
    path = []
    for lam in lambdas:
        w, b, sweeps = _descend(stats, float(lam), w, b)
        path.append((w, b, sweeps))
    return path


def rank_lasso(dataset: Dataset, seed: int = 0) -> FeatureRanking:
    """Rank by |coefficient| at the cross-validated lambda; features already
    at zero there are ordered by where along the path they vanished.

    The Gram statistics of the LASSO_FOLDS fit sets and of all rows are
    built here; their paths are independent and run side by side
    (`parallel.fork_map`), each bit for bit what it gives alone.  Every fit
    that ran `LASSO_MAX_SWEEPS` sweeps without converging is named in
    `flagged` by its path and lambda.
    """
    y = _binary_targets(dataset, "lasso")
    X = dataset.matrix
    n = len(y)
    if n < LASSO_FOLDS:
        raise ValueError(f"lasso needs at least {LASSO_FOLDS} rows, one per fold")

    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=int)
    fold_of[rng.permutation(n)] = np.arange(n) % LASSO_FOLDS

    stats = [_GramStats.from_xy(X[fold_of != k], y[fold_of != k]) for k in range(LASSO_FOLDS)]
    stats.append(_GramStats.from_xy(X, y))
    paths = parallel.fork_map(lambda s: _path(s, LASSO_LAMBDAS), stats)
    flagged = [
        f"{'full' if k == LASSO_FOLDS else f'fold {k}'} path, lambda {lam:g}: stopped at {LASSO_MAX_SWEEPS} sweeps"
        for k, path in enumerate(paths)
        for lam, (_, _, sweeps) in zip(LASSO_LAMBDAS, path)
        if sweeps == LASSO_MAX_SWEEPS
    ]

    cv_loss = np.zeros(len(LASSO_LAMBDAS))
    for k in range(LASSO_FOLDS):
        fit = fold_of != k
        X_val, y_val = X[~fit], y[~fit]
        for gi, (w, b, _) in enumerate(paths[k]):
            err = y_val - b - X_val @ w
            cv_loss[gi] += float(err @ err) / len(err)
    cv_loss /= LASSO_FOLDS
    best_gi = 0
    for gi in range(1, len(LASSO_LAMBDAS)):
        if cv_loss[gi] < cv_loss[best_gi]:
            best_gi = gi

    path = [w for w, _, _ in paths[LASSO_FOLDS]]
    if not np.any(path[-1]):
        raise ValueError(f"lasso kept no features even at the grid floor {LASSO_LAMBDAS[-1]:g}")
    coefs = path[best_gi]
    first_active = np.full(X.shape[1], len(LASSO_LAMBDAS), dtype=int)
    for gi, w in enumerate(path):
        newly = (w != 0) & (first_active == len(LASSO_LAMBDAS))
        first_active[newly] = gi

    names = dataset.feature_names
    keyed = []
    for j in range(X.shape[1]):
        if coefs[j] != 0.0:
            keyed.append((0, -abs(coefs[j])))
        else:
            keyed.append((1, int(first_active[j])))
    ranked_names = _ordered(names, keyed)
    scores = {names[j]: float(abs(coefs[j])) for j in range(X.shape[1])}
    return FeatureRanking("lasso", ranked_names, scores, flagged)


def rank_univariate(dataset: Dataset) -> FeatureRanking:
    """One-way ANOVA F between the label groups, ranked descending."""
    labels = np.array(dataset.labels)
    groups = sorted(set(dataset.labels))
    if len(groups) < 2:
        raise ValueError("univariate ranking needs at least 2 classes")
    X = dataset.matrix
    n = X.shape[0]
    grand = X.mean(axis=0)
    ssb = np.zeros(X.shape[1])
    ssw = np.zeros(X.shape[1])
    for g in groups:
        rows = X[labels == g]
        mean_g = rows.mean(axis=0)
        ssb += len(rows) * (mean_g - grand) ** 2
        ssw += ((rows - mean_g) ** 2).sum(axis=0)
    dfb = len(groups) - 1
    dfw = n - len(groups)
    # Zero tests scaled to each column's magnitude, so a constant column whose
    # sums of squares sit at the float noise floor reads as F = 0.
    noise_floor = 1e-20 * np.maximum((X * X).mean(axis=0), 1e-300) * n
    scores_arr = np.zeros(X.shape[1])
    flagged = []
    for j in range(X.shape[1]):
        if ssb[j] <= noise_floor[j]:
            scores_arr[j] = 0.0
        elif ssw[j] <= noise_floor[j] or dfw <= 0:
            scores_arr[j] = F_SENTINEL
            flagged.append(dataset.feature_names[j])
        else:
            scores_arr[j] = (ssb[j] / dfb) / (ssw[j] / dfw)
    ranked_names = _ordered(dataset.feature_names, [(-scores_arr[j],) for j in range(X.shape[1])])
    scores = {dataset.feature_names[j]: float(scores_arr[j]) for j in range(X.shape[1])}
    return FeatureRanking("univariate", ranked_names, scores, flagged)


def rank_importance(dataset: Dataset, seed: int = 0) -> FeatureRanking:
    """Permutation importance against a freshly trained baseline detector:
    each feature's mean accuracy drop over IMPORTANCE_TRIALS shuffles."""
    rng = np.random.default_rng(seed)
    y = dataset.binary_labels()
    n = len(y)
    order = rng.permutation(n)
    n_hold = max(1, int(round(0.25 * n)))
    hold, fit = order[:n_hold], order[n_hold:]

    fit_ds = replace(dataset, matrix=dataset.matrix[fit], labels=[dataset.labels[i] for i in fit])
    config = detector.TrainConfig(
        learning_rate=IMPORTANCE_LEARNING_RATE, epochs=IMPORTANCE_EPOCHS, seed=seed, holdout_fraction=0.0
    )
    model = detector.train(fit_ds, detector.default_shape(dataset.width), config)

    X_hold = dataset.matrix[hold]
    y_hold = y[hold] >= 0.5
    predicted = detector.classify(model, X_hold)
    baseline = float((predicted == y_hold).mean())
    # Balanced accuracy, the mean recall of the two classes: a constant
    # predictor scores exactly 0.5 however unequal the classes are.
    if y_hold.all() or not y_hold.any():
        raise ValueError("the baseline holdout split holds a single class; permutation importance is not meaningful")
    balanced = 0.5 * (float(predicted[y_hold].mean()) + float((~predicted[~y_hold]).mean()))
    if balanced <= 0.5:
        raise ValueError(
            f"baseline balanced accuracy {balanced:.3f} does not beat the 0.500 of a constant "
            "(majority-class) guess; permutation importance is not meaningful"
        )

    drops = np.zeros(dataset.width)
    for j in range(dataset.width):
        total = 0.0
        for _ in range(IMPORTANCE_TRIALS):
            perm = rng.permutation(len(hold))
            shuffled = X_hold.copy()
            shuffled[:, j] = X_hold[perm, j]
            acc = float((detector.classify(model, shuffled) == y_hold).mean())
            total += baseline - acc
        drops[j] = total / IMPORTANCE_TRIALS

    ranked_names = _ordered(dataset.feature_names, [(-drops[j],) for j in range(dataset.width)])
    scores = {dataset.feature_names[j]: float(drops[j]) for j in range(dataset.width)}
    return FeatureRanking("importance", ranked_names, scores)


def check_k(dataset: Dataset, k: int) -> None:
    """Rejects a k that `select` could not keep of the dataset's features."""
    if k < 1 or k > dataset.width:
        raise ValueError(f"k={k} out of range 1..{dataset.width}")


def select(dataset: Dataset, ranking: FeatureRanking, k: int) -> Dataset:
    """Project the dataset onto the ranking's top-k features, keeping the
    dataset's own column order."""
    check_k(dataset, k)
    top = set(ranking.ranked_names[:k])
    names = [n for n in dataset.feature_names if n in top]
    return dataset.project(names)


def ranking_report(rankings: Sequence[FeatureRanking]) -> str:
    """Aligned text table, one column per method, REPORT_TOP rows."""
    columns = [r.ranked_names[:REPORT_TOP] for r in rankings]
    headers = [r.method for r in rankings]
    widths = [max(len(h), max((len(n) for n in col), default=0)) for h, col in zip(headers, columns)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for i in range(max(len(c) for c in columns)):
        cells = [col[i] if i < len(col) else "" for col in columns]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"


def write_scores_csv(ranking: FeatureRanking, path) -> None:
    with open(path, "w") as fh:
        fh.write("rank,feature,score\n")
        for i, name in enumerate(ranking.ranked_names, 1):
            fh.write(f'{i},"{name}",{ranking.scores[name]!r}\n')
