"""Feature ranking by four methods, and top-k dataset projection.

All four methods return a full permutation of the dataset's feature names,
most impactful first, with ties broken by the dataset's column order:

* rfe         recursive elimination around an L2-regularized logistic fit,
* lasso       cross-validated L1 linear regression, each path solved
              exactly by the LARS-lasso homotopy,
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

from . import detector
from .preprocess import Dataset

F_SENTINEL = 1e300  # stands in for an infinite F when within-class variance is 0
RFE_STEP = 5  # features dropped per elimination fit
RFE_L2 = 1e-3  # L2 penalty of the logistic fit RFE ranks by
RFE_ITERS = 300  # full-batch gradient steps per logistic fit
RFE_LEARNING_RATE = 0.5
LASSO_LAMBDAS = np.logspace(-4, 1, 30)[::-1]  # the lambda path, largest first
LASSO_FOLDS = 5
LASSO_JOIN_GUARD = 1e-10  # share of its variance a column must keep apart from the active ones to join
LASSO_MAX_STEPS = 1000  # homotopy events per path; the grid fits past the last one are left to the KKT check
LASSO_KKT_TOL = 1e-9  # a grid fit whose KKT residual exceeds this is named in `flagged`
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


def _logistic_weights(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full-batch gradient descent on L2-regularized logistic loss.

    Deterministic (zero init); returns the weight vector without intercept.
    """
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(RFE_ITERS):
        g = detector._sigmoid(X @ w + b) - y
        w -= RFE_LEARNING_RATE * (X.T @ g / n + RFE_L2 * w)
        b -= RFE_LEARNING_RATE * float(g.sum() / n)  # g.mean()'s bits, without its wrapper
    return w


def _binary_targets(dataset: Dataset, method: str) -> np.ndarray:
    """The benign-vs-attack targets a linear ranker fits; a training set of
    one class, which gives it nothing to separate, is rejected by its
    labels."""
    y = dataset.binary_labels()
    if len(set(y.tolist())) < 2:
        found = f"only {', '.join(sorted(set(dataset.labels)))}" if len(dataset.labels) else "no rows"
        raise ValueError(f"{method} ranking needs both benign and attack rows; the training set holds {found}")
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
    """What the lasso objective needs of (X, y), each averaged over the n rows
    and centered, so that the intercept drops out: Gc = XᵀX/n − x̄x̄ᵀ and
    c = Xᵀy/n − x̄ȳ, formed as products of the centered columns, with the
    column means and the mean of y that give the intercept b = ȳ − x̄ᵀw.
    A column constant within these rows is zeroed in Gc and c, so that
    diag(Gc) > 0 marks the columns the lasso may use.  Built once per data
    set, outside the λ loop."""

    gram: np.ndarray
    xty: np.ndarray
    col_mean: np.ndarray
    y_mean: float

    @classmethod
    def from_xy(cls, X: np.ndarray, y: np.ndarray, fit: np.ndarray) -> "_GramStats":
        """The statistics of the rows of (X, y) where the mask `fit` is true;
        their copy of X is centered in place, the one copy made of it."""
        Xc, y = X[fit], y[fit]
        n = Xc.shape[0]
        col_mean = Xc.mean(axis=0)
        y_mean = float(y.mean())
        constant = Xc.min(axis=0) == Xc.max(axis=0)
        Xc -= col_mean
        Xc[:, constant] = 0.0
        return cls(gram=Xc.T @ Xc / n, xty=Xc.T @ (y - y_mean) / n, col_mean=col_mean, y_mean=y_mean)

    def intercepts(self, W: np.ndarray) -> np.ndarray:
        """The intercept of each row of coefficients."""
        return self.y_mean - W @ self.col_mean

    def kkt_residual(self, lambdas: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Per row of W, the largest violation of the lasso's optimality
        conditions at its λ: an active coefficient's correlation c − Gc·w
        must equal λ·sign(w), an inactive one's may not exceed λ in size."""
        corr = self.xty - W @ self.gram
        lam = lambdas[:, None]
        off = np.where(W != 0, np.abs(corr - lam * np.sign(W)), np.maximum(np.abs(corr) - lam, 0.0))
        return off.max(axis=1, initial=0.0)


def _homotopy(stats: _GramStats, lambdas: np.ndarray) -> np.ndarray:
    """The exact lasso coefficients at each λ of a descending grid, one row
    per λ, by the LARS-lasso homotopy (Efron, Hastie, Johnstone & Tibshirani,
    Ann. Statist. 2004) on (1/2)wᵀGc·w − cᵀw + λ||w||₁.

    Between two events the active coefficients solve Gc_AA·w_A = c_A − λ·s_A
    for the active signs s, so they are affine in λ (w_A = u − λv) and so is
    every correlation c − Gc·w (p + λq).  The next event is the largest λ
    below the current one at which an inactive usable column's correlation
    reaches ±λ (it joins with that sign) or an active coefficient reaches
    zero (it drops); ties go to the lower column index.  A column that just
    dropped may not rejoin at once with the sign it dropped with, nor may
    one that just joined drop at once.  A column whose variance left over
    after regression on the active columns is at most LASSO_JOIN_GUARD of
    its own may not join: it adds no direction, and Gc_AA would turn
    singular.  Grid λs inside a segment take its affine solution.
    """
    G, c = stats.gram, stats.xty
    d = len(c)
    W = np.zeros((len(lambdas), d))
    diag = np.diag(G)
    usable = diag > 0
    lam = float(np.abs(c).max(initial=0.0))
    gi = int(np.count_nonzero(lambdas >= lam))  # these keep w = 0
    if not usable.any() or gi == len(lambdas):
        return W
    joined = int(np.argmax(np.abs(c)))
    dropped = -1
    active: list[int] = []
    signs: list[float] = []
    sign = 1.0 if c[joined] > 0 else -1.0  # of the column that last joined or dropped
    for step in range(LASSO_MAX_STEPS):
        if joined >= 0:
            active.append(joined)
            signs.append(sign)
        A, s = np.array(active), np.array(signs)
        G_A = G[A]
        solved = np.linalg.solve(G_A[:, A], np.column_stack([c[A], s, G_A]))
        u, v, Z = solved[:, 0], solved[:, 1], solved[:, 2:]
        p, q = c - u @ G_A, v @ G_A

        joinable = usable.copy()
        joinable[A] = False
        joinable &= diag - np.einsum("ij,ij->j", G_A, Z) > LASSO_JOIN_GUARD * diag
        with np.errstate(divide="ignore", invalid="ignore"):
            rise = np.where(joinable & (q < 1), p / (1 - q), -np.inf)  # correlation reaches +λ
            fall = np.where(joinable & (q > -1), -p / (1 + q), -np.inf)  # correlation reaches −λ
        if dropped >= 0:  # its correlation sits at ±λ with the sign it dropped with
            (rise if sign > 0 else fall)[dropped] = -np.inf
        at = np.maximum(rise, fall)
        shrinking = (s * v < 0) & (A != joined)  # moving toward zero
        at[A[shrinking]] = u[shrinking] / v[shrinking]
        at = np.minimum(at, lam)
        event = int(np.argmax(at))
        nxt = float(at[event]) if step < LASSO_MAX_STEPS - 1 else -np.inf

        while gi < len(lambdas) and lambdas[gi] >= nxt:
            W[gi, A] = u - lambdas[gi] * v
            gi += 1
        if gi == len(lambdas):
            break
        lam = nxt
        if event in active:
            sign = signs.pop(active.index(event))
            active.remove(event)
            joined, dropped = -1, event
        else:
            joined, dropped = event, -1
            sign = 1.0 if rise[event] >= fall[event] else -1.0
    return W


def _lasso_paths(X: np.ndarray, y: np.ndarray, seed: int) -> tuple[np.ndarray, list[tuple[_GramStats, np.ndarray]]]:
    """The fold of each row, and (statistics, coefficients along LASSO_LAMBDAS)
    for the fit rows of each of the LASSO_FOLDS folds and then for all rows."""
    n = len(y)
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=int)
    fold_of[rng.permutation(n)] = np.arange(n) % LASSO_FOLDS
    paths = []
    for k in range(LASSO_FOLDS + 1):
        fit = fold_of != k  # all rows for k == LASSO_FOLDS
        stats = _GramStats.from_xy(X, y, fit)
        paths.append((stats, _homotopy(stats, LASSO_LAMBDAS)))
    return fold_of, paths


def rank_lasso(dataset: Dataset, seed: int = 0) -> FeatureRanking:
    """Rank by |coefficient| at the cross-validated lambda; features already
    at zero there are ordered by where along the path they joined.

    Every path is exact (`_homotopy`); a grid fit whose KKT residual exceeds
    LASSO_KKT_TOL is named in `flagged` by its path and lambda.
    """
    y = _binary_targets(dataset, "lasso")
    X = dataset.matrix
    n = len(y)
    if n < LASSO_FOLDS:
        raise ValueError(f"lasso needs at least {LASSO_FOLDS} rows, one per fold")

    fold_of, paths = _lasso_paths(X, y, seed)
    flagged = [
        f"{'full' if k == LASSO_FOLDS else f'fold {k}'} path, lambda {lam:g}: KKT residual {off:.2g}"
        for k, (stats, W) in enumerate(paths)
        for lam, off in zip(LASSO_LAMBDAS, stats.kkt_residual(LASSO_LAMBDAS, W))
        if off > LASSO_KKT_TOL
    ]

    cv_loss = np.zeros(len(LASSO_LAMBDAS))
    for k, (stats, W) in enumerate(paths[:LASSO_FOLDS]):
        val = fold_of == k
        err = y[val, None] - stats.intercepts(W) - X[val] @ W.T
        cv_loss += (err * err).sum(axis=0) / len(err)
    cv_loss /= LASSO_FOLDS
    best_gi = 0
    for gi in range(1, len(LASSO_LAMBDAS)):
        if cv_loss[gi] < cv_loss[best_gi]:
            best_gi = gi

    path = paths[LASSO_FOLDS][1]
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
