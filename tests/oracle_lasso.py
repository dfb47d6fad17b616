"""Residual-form reference for the cross-validated lasso ranking.

This is the solver `ddsids.featsel` used before its covariance-update
rewrite: cyclic coordinate descent that carries the n-length residual
y - b - Xw and recomputes each coordinate's correlation from it.  The solver
is kept verbatim; the ranking takes arrays instead of a Dataset.  It shares
no code with ddsids, so the Gram-form `rank_lasso` can be checked against
it ranking for ranking and coefficient for coefficient.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _ordered(names: Sequence[str], keyed: list[tuple]) -> list[str]:
    """Sort feature indices by (key..., column index) and map to names."""
    order = sorted(range(len(keyed)), key=lambda j: keyed[j] + (j,))
    return [names[j] for j in order]


def _coordinate_descent(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    w: np.ndarray,
    b: float,
    max_iter: int = 500,
    tol: float = 1e-8,
) -> tuple[np.ndarray, float]:
    """Cyclic coordinate descent on (1/2n)||y - b - Xw||^2 + lam * ||w||_1."""
    n, d = X.shape
    col_ms = (X * X).mean(axis=0)
    w = w.copy()
    residual = y - b - X @ w
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(d):
            if col_ms[j] == 0.0:
                continue
            rho = float(X[:, j] @ residual) / n + col_ms[j] * w[j]
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_ms[j]
            delta = new - w[j]
            if delta != 0.0:
                residual -= delta * X[:, j]
                w[j] = new
                max_delta = max(max_delta, abs(delta))
        new_b = b + float(residual.mean())
        residual -= new_b - b
        b = new_b
        if max_delta < tol:
            break
    return w, b


def _lasso_path(X: np.ndarray, y: np.ndarray, lambdas: np.ndarray) -> list[np.ndarray]:
    """Coefficients per lambda, warm-started along the descending grid."""
    w = np.zeros(X.shape[1])
    b = float(y.mean())
    path = []
    for lam in lambdas:
        w, b = _coordinate_descent(X, y, float(lam), w, b)
        path.append(w.copy())
    return path


def rank_lasso(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence[str],
    lambda_grid: Sequence[float] | None = None,
    folds: int = 5,
    seed: int = 0,
) -> tuple[list[str], dict[str, float]]:
    """(ranked names, |coefficient| per name) by the old ranking rule: rank by
    |coefficient| at the cross-validated lambda; features already at zero
    there are ordered by where along the path they vanished."""
    n = len(y)
    if folds < 2 or folds > n:
        raise ValueError("folds must be within 2..n_rows")
    grid = np.sort(np.asarray(lambda_grid if lambda_grid is not None else np.logspace(-4, 1, 30)))[::-1]

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    fold_of = np.empty(n, dtype=int)
    for pos, row in enumerate(order):
        fold_of[row] = pos % folds

    cv_loss = np.zeros(len(grid))
    for k in range(folds):
        fit = fold_of != k
        val = ~fit
        w = np.zeros(X.shape[1])
        b = float(y[fit].mean())
        for gi, lam in enumerate(grid):
            w, b = _coordinate_descent(X[fit], y[fit], float(lam), w, b)
            err = y[val] - b - X[val] @ w
            cv_loss[gi] += float(err @ err) / len(err)
    cv_loss /= folds
    best_gi = 0
    for gi in range(1, len(grid)):
        if cv_loss[gi] < cv_loss[best_gi]:
            best_gi = gi

    path = _lasso_path(X, y, grid)
    if not np.any(path[-1]):
        raise ValueError(
            f"lasso kept no features even at the grid floor {grid[-1]:g}; "
            "extend lambda_grid to smaller values"
        )
    coefs = path[best_gi]
    first_active = np.full(X.shape[1], len(grid), dtype=int)
    for gi, w in enumerate(path):
        newly = (w != 0) & (first_active == len(grid))
        first_active[newly] = gi

    keyed = []
    for j in range(X.shape[1]):
        if coefs[j] != 0.0:
            keyed.append((0, -abs(coefs[j])))
        else:
            keyed.append((1, int(first_active[j])))
    ranked_names = _ordered(names, keyed)
    scores = {names[j]: float(abs(coefs[j])) for j in range(X.shape[1])}
    return ranked_names, scores
