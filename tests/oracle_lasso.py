"""Two references for the cross-validated lasso ranking, sharing no code
with ddsids.

`rank_lasso` is the residual-form ranking `ddsids.featsel` once used: cyclic
coordinate descent that carries the n-length residual y - b - Xw and
recomputes each coordinate's correlation from it, stopped after 500 sweeps
or once no coefficient moves by 1e-8.  It says whether any fit stopped at
that cap; where none did, its ranking is the exact one up to the
tolerance.

`exact_lasso` solves the lasso at each λ by enumeration, for at most
MAX_EXACT_WIDTH columns: every support whose centered Gram block is
nonsingular and every sign pattern on it.  The minimum over the stationary
points whose signs agree with their pattern is the global minimum, since
some minimizer has linearly independent columns.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Sequence

import numpy as np

MAX_EXACT_WIDTH = 6


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
) -> tuple[np.ndarray, float, bool]:
    """Cyclic coordinate descent on (1/2n)||y - b - Xw||^2 + lam * ||w||_1;
    the flag says whether it met `tol` before `max_iter` sweeps."""
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
            return w, b, True
    return w, b, False


def _lasso_path(X: np.ndarray, y: np.ndarray, lambdas: np.ndarray) -> tuple[list[np.ndarray], bool]:
    """Coefficients per lambda, warm-started along the descending grid, and
    whether every fit converged."""
    w = np.zeros(X.shape[1])
    b = float(y.mean())
    path = []
    converged = True
    for lam in lambdas:
        w, b, done = _coordinate_descent(X, y, float(lam), w, b)
        converged &= done
        path.append(w.copy())
    return path, converged


def fold_assignment(n: int, count: int, seed: int) -> np.ndarray:
    """The fold of each row: a seeded permutation dealt round-robin."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    fold_of = np.empty(n, dtype=int)
    for pos, row in enumerate(order):
        fold_of[row] = pos % count
    return fold_of


def objective(X: np.ndarray, y: np.ndarray, lam: float, w: np.ndarray) -> float:
    """(1/2n)||y - b - Xw||^2 + lam * ||w||_1 at the best intercept b."""
    residual = (y - y.mean()) - (X - X.mean(axis=0)) @ w
    return float(residual @ residual) / (2 * len(y)) + lam * float(np.abs(w).sum())


def kkt_residual(X: np.ndarray, y: np.ndarray, lam: float, w: np.ndarray) -> float:
    """The largest violation of the lasso's optimality conditions at w, from
    the rows themselves; columns constant within them are left out."""
    Xc = X - X.mean(axis=0)
    corr = Xc.T @ ((y - y.mean()) - Xc @ w) / len(y)
    off = np.where(w != 0, np.abs(corr - lam * np.sign(w)), np.maximum(np.abs(corr) - lam, 0.0))
    return float(off[X.min(axis=0) < X.max(axis=0)].max(initial=0.0))


def exact_lasso(X: np.ndarray, y: np.ndarray, lambdas: Sequence[float]) -> np.ndarray:
    """A minimizer at each λ (one row each), found by enumerating supports
    and sign patterns."""
    n, d = X.shape
    if d > MAX_EXACT_WIDTH:
        raise ValueError(f"enumeration is for at most {MAX_EXACT_WIDTH} columns")
    Xc = X - X.mean(axis=0)
    G = Xc.T @ Xc / n
    c = Xc.T @ (y - y.mean()) / n
    lams = np.asarray(lambdas, dtype=float)
    best = np.zeros((len(lams), d))
    best_obj = np.zeros(len(lams))  # the empty support
    varying = [j for j in range(d) if X[:, j].min() < X[:, j].max()]
    for size in range(1, len(varying) + 1):
        for support in combinations(varying, size):
            S = list(support)
            block = G[np.ix_(S, S)]
            eig = np.linalg.eigvalsh(block)
            if eig[0] <= 1e-12 * max(eig[-1], 1e-300):
                continue
            signs = np.array(list(product((-1.0, 1.0), repeat=size)))  # (patterns, size)
            u = np.linalg.solve(block, c[S])
            V = np.linalg.solve(block, signs.T).T  # (patterns, size)
            w = u[None, None, :] - lams[:, None, None] * V[None, :, :]  # (λ, patterns, size)
            consistent = np.all(np.sign(w) == signs[None, :, :], axis=2)
            obj = (0.5 * np.einsum("lpi,ij,lpj->lp", w, block, w) - w @ c[S]
                   + lams[:, None] * np.abs(w).sum(axis=2))
            obj = np.where(consistent, obj, np.inf)
            pick = obj.argmin(axis=1)
            for li, pi in enumerate(pick):
                if obj[li, pi] < best_obj[li]:
                    best_obj[li] = obj[li, pi]
                    best[li] = 0.0
                    best[li, S] = w[li, pi]
    return best


def rank_lasso(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence[str],
    lambda_grid: Sequence[float] | None = None,
    folds: int = 5,
    seed: int = 0,
) -> tuple[list[str], dict[str, float], bool]:
    """(ranked names, |coefficient| per name, whether every fit converged) by
    the ranking rule: rank by |coefficient| at the cross-validated lambda;
    features already at zero there are ordered by where along the path they
    joined."""
    n = len(y)
    if folds < 2 or folds > n:
        raise ValueError("folds must be within 2..n_rows")
    grid = np.sort(np.asarray(lambda_grid if lambda_grid is not None else np.logspace(-4, 1, 30)))[::-1]

    fold_of = fold_assignment(n, folds, seed)
    converged = True

    cv_loss = np.zeros(len(grid))
    for k in range(folds):
        fit = fold_of != k
        val = ~fit
        w = np.zeros(X.shape[1])
        b = float(y[fit].mean())
        for gi, lam in enumerate(grid):
            w, b, done = _coordinate_descent(X[fit], y[fit], float(lam), w, b)
            converged &= done
            err = y[val] - b - X[val] @ w
            cv_loss[gi] += float(err @ err) / len(err)
    cv_loss /= folds
    best_gi = 0
    for gi in range(1, len(grid)):
        if cv_loss[gi] < cv_loss[best_gi]:
            best_gi = gi

    path, done = _lasso_path(X, y, grid)
    converged &= done
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
    return ranked_names, scores, converged
