"""Reference for permutation importance, one whole holdout per shuffle.

This is the importance ranker as `ddsids.featsel` had it before it scored
only the rows a shuffle changes: the baseline is trained (by `oracle_train`)
on a copy of the fit rows, and every shuffle of every feature classifies
the whole shuffled holdout, one feature and trial after another from one
generator.  It shares no code with ddsids, only the ranker's constants,
which the caller passes in, so `featsel.rank_importance` can be checked
against it score for score, by exact bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

import oracle_train


@dataclass
class Importance:
    drops: np.ndarray  # per feature, the mean accuracy drop over the trials
    changed: np.ndarray  # (features, trials): holdout rows whose cell the shuffle moved, by bits
    n_hold: int


def importance(matrix: np.ndarray, y: np.ndarray, shape: Sequence[int], seed: int, *, epochs: int,
               learning_rate: float, trials: int) -> Importance:
    """`y` holds 1.0 for benign rows and 0.0 for attacks."""
    rng = np.random.default_rng(seed)
    n = len(y)
    order = rng.permutation(n)
    n_hold = max(1, int(round(0.25 * n)))
    hold, fit = order[:n_hold], order[n_hold:]
    config = SimpleNamespace(learning_rate=learning_rate, epochs=epochs, seed=seed, holdout_fraction=0.0)
    model = oracle_train.train(matrix[fit].copy(), y[fit], shape, config)

    X_hold = matrix[hold]
    y_hold = y[hold] >= 0.5
    baseline = float((oracle_train.classify(model, X_hold) == y_hold).mean())
    width = matrix.shape[1]
    drops = np.zeros(width)
    changed = np.zeros((width, trials), dtype=int)
    for j in range(width):
        total = 0.0
        for t in range(trials):
            perm = rng.permutation(n_hold)
            shuffled = X_hold.copy()
            shuffled[:, j] = X_hold[perm, j]
            changed[j, t] = int((shuffled[:, j].view(np.uint64) != X_hold[:, j].view(np.uint64)).sum())
            acc = float((oracle_train.classify(model, shuffled) == y_hold).mean())
            total += baseline - acc
        drops[j] = total / trials
    return Importance(drops, changed, n_hold)
