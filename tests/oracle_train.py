"""Per-model reference for detector training.

This is the trainer `ddsids.detector` used before lockstep training: one
model at a time, mini-batch SGD with momentum on binary cross-entropy, with
the forward pass, back-propagation, holdout split and momentum update
written out for 2-D arrays.  The initialisation and the training loop are
kept verbatim; the shape and class checks are left to the caller, and the
result is a plain record instead of a `DetectorModel`.  It shares no code
with ddsids, so the stacked trainer can be checked against it weight for
weight and loss for loss, by exact bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

_SCORE_EPS = 1e-12
# The training constants, written out here so the reference shares no value
# with ddsids either.
MOMENTUM = 0.9
BATCH_SIZE = 32
THRESHOLD = 0.5


@dataclass
class OracleModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    threshold: float
    loss_curve: list[float] = field(default_factory=list)
    holdout_accuracy: list[float] = field(default_factory=list)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward(model: OracleModel, X: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Returns (pre-activations per layer, activations incl. input)."""
    a = X
    activations = [a]
    zs = []
    n_layers = len(model.weights)
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ W + b
        zs.append(z)
        a = _sigmoid(z) if i == n_layers - 1 else np.maximum(z, 0.0)
        activations.append(a)
    return zs, activations


def predict(model: OracleModel, rows: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    _, activations = _forward(model, rows)
    return np.clip(activations[-1][:, 0], _SCORE_EPS, 1.0 - _SCORE_EPS)


def classify(model: OracleModel, rows: np.ndarray) -> np.ndarray:
    return predict(model, rows) >= model.threshold


def loss_and_gradients(model: OracleModel, X: np.ndarray, y: np.ndarray):
    """Mean BCE and its gradients for every parameter tensor.

    Returns (loss, grads_W, grads_b).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = X.shape[0]
    zs, activations = _forward(model, X)
    p = np.clip(activations[-1][:, 0], _SCORE_EPS, 1.0 - _SCORE_EPS)
    loss = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

    grads_W: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(model.biases)
    # d loss / d z for the logistic output under BCE.
    delta = (activations[-1] - y.reshape(-1, 1)) / n
    for i in range(len(model.weights) - 1, -1, -1):
        grads_W[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (zs[i - 1] > 0)
    return loss, grads_W, grads_b


def _holdout_split(n: int, y: np.ndarray, fraction: float, rng: np.random.Generator):
    if fraction <= 0 or n < 10:
        return np.arange(n), np.empty(0, dtype=int)
    order = rng.permutation(n)
    k = max(1, int(round(fraction * n)))
    hold = order[:k]
    fit = order[k:]
    # Keep both classes in the fit portion.
    if len(set(y[fit].tolist())) < 2:
        return np.arange(n), np.empty(0, dtype=int)
    return fit, hold


def train(matrix: np.ndarray, y: np.ndarray, shape: Sequence[int], config) -> OracleModel:
    """Mini-batch SGD with momentum on binary cross-entropy, one model alone.

    `y` holds 1.0 for benign rows and 0.0 for attacks; `config` is read for
    learning_rate, epochs, seed and holdout_fraction.
    """
    rng = np.random.default_rng(config.seed)
    weights = []
    biases = []
    for i, (fan_in, fan_out) in enumerate(zip(shape[:-1], shape[1:])):
        W = rng.uniform(-1.0, 1.0, size=(fan_in, fan_out)) / np.sqrt(fan_in)
        hidden = i < len(shape) - 2
        if hidden:
            # Sign-align each unit so it starts active on non-negative inputs;
            # narrow layers would otherwise risk starting fully dead.
            flip = W.sum(axis=0) < 0
            W[:, flip] *= -1.0
        weights.append(W)
        biases.append(np.full(fan_out, 0.01) if hidden else np.zeros(fan_out))

    model = OracleModel(weights=weights, biases=biases, threshold=THRESHOLD)

    fit_idx, hold_idx = _holdout_split(len(y), y, config.holdout_fraction, rng)
    X_fit, y_fit = matrix[fit_idx], y[fit_idx]
    X_hold, y_hold = matrix[hold_idx], y[hold_idx]

    vel_W = [np.zeros_like(W) for W in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]

    n = len(y_fit)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, BATCH_SIZE):
            idx = order[lo : lo + BATCH_SIZE]
            loss, gW, gb = loss_and_gradients(model, X_fit[idx], y_fit[idx])
            if not np.isfinite(loss):
                raise ValueError(f"training diverged: non-finite loss at epoch {epoch}")
            batch_losses.append(loss)
            for i in range(len(model.weights)):
                vel_W[i] = MOMENTUM * vel_W[i] - config.learning_rate * gW[i]
                vel_b[i] = MOMENTUM * vel_b[i] - config.learning_rate * gb[i]
                model.weights[i] += vel_W[i]
                model.biases[i] += vel_b[i]
        model.loss_curve.append(float(np.mean(batch_losses)))
        if len(X_hold):
            correct = (classify(model, X_hold) == (y_hold >= 0.5)).mean()
            model.holdout_accuracy.append(float(correct))
        else:
            model.holdout_accuracy.append(float("nan"))
    return model
