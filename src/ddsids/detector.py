"""Feedforward session classifiers: single models, per-attack experts, and
the OR-adjudicated expert ensemble.

Shape rule: an input layer matching the dataset width, 3 or 4 hidden layers,
one output neuron, and no layer wider than the one before it.  Hidden units
are rectifiers, the output is logistic, training is mini-batch gradient
descent with momentum on binary cross-entropy.  Benign is the positive class:
a score at or above the threshold reads "benign", anything below it "attack".

An optional leading width-preserving 1-D convolution (kernel 3, stride 1,
zero padding) over the feature vector can be enabled; it is off by default.
All randomness flows from the seed in TrainConfig, so identical data and
configuration reproduce identical parameters and loss curves bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .preprocess import Dataset

MODEL_MAGIC = "ddsids-model v1"
ENSEMBLE_MAGIC = "ddsids-ensemble v1"
EXPERT_ATTACKS = ("dos", "clone", "malsub")
_SCORE_EPS = 1e-12


def validate_shape(shape: Sequence[int]) -> list[str]:
    """All rule violations for a layer-width sequence; empty means valid."""
    violations = []
    widths = list(shape)
    for i, w in enumerate(widths):
        if not isinstance(w, (int, np.integer)) or isinstance(w, bool) or w < 1:
            violations.append(f"layer {i} width must be a positive integer, got {w!r}")
            return violations
    hidden = len(widths) - 2
    if hidden not in (3, 4):
        violations.append(f"hidden layer count must be 3 or 4, got {hidden}")
    if widths and widths[-1] != 1:
        violations.append(f"output layer must have exactly 1 neuron, got {widths[-1]}")
    for i in range(1, len(widths)):
        if widths[i] > widths[i - 1]:
            violations.append(
                f"layer {i} widens from {widths[i - 1]} to {widths[i]}; widths must be non-increasing"
            )
    return violations


def default_shape(width: int) -> list[int]:
    """A valid shape for a given input width (3 hidden layers)."""
    if width >= 78:
        return [width, 78, 64, 39, 1]
    h1 = width
    h2 = max(1, (2 * width + 2) // 3)
    h3 = max(1, (width + 2) // 3)
    return [width, h1, min(h1, h2), min(h2, h3), 1]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0
    holdout_fraction: float = 0.1
    conv_front: bool = False
    threshold: float = 0.5


@dataclass
class DetectorModel:
    shape: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    conv_kernel: np.ndarray | None = None
    conv_bias: float = 0.0
    hidden_activation: str = "relu"
    threshold: float = 0.5
    feature_names: list[str] = field(default_factory=list)
    norm_min: np.ndarray | None = None
    norm_max: np.ndarray | None = None
    seed: int = 0
    epochs: int = 0
    loss_curve: list[float] = field(default_factory=list)
    holdout_accuracy: list[float] = field(default_factory=list)
    train_seconds: float = 0.0

    @property
    def input_width(self) -> int:
        return self.shape[0]


@dataclass
class EnsembleModel:
    experts: dict[str, DetectorModel]
    threshold: float = 0.5

    def __post_init__(self):
        if sorted(self.experts) != sorted(EXPERT_ATTACKS):
            raise ValueError(f"ensemble requires exactly the experts {EXPERT_ATTACKS}, got {sorted(self.experts)}")
        widths = {m.input_width for m in self.experts.values()}
        if len(widths) != 1:
            raise ValueError(f"experts disagree on input width: {sorted(widths)}")
        if len({tuple(m.feature_names) for m in self.experts.values()}) != 1:
            raise ValueError("experts disagree on their feature names")

    @property
    def feature_names(self) -> list[str]:
        return next(iter(self.experts.values())).feature_names


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _conv_same(x: np.ndarray, kernel: np.ndarray, bias: float) -> np.ndarray:
    """Width-preserving kernel-3 convolution along the feature axis."""
    left = np.concatenate([np.zeros((x.shape[0], 1)), x[:, :-1]], axis=1)
    right = np.concatenate([x[:, 1:], np.zeros((x.shape[0], 1))], axis=1)
    return kernel[0] * left + kernel[1] * x + kernel[2] * right + bias


def _forward(model: DetectorModel, X: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray | None]:
    """Returns (pre-activations per layer, activations incl. input, conv pre-act)."""
    conv_z = None
    a = X
    if model.conv_kernel is not None:
        conv_z = _conv_same(X, model.conv_kernel, model.conv_bias)
        a = np.maximum(conv_z, 0.0)
    activations = [a]
    zs = []
    n_layers = len(model.weights)
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ W + b
        zs.append(z)
        a = _sigmoid(z) if i == n_layers - 1 else np.maximum(z, 0.0)
        activations.append(a)
    return zs, activations, conv_z


def predict(model: DetectorModel, rows: np.ndarray) -> np.ndarray:
    """Per-row benign score, strictly inside (0, 1)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != model.input_width:
        raise ValueError(f"row width {rows.shape[1]} does not match model input width {model.input_width}")
    _, activations, _ = _forward(model, rows)
    return np.clip(activations[-1][:, 0], _SCORE_EPS, 1.0 - _SCORE_EPS)


def classify(model: DetectorModel, rows: np.ndarray, threshold: float | None = None) -> np.ndarray:
    """True where the row is classified benign."""
    th = model.threshold if threshold is None else threshold
    return predict(model, rows) >= th


def bce_loss(model: DetectorModel, X: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(predict(model, X), _SCORE_EPS, 1.0 - _SCORE_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def loss_and_gradients(model: DetectorModel, X: np.ndarray, y: np.ndarray):
    """Mean BCE and its gradients for every parameter tensor.

    Returns (loss, grads_W, grads_b, grad_conv_kernel, grad_conv_bias).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = X.shape[0]
    zs, activations, conv_z = _forward(model, X)
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
    grad_kernel = None
    grad_cbias = 0.0
    if model.conv_kernel is not None:
        # After the loop, delta holds dL/dz for the first dense layer.
        dconv = (delta @ model.weights[0].T) * (conv_z > 0)
        left = np.concatenate([np.zeros((n, 1)), X[:, :-1]], axis=1)
        right = np.concatenate([X[:, 1:], np.zeros((n, 1))], axis=1)
        grad_kernel = np.array(
            [float((dconv * left).sum()), float((dconv * X).sum()), float((dconv * right).sum())]
        )
        grad_cbias = float(dconv.sum())
    return loss, grads_W, grads_b, grad_kernel, grad_cbias


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


def train(dataset: Dataset, shape: Sequence[int], config: TrainConfig = TrainConfig()) -> DetectorModel:
    """Mini-batch SGD with momentum on binary cross-entropy.

    Benign rows are targets of 1.0, attacks 0.0.  Deterministic for a given
    (dataset, shape, config).
    """
    violations = validate_shape(shape)
    if violations:
        raise ValueError("invalid network shape: " + "; ".join(violations))
    if shape[0] != dataset.width:
        raise ValueError(f"shape input width {shape[0]} does not match dataset width {dataset.width}")
    y = dataset.binary_labels()
    if len(set(y.tolist())) < 2:
        raise ValueError("training data contains a single class; need both benign and attack rows")

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
    conv_kernel = None
    conv_bias = 0.0
    if config.conv_front:
        conv_kernel = rng.uniform(-1.0, 1.0, size=3) / np.sqrt(3.0)

    model = DetectorModel(
        shape=list(int(w) for w in shape),
        weights=weights,
        biases=biases,
        conv_kernel=conv_kernel,
        conv_bias=conv_bias,
        threshold=config.threshold,
        feature_names=list(dataset.feature_names),
        norm_min=None if dataset.norm_min is None else np.array(dataset.norm_min, dtype=np.float64),
        norm_max=None if dataset.norm_max is None else np.array(dataset.norm_max, dtype=np.float64),
        seed=config.seed,
        epochs=config.epochs,
    )

    fit_idx, hold_idx = _holdout_split(len(y), y, config.holdout_fraction, rng)
    X_fit, y_fit = dataset.matrix[fit_idx], y[fit_idx]
    X_hold, y_hold = dataset.matrix[hold_idx], y[hold_idx]

    vel_W = [np.zeros_like(W) for W in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    vel_k = np.zeros(3)
    vel_kb = 0.0

    started = time.perf_counter()
    n = len(y_fit)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            loss, gW, gb, gk, gkb = loss_and_gradients(model, X_fit[idx], y_fit[idx])
            if not np.isfinite(loss):
                raise ValueError(f"training diverged: non-finite loss at epoch {epoch}")
            batch_losses.append(loss)
            for i in range(len(model.weights)):
                vel_W[i] = config.momentum * vel_W[i] - config.learning_rate * gW[i]
                vel_b[i] = config.momentum * vel_b[i] - config.learning_rate * gb[i]
                model.weights[i] += vel_W[i]
                model.biases[i] += vel_b[i]
            if model.conv_kernel is not None and gk is not None:
                vel_k = config.momentum * vel_k - config.learning_rate * gk
                vel_kb = config.momentum * vel_kb - config.learning_rate * gkb
                model.conv_kernel = model.conv_kernel + vel_k
                model.conv_bias = model.conv_bias + vel_kb
        model.loss_curve.append(float(np.mean(batch_losses)))
        if len(X_hold):
            correct = (classify(model, X_hold) == (y_hold >= 0.5)).mean()
            model.holdout_accuracy.append(float(correct))
        else:
            model.holdout_accuracy.append(float("nan"))
    model.train_seconds = time.perf_counter() - started
    return model


def adjudicate(ensemble: EnsembleModel, rows: np.ndarray) -> np.ndarray:
    """Per-row verdicts; benign only when every expert votes benign."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    benign = np.ones(rows.shape[0], dtype=bool)
    for attack in EXPERT_ATTACKS:
        benign &= predict(ensemble.experts[attack], rows) >= ensemble.threshold
    return np.where(benign, "benign", "attack")


def write_training_log(model: DetectorModel, path) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,loss,holdout_accuracy\n")
        for i, (loss, acc) in enumerate(zip(model.loss_curve, model.holdout_accuracy)):
            fh.write(f"{i},{loss!r},{acc!r}\n")


def _hex_list(values) -> str:
    return " ".join(float(v).hex() for v in values)


def _from_hex(text: str) -> list[float]:
    try:
        return [float.fromhex(tok) for tok in text.split()] if text.strip() else []
    except ValueError:
        raise ValueError(f"malformed hex float values: {text[:40]!r}") from None


def _write_model_block(fh, model: DetectorModel) -> None:
    fh.write(MODEL_MAGIC + "\n")
    fh.write("shape: " + " ".join(str(w) for w in model.shape) + "\n")
    fh.write(f"hidden_activation: {model.hidden_activation}\n")
    fh.write(f"threshold: {float(model.threshold).hex()}\n")
    fh.write(f"seed: {model.seed}\n")
    fh.write(f"epochs: {model.epochs}\n")
    fh.write("feature_names: " + "|".join(model.feature_names) + "\n")
    fh.write("norm_min: " + ("-" if model.norm_min is None else _hex_list(model.norm_min)) + "\n")
    fh.write("norm_max: " + ("-" if model.norm_max is None else _hex_list(model.norm_max)) + "\n")
    fh.write("loss_curve: " + _hex_list(model.loss_curve) + "\n")
    fh.write("holdout_accuracy: " + _hex_list(model.holdout_accuracy) + "\n")
    if model.conv_kernel is None:
        fh.write("conv: -\n")
    else:
        fh.write("conv: " + _hex_list(list(model.conv_kernel) + [model.conv_bias]) + "\n")
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        fh.write(f"layer: {i} {W.shape[0]} {W.shape[1]}\n")
        for row in W:
            fh.write(_hex_list(row) + "\n")
        fh.write("bias: " + _hex_list(b) + "\n")
    fh.write("end\n")


class _BlockReader:
    def __init__(self, fh, path):
        self.fh = fh
        self.path = path

    def line(self) -> str:
        line = self.fh.readline()
        if not line:
            raise ValueError(f"{self.path}: truncated model file")
        return line.rstrip("\n")

    def tagged(self, tag: str) -> str:
        line = self.line()
        if not line.startswith(tag + ":"):
            raise ValueError(f"{self.path}: expected {tag!r} line, got {line!r}")
        return line[len(tag) + 1 :].strip()


def _read_model_block(reader: _BlockReader, magic_seen: bool = False) -> DetectorModel:
    if not magic_seen:
        magic = reader.line()
        if magic != MODEL_MAGIC:
            raise ValueError(f"{reader.path}: unsupported model version {magic!r}")
    shape = [int(tok) for tok in reader.tagged("shape").split()]
    hidden_activation = reader.tagged("hidden_activation")
    threshold = float.fromhex(reader.tagged("threshold"))
    seed = int(reader.tagged("seed"))
    epochs = int(reader.tagged("epochs"))
    names_raw = reader.tagged("feature_names")
    feature_names = names_raw.split("|") if names_raw else []
    norm_min_raw = reader.tagged("norm_min")
    norm_max_raw = reader.tagged("norm_max")
    loss_curve = _from_hex(reader.tagged("loss_curve"))
    holdout = _from_hex(reader.tagged("holdout_accuracy"))
    conv_raw = reader.tagged("conv")
    conv_kernel = None
    conv_bias = 0.0
    if conv_raw != "-":
        conv_vals = _from_hex(conv_raw)
        if len(conv_vals) != 4:
            raise ValueError(f"{reader.path}: conv line must carry 3 kernel weights and a bias")
        conv_kernel = np.array(conv_vals[:3])
        conv_bias = conv_vals[3]

    weights, biases = [], []
    for i in range(len(shape) - 1):
        tag = reader.tagged("layer").split()
        if len(tag) != 3 or int(tag[0]) != i:
            raise ValueError(f"{reader.path}: malformed layer header {tag!r}")
        rows, cols = int(tag[1]), int(tag[2])
        if rows != shape[i] or cols != shape[i + 1]:
            raise ValueError(
                f"{reader.path}: layer {i} dimensions {rows}x{cols} do not match shape "
                f"{shape[i]}x{shape[i + 1]}"
            )
        W = np.empty((rows, cols))
        for r in range(rows):
            vals = _from_hex(reader.line())
            if len(vals) != cols:
                raise ValueError(f"{reader.path}: layer {i} row {r} has {len(vals)} values, expected {cols}")
            W[r] = vals
        b = np.array(_from_hex(reader.tagged("bias")))
        if len(b) != cols:
            raise ValueError(f"{reader.path}: layer {i} bias width {len(b)}, expected {cols}")
        weights.append(W)
        biases.append(b)
    if reader.line() != "end":
        raise ValueError(f"{reader.path}: missing end marker")
    return DetectorModel(
        shape=shape,
        weights=weights,
        biases=biases,
        conv_kernel=conv_kernel,
        conv_bias=conv_bias,
        hidden_activation=hidden_activation,
        threshold=threshold,
        feature_names=feature_names,
        norm_min=None if norm_min_raw == "-" else np.array(_from_hex(norm_min_raw)),
        norm_max=None if norm_max_raw == "-" else np.array(_from_hex(norm_max_raw)),
        seed=seed,
        epochs=epochs,
        loss_curve=loss_curve,
        holdout_accuracy=holdout,
    )


def save_model(model: DetectorModel | EnsembleModel, path) -> None:
    with open(path, "w") as fh:
        if isinstance(model, EnsembleModel):
            fh.write(ENSEMBLE_MAGIC + "\n")
            fh.write(f"threshold: {float(model.threshold).hex()}\n")
            for attack in EXPERT_ATTACKS:
                fh.write(f"expert: {attack}\n")
                _write_model_block(fh, model.experts[attack])
        else:
            _write_model_block(fh, model)


def load_model(path) -> DetectorModel | EnsembleModel:
    with open(path) as fh:
        reader = _BlockReader(fh, path)
        magic = reader.line()
        if magic == MODEL_MAGIC:
            return _read_model_block(reader, magic_seen=True)
        if magic != ENSEMBLE_MAGIC:
            raise ValueError(f"{path}: unsupported model version {magic!r}")
        threshold = float.fromhex(reader.tagged("threshold"))
        experts = {}
        for _ in EXPERT_ATTACKS:
            attack = reader.tagged("expert")
            experts[attack] = _read_model_block(reader)
        return EnsembleModel(experts=experts, threshold=threshold)
