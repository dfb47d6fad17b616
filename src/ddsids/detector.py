"""Feedforward session classifiers: single models, per-attack experts, and
the OR-adjudicated expert ensemble.

Shape rule: an input layer matching the dataset width, 3 or 4 hidden layers,
one output neuron, and no layer wider than the one before it.  Hidden units
are rectifiers, the output is logistic, training is mini-batch gradient
descent with momentum on binary cross-entropy.  Benign is the positive class:
a score at or above the threshold reads "benign", anything below it "attack".

All randomness flows from the seed in TrainConfig, so identical data and
configuration reproduce identical parameters and loss curves bit for bit.

`train_many` trains several models in lockstep as one stacked network: the
weights of m models that share a dataset and a shape are (m, fan_in,
fan_out) arrays, a step gathers an (m, batch, width) batch, one matmul per
layer runs every model's product, and the momentum update runs in place
over one flat buffer per model.  Each model keeps its own rng,
initialisation, holdout split, batch order and config, and every product and
sum still runs per model, so each model is bit for bit the one it would be
trained alone; `train` is the one-job case.  Because a model's bits do not
depend on which jobs share its stack, a group is split into one part per
usable CPU and the parts train side by side in forked workers
(`parallel.fork_map`).

A part is one buffered pass (`_lockstep`).  Its activation, delta and mask
buffers are allocated once, and a step is a row gather, the GEMMs of
forward and back-propagation (11 with three hidden layers) and a few
in-place calls (`_gradients`) with every rounding of the plain formulas.
Per-run work moves from every step to every epoch: a run lays out its
epoch's batch rows when it draws the epoch's permutation, and its step
losses are reduced at the epoch's end from the outputs and targets the
steps kept.  The bits of a model depend on the OpenBLAS kernel set, which
may round its GEMMs differently.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import parallel
from .preprocess import Dataset
from .simnet import ATTACK_SCENARIOS as EXPERT_ATTACKS, open_text, parsed

MODEL_MAGIC = "ddsids-model v1"
ENSEMBLE_MAGIC = "ddsids-ensemble v1"
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
    threshold: float = 0.5


@dataclass
class DetectorModel:
    shape: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    threshold: float = 0.5
    feature_names: list[str] = field(default_factory=list)
    norm_min: np.ndarray | None = None
    norm_max: np.ndarray | None = None
    seed: int = 0
    epochs: int = 0
    loss_curve: list[float] = field(default_factory=list)
    holdout_accuracy: list[float] = field(default_factory=list)

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
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so no exp overflows."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def predict(model: DetectorModel, rows: np.ndarray) -> np.ndarray:
    """Per-row benign score, strictly inside (0, 1).  Each layer's activation
    is dropped once the next one is computed, so at most two are held."""
    a = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if a.shape[1] != model.input_width:
        raise ValueError(f"row width {a.shape[1]} does not match model input width {model.input_width}")
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ W
        z += b
        a = _sigmoid(z) if i == last else np.maximum(z, 0.0, out=z)
    return np.clip(a[:, 0], _SCORE_EPS, 1.0 - _SCORE_EPS)


def classify(model: DetectorModel, rows: np.ndarray, threshold: float | None = None) -> np.ndarray:
    """True where the row is classified benign."""
    th = model.threshold if threshold is None else threshold
    return predict(model, rows) >= th


def _loss_sums(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sums along the last axis of the BCE terms y log p + (1 - y) log(1 - p),
    with the outputs p clipped into [eps, 1 - eps]."""
    p = np.clip(p, _SCORE_EPS, 1.0 - _SCORE_EPS)
    return np.add.reduce(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=-1)


def bce_loss(model: DetectorModel, X: np.ndarray, y: np.ndarray) -> float:
    p = predict(model, X)
    return float(-(_loss_sums(p, y) / len(p)))


class _Buffers:
    """The step buffers of up to m stacked models on up to n rows each,
    allocated once for a whole pass: the activations of the input and the
    hidden layers, every layer's deltas, the rectifier masks and the
    logistic output's terms."""

    def __init__(self, shape: Sequence[int], m: int, n: int):
        self.acts = [np.empty((m, n, w)) for w in shape[:-1]]
        self.deltas = [np.empty((m, n, w)) for w in shape[1:]]
        self.live = [np.empty((m, n, w), dtype=bool) for w in shape[1:-1]]
        self.e, self.d = np.empty((2, m, n))
        self.nonneg = np.empty((m, n), dtype=bool)


class _Step:
    """What one gradient step of models lo..hi-1 of a stack works on, each
    model on a batch of n rows: views of the stacked parameters and
    gradients and of the pass's buffers, grouped per layer in the order
    `_gradients` reads them.  They are made once per segment of a pass, so
    a step indexes only its ring slot."""

    def __init__(self, buffers: _Buffers, params, lo: int, hi: int, n: int):
        Ws, bs, gWs, gbs = ([a[lo:hi] for a in arrays] for arrays in params)
        acts = [a[lo:hi, :n] for a in buffers.acts]
        deltas = [d[lo:hi, :n] for d in buffers.deltas]
        live = [m[lo:hi, :n] for m in buffers.live]
        last = len(Ws) - 1
        self.X = acts[0]
        # Forward: (input, W, b, output) of each hidden layer; then the output layer's (input, W, b).
        self.hidden = [(acts[i], Ws[i], bs[i], acts[i + 1]) for i in range(last)]
        self.top = acts[last], Ws[last], bs[last]
        # Backward, from the output layer down to the second: (input transposed, delta, gW, gb,
        # W transposed, the delta below, the input, its rectifier mask); then the first layer's
        # (input transposed, delta, gW, gb).
        self.back = [(acts[i].transpose(0, 2, 1), deltas[i], gWs[i], gbs[i],
                      Ws[i].transpose(0, 2, 1), deltas[i - 1], acts[i], live[i - 1]) for i in range(last, 0, -1)]
        self.first = acts[0].transpose(0, 2, 1), deltas[0], gWs[0], gbs[0]
        self.delta = deltas[last][..., 0]
        self.n = np.full((), float(n))
        self.e, self.d, self.nonneg = buffers.e[lo:hi, :n], buffers.d[lo:hi, :n], buffers.nonneg[lo:hi, :n]


# 0-d operands: a ufunc converts a Python float on every call.
_ZERO, _ONE, _MINUS_ONE = np.zeros(()), np.ones(()), -np.ones(())


def _gradients(s: _Step, out: np.ndarray, y: np.ndarray) -> None:
    """One back-propagation of the mean BCE of each model of a stack on its
    own batch, which the caller has put in s.X: the logistic outputs go into
    `out`, (models, rows, 1), and the gradients into the stack's gradient
    views; y holds the (models, rows) targets.

    Every product and sum runs per model and rounds as the plain formulas
    do (`oracle_train` in the tests), in place.  The loss needs only the
    outputs and the targets, so `_loss_sums` takes it from them later.
    """
    for A, W, b, z in s.hidden:
        np.matmul(A, W, out=z)
        np.add(z, b, out=z)
        np.maximum(z, _ZERO, out=z)
    A, W, b = s.top
    np.matmul(A, W, out=out)
    np.add(out, b, out=out)
    # The logistic output as _sigmoid gives it: where(z >= 0, 1, e) / (1 + e)
    # with e = exp(-|z|).
    z, e, d = out[..., 0], s.e, s.d
    np.copysign(z, _MINUS_ONE, out=e)
    np.exp(e, out=e)
    np.add(e, _ONE, out=d)
    np.greater_equal(z, _ZERO, out=s.nonneg)
    np.copyto(e, _ONE, where=s.nonneg)
    np.divide(e, d, out=z)
    # d loss / d z for the logistic output under BCE.
    np.subtract(z, y, out=s.delta)
    np.divide(s.delta, s.n, out=s.delta)
    for A_T, delta, gW, gb, W_T, below, A, live in s.back:
        np.matmul(A_T, delta, out=gW)
        np.add.reduce(delta, axis=1, keepdims=True, out=gb)
        np.matmul(delta, W_T, out=below)
        # A rectifier passes gradient where its output is positive.
        np.greater(A, _ZERO, out=live)
        np.multiply(below, live, out=below)
    A_T, delta, gW, gb = s.first
    np.matmul(A_T, delta, out=gW)
    np.add.reduce(delta, axis=1, keepdims=True, out=gb)


def loss_and_gradients(model: DetectorModel, X: np.ndarray, y: np.ndarray):
    """Mean BCE and its gradients for every parameter tensor: the one-model
    case of the kernel training runs.

    Returns (loss, grads_W, grads_b).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(1, -1)
    n = X.shape[0]
    gWs = [np.empty((1,) + W.shape) for W in model.weights]
    gbs = [np.empty((1, 1) + b.shape) for b in model.biases]
    params = ([W[None] for W in model.weights], [b[None, None] for b in model.biases], gWs, gbs)
    s = _Step(_Buffers([W.shape[0] for W in model.weights] + [1], 1, n), params, 0, 1, n)
    s.X[0] = X
    out = np.empty((1, n, 1))
    _gradients(s, out, y)
    return float(-(_loss_sums(out[..., 0], y)[0] / n)), [g[0] for g in gWs], [g[0, 0] for g in gbs]


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


@dataclass(frozen=True, eq=False)
class TrainJob:
    """One model to train: rows of a dataset, a network shape and a config.

    `rows` picks the training rows out of `dataset.matrix` by index, in
    order; None trains on every row.  Indexing the shared matrix gives the
    same bits as a subset copy of it, without the copy.
    """

    dataset: Dataset
    shape: Sequence[int]
    config: TrainConfig = TrainConfig()
    rows: np.ndarray | None = None


class _Run:
    """A job's own state: rng, initial model, holdout split, batch lengths
    and the loss and holdout curves."""

    def __init__(self, job: TrainJob):
        dataset, shape, config = job.dataset, job.shape, job.config
        violations = validate_shape(shape)
        if violations:
            raise ValueError("invalid network shape: " + "; ".join(violations))
        if shape[0] != dataset.width:
            raise ValueError(f"shape input width {shape[0]} does not match dataset width {dataset.width}")
        if config.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {config.batch_size}")
        self.matrix = dataset.matrix
        self.labels = dataset.binary_labels()
        rows = np.arange(len(self.labels)) if job.rows is None else np.asarray(job.rows, dtype=np.intp)
        y = self.labels[rows]
        if len(set(y.tolist())) < 2:
            raise ValueError("training data contains a single class; need both benign and attack rows")

        self.rng = rng = np.random.default_rng(config.seed)
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
        self.model = DetectorModel(
            shape=list(int(w) for w in shape),
            weights=weights,
            biases=biases,
            threshold=config.threshold,
            feature_names=list(dataset.feature_names),
            norm_min=None if dataset.norm_min is None else np.array(dataset.norm_min, dtype=np.float64),
            norm_max=None if dataset.norm_max is None else np.array(dataset.norm_max, dtype=np.float64),
            seed=config.seed,
            epochs=config.epochs,
        )

        fit_idx, hold_idx = _holdout_split(len(y), y, config.holdout_fraction, rng)
        self.fit_rows = rows[fit_idx]
        self.X_hold, self.y_hold = dataset.matrix[rows[hold_idx]], y[hold_idx]
        self.config = config
        self.batches_per_epoch = -(-len(self.fit_rows) // config.batch_size)
        self.steps = config.epochs * self.batches_per_epoch
        # Rows per step of an epoch: full batches, then what is left.
        self.batch_rows = np.full(self.batches_per_epoch, float(config.batch_size))
        self.batch_rows[-1] = len(self.fit_rows) - (self.batches_per_epoch - 1) * config.batch_size

    def epoch_rows(self) -> np.ndarray:
        """Matrix rows of the next epoch, in the order of its permutation."""
        return self.fit_rows[self.rng.permutation(len(self.fit_rows))]

    def rows_at(self, t: int) -> int:
        """The batch length of step t."""
        return int(self.batch_rows[t % self.batches_per_epoch])

    def end_epoch(self, outputs: np.ndarray, targets: np.ndarray) -> None:
        """Records an epoch from the logistic outputs and the targets of its
        steps, (steps, batch_size) arrays whose last row starts with the last
        batch: the mean step loss and the holdout accuracy of the updated
        weights."""
        sums = _loss_sums(outputs, targets)
        last = int(self.batch_rows[-1])
        sums[-1] = _loss_sums(outputs[-1, :last], targets[-1, :last])
        model = self.model
        model.loss_curve.append(float(np.mean(-(sums / self.batch_rows))))
        if len(self.X_hold):
            correct = (classify(model, self.X_hold) == (self.y_hold >= 0.5)).mean()
            model.holdout_accuracy.append(float(correct))
        else:
            model.holdout_accuracy.append(float("nan"))


def train(dataset: Dataset, shape: Sequence[int], config: TrainConfig = TrainConfig()) -> DetectorModel:
    """Mini-batch SGD with momentum on binary cross-entropy.

    Benign rows are targets of 1.0, attacks 0.0.  Deterministic for a given
    (dataset, shape, config).
    """
    return train_many([TrainJob(dataset, shape, config)])[0]


def train_many(jobs: Sequence[TrainJob]) -> list[DetectorModel]:
    """Trains every job; the models come back in job order.

    Jobs that share a dataset and a shape train in lockstep as one stacked
    network: a step runs one matmul per layer for all of them.  Each model
    keeps its own rng, initialisation, holdout split, batch order and
    config, so it is bit for bit the model `train` gives for its job alone.
    Every job is checked before any training starts.  Each such group is
    split into at most one part per usable CPU, balanced by steps, and the
    parts train side by side (`parallel.fork_map`), each in its own lockstep
    pass.
    """
    runs = [_Run(job) for job in jobs]
    groups: dict[tuple, list[_Run]] = {}
    for job, run in zip(jobs, runs):
        groups.setdefault((id(job.dataset), tuple(run.model.shape)), []).append(run)
    parts = [part for group in groups.values() for part in _balanced_parts(group, parallel.usable_cpus())]
    for part, models in zip(parts, parallel.fork_map(_trained, parts)):
        for run, model in zip(part, models):
            run.model = model
    return [run.model for run in runs]


def _balanced_parts(runs: list[_Run], count: int) -> list[list[_Run]]:
    """The runs dealt into min(count, len(runs)) parts, none empty: longest
    first, each to the part with the fewest steps so far, then the fewest
    runs (so runs of 0 steps still fill every part)."""
    parts: list[list[_Run]] = [[] for _ in range(min(count, len(runs)))]
    steps = [0] * len(parts)
    for run in sorted(runs, key=lambda r: -r.steps):
        k = min(range(len(parts)), key=lambda i: (steps[i], len(parts[i])))
        parts[k].append(run)
        steps[k] += run.steps
    return parts


def _trained(runs: list[_Run]) -> list[DetectorModel]:
    """The models of one lockstep pass over `runs`, in their order."""
    _lockstep(runs)
    return [run.model for run in runs]


def _lockstep(runs: list[_Run]) -> None:
    """Trains runs that share a dataset and a shape together, step by step.

    Parameters, gradients and velocities live in three (m, P) buffers, one
    row per model; each layer's stacked weights and biases are views into
    them, and so are each model's own arrays while it trains, so the
    momentum step is four in-place calls on whole buffers.  Runs are ordered
    longest first, so those still training are always a leading slice.

    The pass is cut into segments at every step where a run starts or ends
    an epoch, and all per-run work happens at the cuts.  A run starting an
    epoch draws its permutation and lays the epoch's batch rows and targets
    out in ring buffers indexed (step mod ring, model, row), the ring as
    long as the longest epoch.  A step in between gathers its batch with one
    `take`, runs `_gradients` over buffers allocated once and leaves its
    logistic outputs in the ring.  A run ending an epoch reduces its step
    losses from the outputs and targets there and measures its holdout.
    Within a segment every run's batch length is fixed; where the lengths
    differ (a partial last batch) each model steps on its own one-model
    slice.  A step loss is non-finite exactly where an output is NaN, so a
    step with a NaN output stops the pass with the epoch of the first run
    in stack order to have one.  The pass gathers from a C-ordered copy of
    a matrix that is not C-ordered, made once.  It runs in one process and
    needs at least one run; `train_many` gives it one part of a group.
    """
    runs = sorted(runs, key=lambda r: -r.steps)
    m = len(runs)
    shape = runs[0].model.shape
    matrix, labels = np.ascontiguousarray(runs[0].matrix), runs[0].labels
    size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(shape[:-1], shape[1:]))
    theta, grad, vel = np.zeros((m, size)), np.zeros((m, size)), np.zeros((m, size))
    Ws, bs, gWs, gbs = [], [], [], []
    at = 0
    for fan_in, fan_out in zip(shape[:-1], shape[1:]):
        end = at + fan_in * fan_out
        Ws.append(theta[:, at:end].reshape(m, fan_in, fan_out))
        gWs.append(grad[:, at:end].reshape(m, fan_in, fan_out))
        bs.append(theta[:, end : end + fan_out].reshape(m, 1, fan_out))
        gbs.append(grad[:, end : end + fan_out].reshape(m, 1, fan_out))
        at = end + fan_out
    for k, run in enumerate(runs):
        model = run.model
        for W, b, W0, b0 in zip(Ws, bs, model.weights, model.biases):
            W[k], b[k, 0] = W0, b0
        model.weights = [W[k] for W in Ws]
        model.biases = [b[k, 0] for b in bs]

    batch = max(run.config.batch_size for run in runs)
    ring = max(run.batches_per_epoch for run in runs)
    buffers = _Buffers(shape, m, batch)
    # Per ring slot and model: the batch's matrix rows, targets and outputs.
    slot_rows = np.zeros((ring, m, batch), dtype=np.intp)
    slot_y = np.zeros((ring, m, batch))
    slot_out = np.zeros((ring, m, batch, 1))

    def lay_out(k: int, t: int) -> None:
        """Run k's next epoch, which starts at step t, in the ring."""
        run = runs[k]
        width, count = run.config.batch_size, run.batches_per_epoch
        rows = np.zeros(count * width, dtype=np.intp)
        rows[: len(run.fit_rows)] = run.epoch_rows()
        rows = rows.reshape(count, width)
        slots = np.arange(t, t + count) % ring
        slot_rows[slots, k, :width] = rows
        slot_y[slots, k, :width] = labels[rows]

    cuts = {0, runs[0].steps}
    for run in runs:
        count = run.batches_per_epoch
        cuts.update(c for e in range(1, run.config.epochs + 1) for c in (e * count - 1, e * count))
    cuts = sorted(cuts)
    for t0, t1 in zip(cuts, cuts[1:]):
        active = sum(run.steps > t0 for run in runs)
        for k in range(active):
            if t0 % runs[k].batches_per_epoch == 0:
                lay_out(k, t0)
        lengths = [run.rows_at(t0) for run in runs[:active]]
        if len(set(lengths)) == 1:
            parts = [(0, active, lengths[0])]
        else:
            parts = [(k, k + 1, n) for k, n in enumerate(lengths)]
        steps = [
            (lo, _Step(buffers, (Ws, bs, gWs, gbs), lo, hi, n),
             np.array([[run.config.momentum] for run in runs[lo:hi]]),
             np.array([[run.config.learning_rate] for run in runs[lo:hi]]),
             slot_rows[:, lo:hi, :n], slot_y[:, lo:hi, :n], slot_out[:, lo:hi, :n],
             vel[lo:hi], grad[lo:hi], theta[lo:hi])
            for lo, hi, n in parts
        ]
        # Every part takes step t before any takes t + 1, so the first NaN
        # found is at the earliest bad step.
        for t in range(t0, t1):
            slot = t % ring
            for lo, s, mu, lr, rows, y, out, v, g, th in steps:
                matrix.take(rows[slot], axis=0, out=s.X, mode="clip")
                _gradients(s, out[slot], y[slot])
                if np.isnan(out[slot]).any():
                    k = lo + int(np.isnan(out[slot]).any(axis=(1, 2)).argmax())
                    raise ValueError(f"training diverged: non-finite loss at epoch {t // runs[k].batches_per_epoch}")
                # vel = momentum * vel - rate * grad; theta += vel
                np.multiply(v, mu, out=v)
                np.multiply(g, lr, out=g)
                np.subtract(v, g, out=v)
                np.add(th, v, out=th)
        for k in range(active):
            run = runs[k]
            count, width = run.batches_per_epoch, run.config.batch_size
            if t1 % count == 0:
                slots = np.arange(t1 - count, t1) % ring
                run.end_epoch(slot_out[slots, k, :width, 0], slot_y[slots, k, :width])
    for run in runs:
        run.model.weights = [W.copy() for W in run.model.weights]
        run.model.biases = [b.copy() for b in run.model.biases]


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


def _hexes(text: str, width: int | None = None, finite: bool = True) -> list[float]:
    """The hex floats of a text, `width` of them when given."""
    values = [parsed(tok, float.fromhex, finite) for tok in text.split()]
    if width is not None and len(values) != width:
        raise ValueError(f"has {len(values)} values, expected {width}")
    return values


def _ints(text: str) -> list[int]:
    return [parsed(tok, int) for tok in text.split()]


def _shape(text: str) -> list[int]:
    violations = validate_shape(shape := _ints(text))
    if violations:
        raise ValueError("invalid network shape: " + "; ".join(violations))
    return shape


def _one_of(what: str, *allowed: str):
    """The read of a text that must be one of `allowed`."""
    def read(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"unsupported {what} {text!r}, expected {' or '.join(map(repr, allowed))}")
        return text
    return read


def _names(names: Sequence[str]) -> str:
    for name in names:
        if "|" in name or "\n" in name or "\r" in name or name != name.strip():
            raise ValueError(f"feature name {name!r} cannot be saved in a model file: "
                             "it holds '|', a line break or padding")
    return "|".join(names)


class _Field(NamedTuple):
    """How a header value is written and read back; a field with no read
    carries the one text `write`.  A per-input value has one entry per input
    column, or none."""

    write: Callable | str
    read: Callable | None = None
    per_input: bool = False


_NORM = _Field(lambda values: "-" if values is None else _hex_list(values),
               lambda text: None if text == "-" else np.array(_hexes(text)), per_input=True)
_CURVE = _Field(_hex_list, partial(_hexes, finite=False))
# The header of a model block, in file order; each tag is the DetectorModel
# attribute it carries.  The threshold, the norms, and the weights and biases
# of the `layer:` and `bias:` lines that follow must be finite; the curves may
# hold NaN, as a run without a holdout writes NaN accuracies.
_HEADER = {
    "shape": _Field(lambda shape: " ".join(map(str, shape)), _shape),
    "hidden_activation": _Field("relu"),
    "threshold": _Field(lambda value: float(value).hex(), partial(parsed, kind=float.fromhex)),
    "seed": _Field(str, partial(parsed, kind=int)),
    "epochs": _Field(str, partial(parsed, kind=int)),
    "feature_names": _Field(_names, lambda text: text.split("|") if text else [], per_input=True),
    "norm_min": _NORM,
    "norm_max": _NORM,
    "loss_curve": _CURVE,
    "holdout_accuracy": _CURVE,
    "conv": _Field("-"),
}
# An ensemble's header: the fields of the model header that EnsembleModel carries.
_ENSEMBLE_HEADER = {tag: f for tag, f in _HEADER.items() if tag in {x.name for x in fields(EnsembleModel)}}


def _write_header(fh, header: dict[str, _Field], obj) -> None:
    for tag, f in header.items():
        fh.write(f"{tag}: {f.write(getattr(obj, tag)) if f.read else f.write}\n")


def _write_model_block(fh, model: DetectorModel) -> None:
    fh.write(MODEL_MAGIC + "\n")
    _write_header(fh, _HEADER, model)
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        fh.write(f"layer: {i} {W.shape[0]} {W.shape[1]}\n")
        for row in W:
            fh.write(_hex_list(row) + "\n")
        fh.write("bias: " + _hex_list(b) + "\n")
    fh.write("end\n")


class _Lines:
    """A model file read a line at a time; a fault names the path, the line
    and the field."""

    def __init__(self, fh, path):
        self.fh, self.path, self.n = fh, path, 0

    def fault(self, tag: str | None, reason: str) -> ValueError:
        return ValueError(f"{self.path}: line {self.n}{'' if tag is None else f', field {tag!r}'}: {reason}")

    def next(self, tag: str | None, read: Callable, tagged: bool = True):
        """The next line read by `read`, after its `tag:` when tagged."""
        line = self.fh.readline()
        self.n += 1
        if not line:
            raise self.fault(tag, "truncated model file")
        line = line.rstrip("\n")
        if tagged and not line.startswith(f"{tag}:"):
            raise self.fault(tag, f"expected {tag!r} line, got {line!r}")
        try:
            return read(line[len(tag) + 1 :].strip() if tagged else line)
        except ValueError as exc:
            raise self.fault(tag, str(exc)) from None


def _read_model_block(lines: _Lines) -> DetectorModel:
    """The model block after its magic line."""
    model = DetectorModel(shape=[], weights=[], biases=[])
    for tag, f in _HEADER.items():
        value = lines.next(tag, f.read or _one_of(tag, f.write))
        if f.per_input and value is not None and len(value) not in (0, model.input_width):
            raise lines.fault(tag, f"has {len(value)} entries, expected {model.input_width}")
        if f.read:
            setattr(model, tag, value)
    for i, (rows, cols) in enumerate(zip(model.shape[:-1], model.shape[1:])):
        if (dims := lines.next("layer", _ints)) != [i, rows, cols]:
            raise lines.fault("layer", f"expected '{i} {rows} {cols}', got {' '.join(map(str, dims))!r}")
        model.weights.append(np.array([lines.next("layer", partial(_hexes, width=cols), tagged=False)
                                       for _ in range(rows)]))
        model.biases.append(np.array(lines.next("bias", partial(_hexes, width=cols))))
    lines.next("end", _one_of("line", "end"), tagged=False)
    return model


def save_model(model: DetectorModel | EnsembleModel, path) -> None:
    """Writes a model file; a model whose feature names would not read back
    leaves no file."""
    fh = io.StringIO()
    if isinstance(model, EnsembleModel):
        fh.write(ENSEMBLE_MAGIC + "\n")
        _write_header(fh, _ENSEMBLE_HEADER, model)
        for attack in EXPERT_ATTACKS:
            fh.write(f"expert: {attack}\n")
            _write_model_block(fh, model.experts[attack])
    else:
        _write_model_block(fh, model)
    with open(path, "w") as out:
        out.write(fh.getvalue())


def load_model(path) -> DetectorModel | EnsembleModel:
    """Reads a model file back; a rejection names the path, line and field,
    or the line of a byte that is not UTF-8."""
    with open_text(path) as fh:
        lines = _Lines(fh, path)
        if lines.next(None, _one_of("model version", MODEL_MAGIC, ENSEMBLE_MAGIC), tagged=False) == MODEL_MAGIC:
            return _read_model_block(lines)
        header = {tag: lines.next(tag, f.read) for tag, f in _ENSEMBLE_HEADER.items()}
        experts = {}
        for _ in EXPERT_ATTACKS:
            attack = lines.next("expert", _one_of("expert", *(a for a in EXPERT_ATTACKS if a not in experts)))
            lines.next(None, _one_of("model version", MODEL_MAGIC), tagged=False)
            experts[attack] = _read_model_block(lines)
    try:
        return EnsembleModel(experts=experts, **header)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
