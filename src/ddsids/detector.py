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


def _forward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray], X: np.ndarray) -> list[np.ndarray]:
    """Activations of every layer, the input included.

    Works on one model (X of shape (rows, width), W of (fan_in, fan_out)) and
    on a stack of m models (X of (m, rows, width), W of (m, fan_in, fan_out),
    b of (m, 1, fan_out)), where one matmul runs every model's product.
    """
    activations = [X]
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = activations[-1] @ W
        z += b
        activations.append(_sigmoid(z) if i == len(weights) - 1 else np.maximum(z, 0.0, out=z))
    return activations


def predict(model: DetectorModel, rows: np.ndarray) -> np.ndarray:
    """Per-row benign score, strictly inside (0, 1)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != model.input_width:
        raise ValueError(f"row width {rows.shape[1]} does not match model input width {model.input_width}")
    return np.clip(_forward(model.weights, model.biases, rows)[-1][:, 0], _SCORE_EPS, 1.0 - _SCORE_EPS)


def classify(model: DetectorModel, rows: np.ndarray, threshold: float | None = None) -> np.ndarray:
    """True where the row is classified benign."""
    th = model.threshold if threshold is None else threshold
    return predict(model, rows) >= th


def bce_loss(model: DetectorModel, X: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(predict(model, X), _SCORE_EPS, 1.0 - _SCORE_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _stacked_gradients(Ws, bs, X, y, gWs, gbs) -> np.ndarray:
    """Mean BCE of each of m stacked models on its own batch.

    X is (m, rows, width) and y (m, rows); Ws, bs, gWs and gbs are per-layer
    (m, fan_in, fan_out) and (m, 1, fan_out) arrays.  The gradients are
    written into gWs and gbs; the m losses are returned.  Each model's numbers
    are the ones its batch gives alone: every product and sum runs per model.
    """
    n = X.shape[1]
    activations = _forward(Ws, bs, X)
    p = np.clip(activations[-1][..., 0], _SCORE_EPS, 1.0 - _SCORE_EPS)
    losses = -(np.add.reduce(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=1) / n)
    # d loss / d z for the logistic output under BCE.
    delta = (activations[-1] - y[..., None]) / n
    for i in range(len(Ws) - 1, -1, -1):
        np.matmul(activations[i].transpose(0, 2, 1), delta, out=gWs[i])
        np.add.reduce(delta, axis=1, keepdims=True, out=gbs[i])
        if i > 0:
            delta = delta @ Ws[i].transpose(0, 2, 1)
            # A rectifier passes gradient where its output is positive.
            delta *= activations[i] > 0
    return losses


def loss_and_gradients(model: DetectorModel, X: np.ndarray, y: np.ndarray):
    """Mean BCE and its gradients for every parameter tensor: the one-model
    case of the kernel training runs.

    Returns (loss, grads_W, grads_b).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(1, -1)
    gWs = [np.empty((1,) + W.shape) for W in model.weights]
    gbs = [np.empty((1, 1) + b.shape) for b in model.biases]
    losses = _stacked_gradients(
        [W[None] for W in model.weights], [b[None, None] for b in model.biases], X[None], y, gWs, gbs
    )
    return float(losses[0]), [g[0] for g in gWs], [g[0, 0] for g in gbs]


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
    """A job's own state: rng, initial model, holdout split, epoch position
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
        self.epoch = 0
        self.batch = 0
        self.epoch_rows = self.fit_rows
        self.batch_losses: list[float] = []

    def next_rows(self) -> np.ndarray:
        """Matrix rows of this step's batch; a new epoch draws its order."""
        if self.batch == 0:
            self.epoch_rows = self.fit_rows[self.rng.permutation(len(self.fit_rows))]
        lo = self.batch * self.config.batch_size
        return self.epoch_rows[lo : lo + self.config.batch_size]

    def stepped(self, loss: float) -> None:
        """Records a step's loss; at the end of an epoch, the epoch's mean
        loss and the holdout accuracy of the updated weights."""
        self.batch_losses.append(float(loss))
        self.batch += 1
        if self.batch < self.batches_per_epoch:
            return
        model = self.model
        model.loss_curve.append(float(np.mean(self.batch_losses)))
        if len(self.X_hold):
            correct = (classify(model, self.X_hold) == (self.y_hold >= 0.5)).mean()
            model.holdout_accuracy.append(float(correct))
        else:
            model.holdout_accuracy.append(float("nan"))
        self.batch_losses = []
        self.batch = 0
        self.epoch += 1


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
    longest first, so those still training are always a leading slice.  A
    step whose batches differ in length (a partial last batch) runs each
    model on its own one-model slice.  The pass runs in one process and
    needs at least one run; `train_many` gives it one part of a group.
    """
    runs = sorted(runs, key=lambda r: -r.steps)
    m = len(runs)
    shape = runs[0].model.shape
    matrix, labels = runs[0].matrix, runs[0].labels
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
    momentum = np.array([[run.config.momentum] for run in runs])
    rate = np.array([[run.config.learning_rate] for run in runs])

    def step(lo: int, hi: int, rows: np.ndarray) -> np.ndarray:
        """One step of models lo..hi-1, model k on the matrix rows rows[k - lo]."""
        losses = _stacked_gradients(
            [W[lo:hi] for W in Ws], [b[lo:hi] for b in bs], matrix[rows], labels[rows],
            [g[lo:hi] for g in gWs], [g[lo:hi] for g in gbs],
        )
        finite = np.isfinite(losses)
        if not finite.all():
            epoch = runs[lo + int(np.argmin(finite))].epoch
            raise ValueError(f"training diverged: non-finite loss at epoch {epoch}")
        # vel = momentum * vel - rate * grad; theta += vel
        v, g = vel[lo:hi], grad[lo:hi]
        v *= momentum[lo:hi]
        g *= rate[lo:hi]
        v -= g
        theta[lo:hi] += v
        return losses

    active = m
    for t in range(runs[0].steps):
        while runs[active - 1].steps <= t:
            active -= 1
        batches = [run.next_rows() for run in runs[:active]]
        if all(len(rows) == len(batches[0]) for rows in batches):
            losses = step(0, active, np.stack(batches))
        else:
            losses = np.concatenate([step(k, k + 1, rows[None]) for k, rows in enumerate(batches)])
        for run, loss in zip(runs, losses):
            run.stepped(loss)
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
