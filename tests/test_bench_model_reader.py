"""The benchmark checks every saved model with its own reader
(`perfbench/checks.py`), which finds a model block by its magic line and
reads the threshold, the feature names and the `layer:`/`bias:` lines by
tag.  A change to the model file that this reader would misread must fail
here, not in a benchmark round."""

import sys
from pathlib import Path

import numpy as np
import pytest

from ddsids import detector
from ddsids.detector import EnsembleModel, TrainConfig, TrainJob, save_model
from ddsids.preprocess import Dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402  (perfbench is a directory of scripts, not a package)

NAMES = ["a", "b", "c"]


@pytest.fixture(scope="module")
def models():
    """Four models trained on rows whose label follows column `a`, and the rows to score."""
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, (200, 3))
    ds = Dataset(X, ["benign" if x > 0.5 else "dos" for x in X[:, 0]], list(NAMES), np.zeros(3), np.ones(3))
    jobs = [TrainJob(ds, [3, 3, 2, 2, 1], TrainConfig(epochs=40, learning_rate=0.1, seed=s)) for s in range(4)]
    return detector.train_many(jobs), rng.uniform(0, 1, (300, 3))


def test_the_bench_reads_a_saved_model(tmp_path, models):
    (model, *_), X = models
    save_model(model, tmp_path / "m.txt")
    read = checks.read_model(tmp_path / "m.txt")
    assert (read.feature_names, read.threshold) == (NAMES, detector.THRESHOLD)
    benign, ambiguous = read.votes(X)
    want = detector.classify(model, X)
    assert ambiguous.sum() < len(X) // 10 and 0 < want.sum() < len(X)
    assert np.array_equal(benign[~ambiguous], want[~ambiguous])


def test_the_bench_reads_a_saved_ensemble(tmp_path, models):
    trained, X = models
    ensemble = EnsembleModel(experts=dict(zip(detector.EXPERT_ATTACKS, trained[1:])))
    save_model(ensemble, tmp_path / "e.txt")
    experts = checks.read_model(tmp_path / "e.txt")
    assert list(experts) == list(detector.EXPERT_ATTACKS)
    assert all((e.feature_names, e.threshold) == (NAMES, ensemble.threshold) for e in experts.values())
    votes = [e.votes(X) for e in experts.values()]
    benign = np.logical_and.reduce([b for b, _ in votes])
    ambiguous = np.logical_or.reduce([a for _, a in votes])
    want = detector.classify(ensemble, X)
    assert ambiguous.sum() < len(X) // 10 and 0 < want.sum() < len(X)
    assert np.array_equal(benign[~ambiguous], want[~ambiguous])
