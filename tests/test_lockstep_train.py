"""The lockstep trainer against the per-model reference in `oracle_train`.

`detector.train_many` trains its jobs together as one stacked network; each
model must still be, byte for byte, what training it alone gives: weights,
biases, loss curve and holdout accuracy.  Jobs are drawn so that row counts
leave partial last batches and the jobs run different numbers of batches per
epoch, with and without a holdout split and with their own momentum and
learning rate.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_train
from ddsids import detector
from ddsids.detector import TrainConfig, TrainJob
from ddsids.preprocess import Dataset

LABELS = ("benign", "dos", "clone", "malsub")


def dataset(labels, width, seed):
    rng = np.random.default_rng(seed)
    return Dataset(
        matrix=rng.uniform(0, 1, size=(len(labels), width)),
        labels=list(labels),
        feature_names=[f"f{i}" for i in range(width)],
        shuffle_seed=seed,
        norm_min=np.zeros(width),
        norm_max=np.ones(width),
    )


def oracle_model(job: TrainJob):
    y = np.array([1.0 if lab == "benign" else 0.0 for lab in job.dataset.labels])
    rows = np.arange(len(y)) if job.rows is None else job.rows
    return oracle_train.train(job.dataset.matrix[rows], y[rows], job.shape, job.config)


def assert_same_bytes(model, reference):
    assert len(model.weights) == len(reference.weights)
    for got, want in zip(model.weights + model.biases, reference.weights + reference.biases):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert np.array(model.loss_curve).tobytes() == np.array(reference.loss_curve).tobytes()
    assert np.array(model.holdout_accuracy).tobytes() == np.array(reference.holdout_accuracy).tobytes()


@st.composite
def lockstep_jobs(draw):
    width = draw(st.integers(min_value=1, max_value=9))
    n = draw(st.integers(min_value=12, max_value=140))
    # Every label appears, so each benign+attack subset holds both classes.
    labels = list(LABELS) + draw(st.lists(st.sampled_from(LABELS), min_size=n - 4, max_size=n - 4))
    ds = dataset(labels, width, draw(st.integers(min_value=0, max_value=2**16)))
    jobs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kept = draw(st.sampled_from([None, "dos", "clone", "malsub"]))
        rows = None if kept is None else np.flatnonzero([lab in ("benign", kept) for lab in labels])
        shape = detector.default_shape(width) if draw(st.booleans()) else [width] * 5 + [1]
        config = TrainConfig(
            learning_rate=draw(st.sampled_from([0.01, 0.05, 0.2])),
            momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
            batch_size=draw(st.sampled_from([5, 7, 16, 32])),
            epochs=draw(st.integers(min_value=0, max_value=4)),
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            holdout_fraction=draw(st.sampled_from([0.0, 0.1, 0.3])),
        )
        jobs.append(TrainJob(ds, shape, config, rows))
    return jobs


@given(lockstep_jobs())
@settings(max_examples=60, deadline=None)
def test_every_model_is_what_it_trains_to_alone(jobs):
    models = detector.train_many(jobs)
    assert len(models) == len(jobs)
    for job, model in zip(jobs, models):
        assert_same_bytes(model, oracle_model(job))


def test_desk_width_models_match_the_oracle():
    # The experiment's width and shape, rows giving partial last batches of
    # different lengths and different numbers of batches per epoch.
    rng = np.random.default_rng(3)
    labels = list(LABELS) + [str(lab) for lab in rng.choice(LABELS, size=413)]
    ds = dataset(labels, 80, seed=4)
    shape = detector.default_shape(80)
    jobs = [
        TrainJob(ds, shape, TrainConfig(epochs=3, seed=21 + i),
                 np.flatnonzero([lab in ("benign", attack) for lab in labels]))
        for i, attack in enumerate(("dos", "clone", "malsub"))
    ] + [TrainJob(ds, shape, TrainConfig(epochs=3, seed=24))]
    for job, model in zip(jobs, detector.train_many(jobs)):
        assert_same_bytes(model, oracle_model(job))


def test_train_is_the_one_job_case():
    ds = dataset(list(LABELS) * 20, 3, seed=5)
    config = TrainConfig(epochs=3, seed=2)
    assert_same_bytes(detector.train(ds, [3, 3, 3, 2, 1], config),
                      oracle_model(TrainJob(ds, [3, 3, 3, 2, 1], config)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_one_diverging_job_stops_training():
    ds = dataset(list(LABELS) * 30, 4, seed=6)
    shape = detector.default_shape(4)
    wild = TrainJob(ds, shape, TrainConfig(epochs=3, seed=1, learning_rate=1e300))
    with pytest.raises(ValueError) as expected:
        oracle_model(wild)
    assert str(expected.value).startswith("training diverged: non-finite loss")
    calm = [TrainJob(ds, shape, TrainConfig(epochs=3, seed=s)) for s in (2, 3)]
    with pytest.raises(ValueError, match="^" + str(expected.value) + "$"):
        detector.train_many([calm[0], wild, calm[1]])


def test_single_class_rows_rejected():
    ds = dataset(list(LABELS) * 10, 3, seed=7)
    benign_only = np.flatnonzero([lab == "benign" for lab in ds.labels])
    jobs = [TrainJob(ds, [3, 3, 3, 3, 1], TrainConfig(epochs=1)),
            TrainJob(ds, [3, 3, 3, 3, 1], TrainConfig(epochs=1), benign_only)]
    with pytest.raises(ValueError, match="single class"):
        detector.train_many(jobs)
