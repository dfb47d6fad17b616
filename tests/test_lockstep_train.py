"""The lockstep trainer against the per-model reference in `oracle_train`.

`detector.train_many` trains its jobs together as one stacked network; each
model must still be, byte for byte, what training it alone gives: weights,
biases, loss curve and holdout accuracy.  Jobs are drawn so that row counts
leave partial last batches and the jobs run different numbers of batches per
epoch, with and without a holdout split and with their own momentum and
learning rate.  Stacks of one shape are drawn on C- and Fortran-ordered
matrices, and diverging stacks must name the epoch the oracle names for the
first job, in stack order, to diverge at the earliest step.
"""

import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_train
from ddsids import detector, parallel
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


@st.composite
def shared_shape_stacks(draw):
    """3-4 jobs on one dataset and one shape, so they train as one stack:
    subsets of different sizes give unequal partial last batches, and each
    job has its own momentum and learning rate.  The dataset matrix is in C
    or in Fortran order."""
    width = draw(st.integers(min_value=2, max_value=9))
    n = draw(st.integers(min_value=40, max_value=160))
    labels = list(LABELS) + draw(st.lists(st.sampled_from(LABELS), min_size=n - 4, max_size=n - 4))
    ds = dataset(labels, width, draw(st.integers(min_value=0, max_value=2**16)))
    if draw(st.booleans()):
        ds.matrix = np.asfortranarray(ds.matrix)
    shape = draw(st.sampled_from([detector.default_shape(width), [width] * 4 + [1]]))
    batch_size = draw(st.sampled_from([5, 7, 16]))
    count = draw(st.integers(min_value=3, max_value=4))
    momenta = draw(st.permutations([0.0, 0.5, 0.7, 0.9]))
    rates = draw(st.permutations([0.01, 0.05, 0.1, 0.2]))
    jobs = []
    for k in range(count):
        kept = draw(st.sampled_from([None, "dos", "clone", "malsub"]))
        rows = None if kept is None else np.flatnonzero([lab in ("benign", kept) for lab in labels])
        config = TrainConfig(
            learning_rate=rates[k],
            momentum=momenta[k],
            batch_size=batch_size,
            epochs=draw(st.integers(min_value=1, max_value=3)),
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            holdout_fraction=draw(st.sampled_from([0.0, 0.1])),
        )
        jobs.append(TrainJob(ds, shape, config, rows))
    return jobs


@given(shared_shape_stacks())
@settings(max_examples=40, deadline=None)
def test_a_shared_shape_stack_matches_the_oracle(jobs):
    for job, model in zip(jobs, detector.train_many(jobs)):
        assert_same_bytes(model, oracle_model(job))


@pytest.mark.parametrize("order", ["C", "F"])
def test_desk_width_stack_matches_the_oracle_in_either_matrix_order(order):
    # The experiment's shape on both layouts of one matrix, four jobs of one
    # stack with unequal last batches and their own momentum and rate.
    rng = np.random.default_rng(8)
    labels = list(LABELS) + [str(lab) for lab in rng.choice(LABELS, size=300)]
    ds = dataset(labels, 80, seed=9)
    ds.matrix = np.asarray(ds.matrix, order=order)
    shape = detector.default_shape(80)
    kept = ("dos", "clone", "malsub", None)
    jobs = [
        TrainJob(ds, shape, TrainConfig(epochs=2, seed=30 + i, momentum=0.9 - 0.2 * i, learning_rate=0.01 * (i + 1)),
                 None if attack is None else np.flatnonzero([lab in ("benign", attack) for lab in labels]))
        for i, attack in enumerate(kept)
    ]
    for job, model in zip(jobs, detector.train_many(jobs)):
        assert_same_bytes(model, oracle_model(job))


def oracle_failure(job: TrainJob):
    """(step, message) of the oracle's divergence error for a job; None when
    it trains to the end."""
    calls = []
    kernel = oracle_train.loss_and_gradients
    with mock.patch.object(oracle_train, "loss_and_gradients", lambda *args: calls.append(1) or kernel(*args)):
        try:
            oracle_model(job)
        except ValueError as exc:
            return len(calls) - 1, str(exc)
    return None


@st.composite
def diverging_stacks(draw):
    """2-4 jobs of one stack, some with learning rates that diverge at some
    step of some epoch, the epochs of one to a few dozen batches; no holdout,
    so a job's steps are its epochs times its batches."""
    width = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=30, max_value=120))
    labels = list(LABELS) + draw(st.lists(st.sampled_from(LABELS), min_size=n - 4, max_size=n - 4))
    ds = dataset(labels, width, draw(st.integers(min_value=0, max_value=2**16)))
    jobs = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        kept = draw(st.sampled_from([None, "dos", "clone", "malsub"]))
        rows = None if kept is None else np.flatnonzero([lab in ("benign", kept) for lab in labels])
        config = TrainConfig(
            learning_rate=draw(st.sampled_from([0.05, 30.0, 300.0, 3e3, 1e5, 1e300])),
            momentum=draw(st.sampled_from([0.0, 0.9])),
            batch_size=draw(st.sampled_from([5, 16, 64])),
            epochs=draw(st.integers(min_value=1, max_value=5)),
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            holdout_fraction=0.0,
        )
        jobs.append(TrainJob(ds, detector.default_shape(width), config, rows))
    return jobs


@given(diverging_stacks())
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_divergence_names_the_first_bad_step(jobs):
    # The stack is ordered by steps, longest first; its error is the one of
    # the first job in that order to diverge at the earliest step.
    steps = [job.config.epochs * -(-(len(job.dataset.labels) if job.rows is None else len(job.rows))
                                    // job.config.batch_size) for job in jobs]
    stack = sorted(range(len(jobs)), key=lambda i: -steps[i])
    failures = [(failure[0], stack.index(i), failure[1])
                for i, failure in enumerate(map(oracle_failure, jobs)) if failure is not None]
    with mock.patch.object(parallel, "usable_cpus", lambda: 1):
        if not failures:
            detector.train_many(jobs)
            return
        with pytest.raises(ValueError) as raised:
            detector.train_many(jobs)
    assert str(raised.value) == min(failures)[2]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_divergence_names_the_epoch_of_the_first_job_in_stack_order():
    # Both jobs diverge at step 2, each on batches of its own length.  The
    # short one, a single batch per epoch, is then in its epoch 2; the long
    # one, first in the stack, is in its epoch 0, and that is the epoch the
    # error names.
    ds = dataset(list(LABELS) * 10, 3, seed=11)
    shape = detector.default_shape(3)
    config = TrainConfig(epochs=3, learning_rate=1e300, holdout_fraction=0.0)
    long = TrainJob(ds, shape, replace(config, seed=0, batch_size=5))
    short = TrainJob(ds, shape, replace(config, seed=1, batch_size=64),
                     np.flatnonzero([lab in ("benign", "dos") for lab in ds.labels]))
    assert oracle_failure(long) == (2, "training diverged: non-finite loss at epoch 0")
    assert oracle_failure(short) == (2, "training diverged: non-finite loss at epoch 2")
    with mock.patch.object(parallel, "usable_cpus", lambda: 1):
        with pytest.raises(ValueError, match="^training diverged: non-finite loss at epoch 0$"):
            detector.train_many([short, long])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_divergence_in_a_shared_step_names_the_diverging_job():
    # Both jobs take full batches of 5 rows, so every step runs them as one
    # stack.  Only the long one diverges, at step 2 of its epoch 0; the short
    # one, two batches per epoch, is then in its epoch 1.
    ds = dataset(list(LABELS) * 10, 3, seed=11)
    shape = detector.default_shape(3)
    config = TrainConfig(epochs=3, batch_size=5, holdout_fraction=0.0)
    long = TrainJob(ds, shape, replace(config, seed=0, learning_rate=1e300))
    short = TrainJob(ds, shape, replace(config, seed=1, learning_rate=0.05), np.arange(10))
    assert oracle_failure(long) == (2, "training diverged: non-finite loss at epoch 0")
    assert oracle_failure(short) is None
    with mock.patch.object(parallel, "usable_cpus", lambda: 1):
        with pytest.raises(ValueError, match="^training diverged: non-finite loss at epoch 0$"):
            detector.train_many([short, long])

def test_a_fortran_ordered_matrix_is_copied_once_per_pass():
    # A row gather from a Fortran-ordered matrix copies the whole matrix into
    # C order first.  The pass makes that copy once: every step gathers from
    # one C-ordered array.
    ds = dataset(list(LABELS) * 10, 6, seed=5)
    ds.matrix = np.asfortranarray(ds.matrix)
    job = TrainJob(ds, detector.default_shape(6), TrainConfig(epochs=2, batch_size=8))
    sources = []

    def record(frame, event, arg):
        if event == "c_call" and frame.f_code is detector._lockstep.__code__ and arg.__name__ == "take":
            sources.append(arg.__self__)

    with mock.patch.object(parallel, "usable_cpus", lambda: 1):
        sys.setprofile(record)
        try:
            model = detector.train(ds, job.shape, job.config)
        finally:
            sys.setprofile(None)
    assert len(sources) == 2 * 5
    assert len({id(source) for source in sources}) == 1
    assert sources[0].flags.c_contiguous
    assert_same_bytes(model, oracle_model(job))
