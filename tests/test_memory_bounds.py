"""The packet reader, the meter, pooling, the split and scoring hold a block
at a time or gather once, not a file's or a table's worth of temporaries:
measured by tracemalloc on the desk-scale seed-7 clone trace (135,788
packets) against the bytes of the trace's columns, on the seed-7 scenarios
pooled against the pooled features, on their split against its two
matrices, on their test matrix against one block of rows or the matrix
itself, and on their no-address training matrix against itself.  The
blocks are of fixed size, so a much smaller input would read a larger
ratio."""

import tracemalloc

import numpy as np
import pytest

from ddsids import detector, featsel, flowmeter, preprocess, simnet
from ddsids.evalcli import ExperimentPlan, evaluate_models, scenario_configs

PLAN = ExperimentPlan(seed=7)


@pytest.fixture(scope="module")
def clone_trace(tmp_path_factory):
    """The trace's packet file and the bytes of its columns."""
    trace = simnet.generate(scenario_configs(PLAN)["clone"])
    path = tmp_path_factory.mktemp("trace") / "clone.csv"
    simnet.write_packet_csv(trace, path)
    return path, sum(getattr(trace, name).nbytes for name in trace.COLUMNS)


@pytest.fixture(scope="module")
def scenarios():
    """Each scenario simulated, metered and labelled, in SCENARIOS order."""
    return [preprocess.label_scenario(name, flowmeter.meter(simnet.generate(config)))
            for name, config in scenario_configs(PLAN).items()]


@pytest.fixture(scope="module")
def pooled(scenarios):
    return preprocess.pool(scenarios)[0]


def random_model(width, seed):
    """A model of the default shape with random weights, untrained."""
    shape = detector.default_shape(width)
    rng = np.random.default_rng(seed)
    return detector.DetectorModel(shape, [rng.normal(0, a ** -0.5, (a, b)) for a, b in zip(shape, shape[1:])],
                                  [np.zeros(b) for b in shape[1:]])


def traced_peak(fn, *args):
    """What `fn(*args)` returns, and the peak of the memory it allocated
    while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_packet_reader_and_meter_peaks(clone_trace):
    path, column_bytes = clone_trace
    trace, read_peak = traced_peak(simnet.read_packet_csv, path)
    assert read_peak <= 2.0 * column_bytes, f"read peak {read_peak / column_bytes:.2f}x the trace"
    _, meter_peak = traced_peak(flowmeter.meter, trace)
    assert meter_peak <= 1.1 * column_bytes, f"meter peak {meter_peak / column_bytes:.2f}x the trace"


def test_pool_gathers_once(scenarios):
    (pooled, _), peak = traced_peak(preprocess.pool, scenarios)
    feature_bytes = pooled.features.nbytes
    assert peak <= 2.0 * feature_bytes, f"pool peak {peak / feature_bytes:.2f}x the pooled features"


def test_predict_holds_one_block(scenarios):
    pooled, _ = preprocess.pool(scenarios)
    _, test = preprocess.build_dataset(pooled, PLAN.split_fraction, PLAN.seed_for("split"))
    assert len(test.matrix) > 2 * detector.PREDICT_BLOCK
    shape = detector.default_shape(test.width)
    rng = np.random.default_rng(0)
    model = detector.DetectorModel(shape, [rng.normal(0, a ** -0.5, (a, b)) for a, b in zip(shape, shape[1:])],
                                   [np.zeros(b) for b in shape[1:]])
    scores, peak = traced_peak(detector.predict, model, test.matrix)
    # The scores, and every layer's activation of one block of at most
    # PREDICT_BLOCK + 1 rows: a bound the test set's row count does not move.
    bound = scores.nbytes + 8 * (detector.PREDICT_BLOCK + 1) * sum(shape[1:])
    assert peak <= bound, f"predict peak {peak} bytes, bound {bound}"


def test_split_gathers_each_matrix_once(pooled):
    (train, test), peak = traced_peak(preprocess.build_dataset, pooled, PLAN.split_fraction, PLAN.seed_for("split"))
    matrix_bytes = train.matrix.nbytes + test.matrix.nbytes
    assert peak <= 1.25 * matrix_bytes, f"split peak {peak / matrix_bytes:.2f}x the two matrices"


def test_evaluate_holds_no_copy_of_the_test_matrix(pooled):
    _, test = preprocess.build_dataset(pooled, PLAN.split_fraction, PLAN.seed_for("split"))
    experts = {attack: random_model(test.width, i) for i, attack in enumerate(detector.EXPERT_ATTACKS)}
    single, ensemble = random_model(test.width, 9), detector.EnsembleModel(experts=experts)
    plan = ExperimentPlan(seed=7, anonymize="randomize")  # the most report rows
    rows, peak = traced_peak(evaluate_models, plan, test, experts, single, ensemble, {})
    assert len(rows) == 8
    assert peak < test.matrix.nbytes, f"evaluate peak {peak / test.matrix.nbytes:.2f}x the test matrix"


def test_lasso_centers_its_fold_copies_in_place(pooled):
    train, _ = preprocess.build_dataset(pooled, PLAN.split_fraction, PLAN.seed_for("split"), ip_mode="none")
    _, peak = traced_peak(featsel.rank_lasso, train, PLAN.seed)
    assert peak <= 1.5 * train.matrix.nbytes, f"rank_lasso peak {peak / train.matrix.nbytes:.2f}x the matrix"
