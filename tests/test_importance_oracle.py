"""Permutation importance against `oracle_importance`, which classifies the
whole shuffled holdout for every feature and trial.  The scores match by
exact bits on the training splits of the reduced-feature study (scale 0.5,
no addresses) and on toys, on one CPU and on two; only the rows a shuffle
changes are classified again, and a consensus ranking forks the scoring
of importance's shuffles from this process."""

import numpy as np
import pytest

from ddsids import detector, featsel, parallel
from ddsids.evalcli import ExperimentPlan, build_cache, build_datasets

import oracle_importance
from test_featsel import binary_toy


def oracle(ds, seed):
    return oracle_importance.importance(
        ds.matrix, ds.binary_labels(), detector.default_shape(ds.width), seed,
        epochs=featsel.IMPORTANCE_EPOCHS, learning_rate=featsel.IMPORTANCE_LEARNING_RATE,
        trials=featsel.IMPORTANCE_TRIALS,
    )


def assert_matches(ranking, ds, expected):
    assert [s.hex() for s in ranking.scores.values()] == [float(d).hex() for d in expected.drops]
    assert list(ranking.scores) == ds.feature_names
    order = sorted(range(ds.width), key=lambda j: (-expected.drops[j], j))
    assert ranking.ranked_names == [ds.feature_names[j] for j in order]


@pytest.fixture(scope="module", params=[7, 11])
def reduced(request):
    """(seed, the no-address training split at scale 0.5 that the
    reduced-feature study ranks, the oracle's importance of it)."""
    plan = ExperimentPlan(seed=request.param, ip_mode="none", scale=0.5)
    ds, _, _ = build_datasets(plan, build_cache(plan), [], {})
    return request.param, ds, oracle(ds, request.param)


@pytest.mark.parametrize("cpus", [1, 2])
def test_reduced_split_matches_the_oracle(monkeypatch, reduced, cpus):
    seed, ds, expected = reduced
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    assert_matches(featsel.rank_importance(ds, seed), ds, expected)


def test_only_changed_rows_are_classified(monkeypatch, reduced):
    # The baseline classifies the holdout once; then each shuffle that
    # moves a cell classifies the rows it changed, and no other shuffle
    # calls classify.  A shuffle rearranges its column's bit patterns, so
    # it never changes exactly one row, which `predict` would score alone.
    # Before, every shuffle classified the whole holdout.
    seed, ds, expected = reduced
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    calls, classify = [], detector.classify
    monkeypatch.setattr(detector, "classify", lambda model, rows: calls.append(len(rows)) or classify(model, rows))
    featsel.rank_importance(ds, seed)
    changed = expected.changed
    assert not (changed == 1).any()
    assert sum(calls) <= expected.n_hold + changed.sum()
    assert len(calls) == 1 + (changed > 0).sum()
    assert (changed == 0).all(axis=1).sum() >= 20  # the columns constant in the holdout cost nothing


@pytest.mark.parametrize("cpus", [1, 2])
def test_toy_with_a_constant_and_a_one_cell_column_matches_the_oracle(monkeypatch, cpus):
    ds = binary_toy(n=400, width=5, informative=0, seed=31)
    seed = 6
    n_hold = 100
    hold = np.random.default_rng(seed).permutation(len(ds.labels))[:n_hold]
    ds.matrix[:, 2] = 0.7  # no shuffle changes a row
    ds.matrix[:, 3] = 0.0
    ds.matrix[hold[0], 3] = 1.0  # a shuffle that moves this one cell changes two rows: where it was and where it goes
    expected = oracle(ds, seed)
    assert expected.n_hold == n_hold
    assert (expected.changed[2] == 0).all()
    assert set(expected.changed[3]) == {2}
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    assert_matches(featsel.rank_importance(ds, seed), ds, expected)
