import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_lasso

from ddsids import detector
from ddsids.evalcli import ExperimentPlan, build_cache, build_datasets
from ddsids.featsel import (
    F_SENTINEL,
    rank_importance,
    rank_lasso,
    rank_rfe,
    rank_univariate,
    ranking_report,
    select,
    write_scores_csv,
)
from ddsids.preprocess import Dataset


def dataset_from(matrix, labels, names=None, seed=0):
    matrix = np.asarray(matrix, dtype=np.float64)
    names = names or [f"f{i}" for i in range(matrix.shape[1])]
    return Dataset(
        matrix=matrix,
        labels=list(labels),
        feature_names=list(names),
        shuffle_seed=seed,
        norm_min=np.zeros(matrix.shape[1]),
        norm_max=np.ones(matrix.shape[1]),
    )


def binary_toy(n=240, width=4, informative=0, seed=0, noise=0.05):
    """Feature `informative` separates classes; everything else is noise."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = rng.uniform(0, 1, size=(n, width))
    X[:, informative] = y * 0.8 + 0.1 + rng.uniform(-noise, noise, size=n)
    labels = ["benign" if v else "dos" for v in y]
    return dataset_from(X, labels, seed=seed)


class TestRfe:
    def test_perfect_separator_ranked_first(self):
        ds = binary_toy(informative=2, seed=1)
        ranking = rank_rfe(ds)
        assert ranking.ranked_names[0] == "f2"

    def test_noise_eliminated_first_vs_exhaustive(self):
        # oracle: exhaustive single-feature fits pick the stronger feature
        ds = binary_toy(width=2, informative=0, seed=2)
        y = ds.binary_labels()
        single_acc = []
        for j in range(2):
            x = ds.matrix[:, j]
            best = max(
                float(((x > t) == (y > 0.5)).mean())
                for t in np.linspace(0.05, 0.95, 19)
            )
            best = max(best, 1.0 - best)
            single_acc.append(best)
        stronger = int(np.argmax(single_acc))
        ranking = rank_rfe(ds)
        assert ranking.ranked_names[0] == f"f{stronger}"
        assert ranking.ranked_names[-1] == f"f{1 - stronger}"

    def test_step_arithmetic(self):
        ds = binary_toy(width=6, informative=1, seed=3)
        k = 2
        ranking = rank_rfe(ds, step=ds.width - k)
        # one elimination round removed width-k features; they occupy the tail
        # in reverse-weakness order, so the top-k equal the round-1 survivors
        full_fit = rank_rfe(ds, step=1)
        assert set(ranking.ranked_names[:k]) <= set(ds.feature_names)
        assert len(ranking.ranked_names) == ds.width
        assert sorted(ranking.ranked_names) == sorted(ds.feature_names)
        assert full_fit.ranked_names[0] == "f1"

    def test_permutation_invariant(self):
        ds = binary_toy(seed=4)
        ranking = rank_rfe(ds)
        assert sorted(ranking.ranked_names) == sorted(ds.feature_names)

    def test_constant_feature_dropped_first(self):
        ds = binary_toy(width=3, informative=0, seed=5)
        ds.matrix[:, 2] = 0.0
        ranking = rank_rfe(ds)
        assert ranking.ranked_names[-1] == "f2"


@pytest.mark.parametrize("rank", [rank_rfe, rank_lasso])
@pytest.mark.parametrize("labels, found", [(["benign"], "benign"), (["dos", "clone"], "clone, dos")])
def test_linear_rankers_reject_one_class(rank, labels, found):
    ds = dataset_from(np.random.default_rng(9).uniform(0, 1, (60, 4)), labels * (60 // len(labels)))
    with pytest.raises(ValueError, match=f"needs both benign and attack rows; the training set holds only {found}$"):
        rank(ds)


class TestLasso:
    def test_noise_shrinks_before_signal(self):
        rng = np.random.default_rng(6)
        n = 200
        x1 = rng.uniform(0, 1, n)
        y = x1.copy()
        x2 = rng.uniform(0, 1, n)
        labels = ["benign" if v > 0.5 else "dos" for v in y]
        # y equals x1 exactly; x2 is noise
        ds = dataset_from(np.column_stack([x1, x2]), labels)
        ranking = rank_lasso(ds)
        assert ranking.ranked_names[0] == "f0"
        assert ranking.scores["f1"] < ranking.scores["f0"]

    def test_lambda_zero_limit_matches_least_squares(self):
        rng = np.random.default_rng(7)
        n = 150
        X = rng.uniform(0, 1, size=(n, 2))
        y = (X[:, 0] * 0.7 - X[:, 1] * 0.3 + 0.2 > 0.35).astype(float)
        labels = ["benign" if v else "dos" for v in y]
        ds = dataset_from(X, labels)
        from ddsids.featsel import _descend, _GramStats

        w, b, _ = _descend(_GramStats.from_xy(X, y), 0.0, np.zeros(2), float(y.mean()), max_iter=5000, tol=1e-13)
        A = np.column_stack([np.ones(n), X])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        assert abs(b - coef[0]) < 1e-6
        assert np.allclose(w, coef[1:], atol=1e-6)

    def test_duplicate_columns_deterministic(self):
        ds = binary_toy(width=3, informative=0, seed=8)
        ds.matrix[:, 1] = ds.matrix[:, 0]
        a = rank_lasso(ds)
        b = rank_lasso(ds)
        assert a.ranked_names == b.ranked_names
        # cyclic descent concentrates weight on the first duplicate
        assert a.ranked_names.index("f0") < a.ranked_names.index("f1")

    def test_nonzero_count_monotone_in_lambda(self):
        rng = np.random.default_rng(9)
        n, d = 200, 6
        X = rng.uniform(0, 1, size=(n, d))
        latent = X @ np.array([1.2, -0.8, 0.5, 0.0, 0.0, 0.0])
        labels = ["benign" if v > np.median(latent) else "dos" for v in latent]
        ds = dataset_from(X, labels)
        from ddsids.featsel import _GramStats, _path

        grid = np.sort(np.logspace(-4, 1, 30))[::-1]
        path = _path(_GramStats.from_xy(ds.matrix, ds.binary_labels()), grid)
        nonzero = [int(np.count_nonzero(w)) for w, _, _ in path]
        assert all(a <= b for a, b in zip(nonzero, nonzero[1:]))

    def test_all_zero_floor_error(self):
        ds = binary_toy(width=3, seed=10)
        with pytest.raises(ValueError, match="lambda_grid"):
            rank_lasso(ds, lambda_grid=[50.0, 100.0])

    def test_full_permutation(self):
        ds = binary_toy(width=5, seed=11)
        ranking = rank_lasso(ds)
        assert sorted(ranking.ranked_names) == sorted(ds.feature_names)

    def test_fits_stopped_at_the_sweep_cap_are_flagged(self):
        # Two identical columns that sit in a narrow band far from zero, and
        # so nearly on the intercept: coordinate descent crawls at small lambda.
        from ddsids.featsel import LASSO_MAX_SWEEPS, _GramStats, _path

        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (120, 4))
        X[:, 1] = X[:, 0] = 0.9 + 0.05 * rng.uniform(0, 1, 120)
        ds = dataset_from(X, ["benign" if v else "dos" for v in X[:, 0] + 0.02 * X[:, 2] > 0.925])
        ranking = rank_lasso(ds)
        ranked, _ = oracle_lasso.rank_lasso(ds.matrix, ds.binary_labels(), ds.feature_names)
        assert ranking.ranked_names == ranked
        grid = np.sort(np.logspace(-4, 1, 30))[::-1]
        capped = [lam for lam, (_, _, sweeps) in zip(grid, _path(_GramStats.from_xy(X, ds.binary_labels()), grid))
                  if sweeps == LASSO_MAX_SWEEPS]
        assert capped
        full = [entry for entry in ranking.flagged if entry.startswith("full path")]
        assert full == [f"full path, lambda {lam:g}: stopped at {LASSO_MAX_SWEEPS} sweeps" for lam in capped]
        assert any(entry.startswith("fold ") for entry in ranking.flagged)


def lasso_split(seed, n=150, width=6):
    """A small binary split whose label follows a sparse linear score."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, width))
    weights = rng.normal(0, 1, width) * (rng.uniform(0, 1, width) < 0.6)
    weights[0] = 1.0
    latent = X @ weights
    labels = ["benign" if v > np.median(latent) else "dos" for v in latent]
    return dataset_from(X, labels)


class TestLassoAgainstResidualOracle:
    """The covariance-update solver against the residual-form solver it
    replaced: same ranking, same coefficients up to rounding."""

    def assert_matches_oracle(self, ds, seed=0):
        ranking = rank_lasso(ds, seed=seed)
        ranked, scores = oracle_lasso.rank_lasso(ds.matrix, ds.binary_labels(), ds.feature_names, seed=seed)
        assert ranking.ranked_names == ranked
        for name in ds.feature_names:
            assert abs(ranking.scores[name] - scores[name]) <= 1e-9

    def test_duplicate_columns(self):
        ds = lasso_split(1)
        ds.matrix[:, 3] = ds.matrix[:, 1]
        self.assert_matches_oracle(ds)

    def test_constant_column(self):
        ds = lasso_split(2)
        ds.matrix[:, 0] = 0.0
        ds.matrix[:, 4] = 0.5
        self.assert_matches_oracle(ds, seed=3)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_random_split(self, seed):
        self.assert_matches_oracle(lasso_split(seed), seed=seed % 97)


class TestUnivariate:
    def test_identical_across_classes_scores_zero(self):
        ds = binary_toy(width=3, informative=1, seed=12)
        ds.matrix[:, 2] = 0.42
        ranking = rank_univariate(ds)
        assert ranking.scores["f2"] == 0.0
        assert ranking.ranked_names[-1] == "f2"

    def test_hand_computed_f_statistic(self):
        # two classes, n=100 each, means 0 and 1, within-variance 0.01
        rng = np.random.default_rng(13)
        n = 100
        a = rng.normal(0.0, 0.1, n)
        b = rng.normal(1.0, 0.1, n)
        x = np.concatenate([a, b])
        labels = ["benign"] * n + ["dos"] * n
        ds = dataset_from(x.reshape(-1, 1), labels, names=["x"])
        ranking = rank_univariate(ds)
        grand = x.mean()
        ssb = n * (a.mean() - grand) ** 2 + n * (b.mean() - grand) ** 2
        ssw = ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()
        f_direct = (ssb / 1) / (ssw / (2 * n - 2))
        assert ranking.scores["x"] == pytest.approx(f_direct, rel=1e-12)
        assert f_direct > 1000

    def test_zero_within_variance_sentinel(self):
        x = np.array([0.0] * 50 + [1.0] * 50)
        labels = ["benign"] * 50 + ["dos"] * 50
        ds = dataset_from(np.column_stack([x, np.random.default_rng(1).uniform(0, 1, 100)]), labels)
        ranking = rank_univariate(ds)
        assert ranking.scores["f0"] == F_SENTINEL
        assert ranking.ranked_names[0] == "f0"
        assert ranking.flagged == ["f0"]

    def test_affine_rescaling_invariance(self):
        ds = binary_toy(width=4, informative=2, seed=15)
        base = rank_univariate(ds)
        scaled = Dataset(
            matrix=ds.matrix * np.array([3.0, 0.5, 11.0, 2.0]) + np.array([1.0, -2.0, 0.0, 5.0]),
            labels=ds.labels,
            feature_names=ds.feature_names,
            shuffle_seed=0,
            norm_min=ds.norm_min,
            norm_max=ds.norm_max,
        )
        assert rank_univariate(scaled).ranked_names == base.ranked_names

    def test_multiclass_groups(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(0, 1, size=(150, 2))
        labels = ["benign"] * 50 + ["dos"] * 50 + ["clone"] * 50
        X[50:100, 0] += 2.0
        X[100:, 0] += 4.0
        ds = dataset_from(X, labels)
        assert rank_univariate(ds).ranked_names[0] == "f0"


class TestImportance:
    def test_sole_informative_feature_tops(self):
        ds = binary_toy(n=400, width=3, informative=1, seed=17)
        ranking = rank_importance(ds, trials=3, seed=1, epochs=60)
        assert ranking.ranked_names[0] == "f1"
        # destroying the only informative feature drags accuracy toward chance
        assert ranking.scores["f1"] > 0.25

    def test_constant_feature_drop_exactly_zero(self):
        ds = binary_toy(n=300, width=3, informative=0, seed=18)
        ds.matrix[:, 2] = 0.7
        ranking = rank_importance(ds, trials=4, seed=2, epochs=60)
        assert ranking.scores["f2"] == 0.0

    def test_redundant_copy_scores_below_unique(self):
        # label = u AND v; u is carried twice (f0 and its copy f1), v only by f2
        rng = np.random.default_rng(19)
        n = 600
        u = rng.integers(0, 2, size=n)
        v = rng.integers(0, 2, size=n)
        y = u & v
        a = u * 0.8 + 0.1 + rng.uniform(-0.05, 0.05, n)
        copy = a + rng.uniform(-0.02, 0.02, n)
        b = v * 0.8 + 0.1 + rng.uniform(-0.05, 0.05, n)
        X = np.column_stack([a, copy, b])
        labels = ["benign" if val else "dos" for val in y]
        ds = dataset_from(X, labels)
        ranking = rank_importance(ds, trials=5, seed=3, epochs=80)
        # permuting the copy is cushioned by its twin; the unique carrier is not
        assert ranking.scores["f1"] < ranking.scores["f2"]

    def test_hopeless_baseline_rejected(self):
        ds = binary_toy(n=200, width=3, seed=20)
        rng = np.random.default_rng(20)
        ds.matrix = rng.uniform(0, 1, ds.matrix.shape)  # pure noise
        with pytest.raises(ValueError, match="majority"):
            rank_importance(ds, trials=2, seed=4, epochs=5)

    @pytest.mark.parametrize("score", [0.5, 0.01])
    def test_constant_baseline_rejected(self, monkeypatch, score):
        # A constant predictor scores a balanced accuracy of exactly 0.5,
        # whichever class it names and however unequal the classes are.
        def constant(dataset, shape, config):
            weights = [np.zeros((a, b)) for a, b in zip(shape[:-1], shape[1:])]
            biases = [np.zeros(b) for b in shape[1:]]
            biases[-1][0] = np.log(score / (1 - score))
            return detector.DetectorModel(shape=list(shape), weights=weights, biases=biases)

        monkeypatch.setattr(detector, "train", constant)
        labels = ["benign"] * 150 + ["dos"] * 50
        ds = dataset_from(np.random.default_rng(2).uniform(0, 1, (200, 3)), labels)
        with pytest.raises(ValueError, match="balanced accuracy 0.500"):
            rank_importance(ds, trials=2, seed=4, epochs=5)

    def test_imbalanced_small_split_ranks(self):
        # Scale 0.2, seed 3, without addresses: 704 of 943 training rows are
        # benign, and the baseline's plain accuracy (0.699) is below the
        # majority share (0.737) although it separates the classes.
        plan = ExperimentPlan(seed=3, scale=0.2, ip_mode="none")
        train_ds, _, _ = build_datasets(plan, build_cache(plan), [], {})
        ranking = rank_importance(train_ds, trials=3, seed=3)
        assert sorted(ranking.ranked_names) == sorted(train_ds.feature_names)

    def test_deterministic(self):
        ds = binary_toy(n=250, width=3, informative=2, seed=21)
        a = rank_importance(ds, trials=3, seed=5, epochs=40)
        b = rank_importance(ds, trials=3, seed=5, epochs=40)
        assert a.ranked_names == b.ranked_names
        assert a.scores == b.scores


class TestSelect:
    def test_identity_projection(self):
        ds = binary_toy(width=4, seed=22)
        ranking = rank_univariate(ds)
        out = select(ds, ranking, 4)
        assert out.feature_names == ds.feature_names
        assert np.array_equal(out.matrix, ds.matrix)

    def test_projection_is_row_major(self):
        # A training batch gathers rows of the selected matrix.
        ds = binary_toy(width=6, seed=25)
        out = select(ds, rank_univariate(ds), 3)
        assert out.matrix.flags.c_contiguous
        assert np.array_equal(out.matrix, ds.matrix[:, [ds.feature_names.index(n) for n in out.feature_names]])

    def test_top_k_names(self):
        ds = binary_toy(width=6, seed=23)
        ranking = rank_univariate(ds)
        out = select(ds, ranking, 5)
        assert set(out.feature_names) == set(ranking.ranked_names[:5])
        assert out.matrix.shape == (ds.matrix.shape[0], 5)

    def test_norm_constants_carried(self):
        ds = binary_toy(width=4, seed=24)
        ds.norm_min = np.array([0.0, 1.0, 2.0, 3.0])
        ds.norm_max = np.array([1.0, 2.0, 3.0, 4.0])
        ranking = rank_univariate(ds)
        out = select(ds, ranking, 2)
        for name in out.feature_names:
            j_out = out.feature_names.index(name)
            j_in = ds.feature_names.index(name)
            assert out.norm_min[j_out] == ds.norm_min[j_in]
            assert out.norm_max[j_out] == ds.norm_max[j_in]

    def test_k_out_of_range(self):
        ds = binary_toy(width=3, seed=25)
        ranking = rank_univariate(ds)
        with pytest.raises(ValueError, match="out of range"):
            select(ds, ranking, 4)

    def test_reduction_factor_20_of_78(self):
        rng = np.random.default_rng(26)
        X = rng.uniform(0, 1, size=(60, 78))
        labels = ["benign" if i % 2 else "dos" for i in range(60)]
        ds = dataset_from(X, labels)
        out = select(ds, rank_univariate(ds), 20)
        assert out.width == 20
        assert 3.8 < ds.width / out.width < 4.0


class TestReports:
    def test_ranking_report_layout(self):
        ds = binary_toy(width=5, seed=27)
        rankings = [rank_lasso(ds), rank_rfe(ds), rank_univariate(ds)]
        text = ranking_report(rankings, top=5)
        lines = text.splitlines()
        assert lines[0].split() == ["lasso", "rfe", "univariate"]
        assert len(lines) == 2 + 5

    def test_scores_csv(self, tmp_path):
        ds = binary_toy(width=3, seed=28)
        ranking = rank_univariate(ds)
        path = tmp_path / "scores.csv"
        write_scores_csv(ranking, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "rank,feature,score"
        assert len(lines) == 4
