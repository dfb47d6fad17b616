from dataclasses import replace

import numpy as np
import pytest

from ddsids import detector
from ddsids.detector import (
    DetectorModel,
    EnsembleModel,
    TrainConfig,
    adjudicate,
    bce_loss,
    default_shape,
    load_model,
    loss_and_gradients,
    predict,
    save_model,
    train,
    validate_shape,
    write_training_log,
)
from ddsids.preprocess import Dataset


def toy_dataset(n=200, seed=0, width=2, separable=True):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, width))
    if separable:
        # keep a margin around the boundary so separability is strict
        X[:, 0] = np.where(X[:, 0] > 0.5, 0.55 + 0.45 * (X[:, 0] - 0.5) / 0.5, 0.45 * X[:, 0] / 0.5)
        y = X[:, 0] > 0.5
    else:
        y = rng.uniform(size=n) > 0.5
    labels = ["benign" if v else "dos" for v in y]
    return Dataset(
        matrix=X,
        labels=labels,
        feature_names=[f"f{i}" for i in range(width)],
        shuffle_seed=seed,
        norm_min=np.zeros(width),
        norm_max=np.ones(width),
    )


def small_shape(width):
    return [width, width, width, width, 1]


def random_model(shape, seed=1):
    rng = np.random.default_rng(seed)
    weights = [rng.normal(0, 0.5, size=(a, b)) for a, b in zip(shape[:-1], shape[1:])]
    biases = [rng.normal(0, 0.1, size=b) for b in shape[1:]]
    return DetectorModel(shape=list(shape), weights=weights, biases=biases)


class TestShapeValidation:
    def test_reference_shapes_accepted(self):
        assert validate_shape([78, 78, 64, 39, 1]) == []
        assert validate_shape([78, 78, 39, 18, 1]) == []

    def test_multiple_violations_reported(self):
        violations = validate_shape([78, 39, 64, 1])
        text = " / ".join(violations)
        assert "hidden layer count" in text
        assert "widens" in text
        assert len(violations) == 2

    def test_output_width(self):
        violations = validate_shape([78, 64, 39, 18, 3])
        assert any("output layer" in v for v in violations)

    def test_positive_widths(self):
        assert any("positive" in v for v in validate_shape([78, 0, 39, 18, 1]))

    def test_mutated_shapes_rejected(self):
        rng = np.random.default_rng(5)
        rejected = 0
        for _ in range(20):
            kind = rng.integers(3)
            if kind == 0:  # width increase somewhere after input
                widths = [78, 78, 64, 39, 1]
                i = int(rng.integers(1, 4))
                widths[i] = widths[i - 1] + int(rng.integers(1, 30))
                expect = "widens"
            elif kind == 1:  # two hidden layers
                widths = [78, 64, 32, 1]
                expect = "hidden layer count"
            else:  # six hidden layers
                widths = [78, 78, 70, 64, 50, 39, 18, 1]
                expect = "hidden layer count"
            violations = validate_shape(widths)
            assert violations and any(expect in v for v in violations)
            rejected += 1
        assert rejected == 20

    def test_default_shape_valid(self):
        for width in (5, 10, 20, 78, 80, 82):
            assert validate_shape(default_shape(width)) == []
            assert default_shape(width)[0] == width


class TestTraining:
    def test_linearly_separable_converges(self):
        ds = toy_dataset(n=300, seed=1)
        model = train(ds, small_shape(2), TrainConfig(epochs=200, seed=3, holdout_fraction=0.2))
        acc = model.holdout_accuracy[-1]
        assert acc == 1.0

    def test_determinism(self):
        ds = toy_dataset(n=120, seed=2)
        a = train(ds, small_shape(2), TrainConfig(epochs=30, seed=9))
        b = train(ds, small_shape(2), TrainConfig(epochs=30, seed=9))
        assert a.loss_curve == b.loss_curve
        assert all(np.array_equal(w1, w2) for w1, w2 in zip(a.weights, b.weights))

    def test_single_class_rejected(self):
        ds = toy_dataset(n=50, seed=3)
        ds.labels = ["benign"] * len(ds.labels)
        with pytest.raises(ValueError, match="single class"):
            train(ds, small_shape(2), TrainConfig(epochs=1))

    def test_invalid_shape_rejected(self):
        ds = toy_dataset()
        with pytest.raises(ValueError, match="hidden layer count"):
            train(ds, [2, 2, 1], TrainConfig(epochs=1))

    def test_width_mismatch_rejected(self):
        ds = toy_dataset(width=3)
        with pytest.raises(ValueError, match="width"):
            train(ds, small_shape(2), TrainConfig(epochs=1))

    def test_loss_curve_recorded(self):
        ds = toy_dataset(n=80, seed=4)
        model = train(ds, small_shape(2), TrainConfig(epochs=12, seed=1))
        assert len(model.loss_curve) == 12
        assert len(model.holdout_accuracy) == 12
        assert all(np.isfinite(model.loss_curve))

    def test_training_log(self, tmp_path):
        ds = toy_dataset(n=60, seed=4)
        model = train(ds, small_shape(2), TrainConfig(epochs=3, seed=1))
        path = tmp_path / "log.csv"
        write_training_log(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,holdout_accuracy"
        assert len(lines) == 4


class TestGradients:
    def gradcheck(self, model, X, y, rel_tol=1e-4, h=1e-6):
        loss, gW, gb = loss_and_gradients(model, X, y)

        def numeric(get, set_):
            orig = get()
            set_(orig + h)
            up = bce_loss(model, X, y)
            set_(orig - h)
            down = bce_loss(model, X, y)
            set_(orig)
            return (up - down) / (2 * h)

        for li in range(len(model.weights)):
            analytic = gW[li]
            numeric_grad = np.zeros_like(analytic)
            W = model.weights[li]
            for i in range(W.shape[0]):
                for j in range(W.shape[1]):
                    def setter(v, i=i, j=j, W=W):
                        W[i, j] = v
                    numeric_grad[i, j] = numeric(lambda i=i, j=j, W=W: W[i, j], setter)
            denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric_grad), 1e-12)
            assert np.linalg.norm(analytic - numeric_grad) / denom < rel_tol
            b = model.biases[li]
            nb = np.zeros_like(b)
            for j in range(b.shape[0]):
                def bset(v, j=j, b=b):
                    b[j] = v
                nb[j] = numeric(lambda j=j, b=b: b[j], bset)
            denom = max(np.linalg.norm(gb[li]), np.linalg.norm(nb), 1e-12)
            assert np.linalg.norm(gb[li] - nb) / denom < rel_tol

    def test_small_dense_model(self):
        rng = np.random.default_rng(11)
        model = random_model([4, 4, 3, 2, 1], seed=2)
        X = rng.uniform(0, 1, size=(5, 4))
        y = rng.integers(0, 2, size=5).astype(float)
        self.gradcheck(model, X, y)


class TestPrediction:
    def test_zero_weight_model_scores_half(self):
        shape = [3, 3, 2, 2, 1]
        model = DetectorModel(
            shape=shape,
            weights=[np.zeros((a, b)) for a, b in zip(shape[:-1], shape[1:])],
            biases=[np.zeros(b) for b in shape[1:]],
        )
        scores = predict(model, np.random.default_rng(0).uniform(0, 1, (7, 3)))
        assert np.all(scores == 0.5)

    def test_scores_strictly_inside_unit_interval(self):
        model = random_model([4, 4, 3, 2, 1], seed=8)
        X = np.random.default_rng(1).uniform(-50, 50, size=(100, 4))
        scores = predict(model, X)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_width_mismatch_rejected(self):
        model = random_model([4, 4, 3, 2, 1])
        with pytest.raises(ValueError, match="width"):
            predict(model, np.zeros((2, 5)))

    def test_monotone_in_positive_weight_input(self):
        # hand-built: single input passes straight through relu layers
        shape = [1, 1, 1, 1, 1]
        model = DetectorModel(
            shape=shape,
            weights=[np.ones((1, 1)) for _ in range(4)],
            biases=[np.zeros(1) for _ in range(4)],
        )
        xs = np.linspace(0.1, 3.0, 10).reshape(-1, 1)
        scores = predict(model, xs)
        assert np.all(np.diff(scores) > 0)


class TestAdjudication:
    def constant_model(self, score):
        # zero weights, output bias set to the logit of the wanted score
        shape = [2, 2, 2, 2, 1]
        weights = [np.zeros((a, b)) for a, b in zip(shape[:-1], shape[1:])]
        biases = [np.zeros(b) for b in shape[1:]]
        biases[-1][0] = np.log(score / (1 - score))
        return DetectorModel(shape=shape, weights=weights, biases=biases)

    def ensemble(self, s_dos, s_clone, s_malsub):
        return EnsembleModel(
            experts={
                "dos": self.constant_model(s_dos),
                "clone": self.constant_model(s_clone),
                "malsub": self.constant_model(s_malsub),
            }
        )

    def test_one_attack_vote_suffices(self):
        ens = self.ensemble(0.9, 0.9, 0.2)
        assert adjudicate(ens, np.zeros((1, 2)))[0] == "attack"

    def test_unanimous_benign(self):
        ens = self.ensemble(0.9, 0.9, 0.9)
        assert adjudicate(ens, np.zeros((1, 2)))[0] == "benign"

    def test_missing_expert_rejected(self):
        with pytest.raises(ValueError, match="experts"):
            EnsembleModel(experts={"dos": self.constant_model(0.9)})

    def test_experts_must_agree_on_feature_names(self):
        experts = {a: self.constant_model(0.9) for a in ("dos", "clone", "malsub")}
        experts["clone"] = replace(experts["clone"], feature_names=["a", "b"])
        with pytest.raises(ValueError, match="feature names"):
            EnsembleModel(experts=experts)

    def test_union_identity_on_random_triples(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            scores = rng.uniform(0.01, 0.99, 3)
            ens = self.ensemble(*scores)
            verdict = adjudicate(ens, np.zeros((1, 2)))[0]
            expert_flags = [s < 0.5 for s in scores]
            assert (verdict == "attack") == any(expert_flags)


class TestSaveLoad:
    def test_round_trip_bitwise(self, tmp_path):
        ds = toy_dataset(n=150, seed=6)
        model = train(ds, small_shape(2), TrainConfig(epochs=15, seed=4))
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        X = np.random.default_rng(2).uniform(0, 1, (40, 2))
        assert np.array_equal(predict(model, X), predict(back, X))
        assert back.shape == model.shape
        assert back.loss_curve == model.loss_curve
        assert np.array_equal(back.norm_min, model.norm_min)

    @pytest.mark.parametrize("line, other", [
        ("hidden_activation: relu", "hidden_activation: tanh"),
        ("conv: -", "conv: " + " ".join(float(v).hex() for v in (0.1, 0.2, 0.3, 0.0))),
    ])
    def test_fixed_fields_checked(self, tmp_path, capsys, line, other):
        from ddsids.evalcli import main

        path = tmp_path / "model.txt"
        save_model(random_model([3, 3, 2, 2, 1], seed=3), path)
        assert line + "\n" in path.read_text()
        path.write_text(path.read_text().replace(line, other))
        with pytest.raises(ValueError, match="unsupported " + line.split(":")[0]):
            load_model(path)
        rc = main(["evaluate", "--model", str(path), "--test", str(tmp_path / "test.csv"), "--out-dir", str(tmp_path)])
        assert rc == 1 and capsys.readouterr().err.startswith("ddsids: error:")

    def test_truncated_file_rejected(self, tmp_path):
        ds = toy_dataset(n=60, seed=7)
        model = train(ds, small_shape(2), TrainConfig(epochs=2, seed=4))
        path = tmp_path / "model.txt"
        save_model(model, path)
        content = path.read_text()
        (tmp_path / "cut.txt").write_text(content[: len(content) // 2])
        with pytest.raises(ValueError, match="truncated|values|layer"):
            load_model(tmp_path / "cut.txt")

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "weird.txt"
        path.write_text("ddsids-model v99\n")
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_ensemble_round_trip(self, tmp_path):
        ds = toy_dataset(n=100, seed=8)
        experts = {
            a: train(ds, small_shape(2), TrainConfig(epochs=4, seed=i))
            for i, a in enumerate(("dos", "clone", "malsub"))
        }
        ens = EnsembleModel(experts=experts, threshold=0.5)
        path = tmp_path / "ens.txt"
        save_model(ens, path)
        back = load_model(path)
        assert isinstance(back, EnsembleModel)
        X = np.random.default_rng(4).uniform(0, 1, (25, 2))
        assert np.array_equal(adjudicate(ens, X), adjudicate(back, X))

    def test_norm_constants_match_dataset(self, tmp_path):
        ds = toy_dataset(n=80, seed=9)
        ds.norm_min = np.array([1.5, -2.0])
        ds.norm_max = np.array([9.5, 4.0])
        model = train(ds, small_shape(2), TrainConfig(epochs=2, seed=4))
        path = tmp_path / "m.txt"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.norm_min, ds.norm_min)
        assert np.array_equal(back.norm_max, ds.norm_max)
