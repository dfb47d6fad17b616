import time
from dataclasses import replace

import numpy as np
import pytest

from ddsids import detector, evalcli, featsel, flowmeter, preprocess
from ddsids.evalcli import (
    ConfusionCounts,
    ExperimentPlan,
    build_cache,
    confusion_from,
    emit_histogram,
    main,
    metrics,
    randomize_sessions,
    run_experiment,
    scenario_configs,
)
from ddsids.preprocess import Dataset


SMALL_PLAN = ExperimentPlan(seed=5, scale=0.06, epochs=6)


class TestMetrics:
    def test_formula_on_clean_row(self):
        acc, det = metrics(ConfusionCounts(tp=3482, fp=0, tn=374, fn=0))
        assert (acc, det) == (100.0, 100.0)

    def test_rounding_against_fraction_oracle(self):
        from fractions import Fraction

        counts = ConfusionCounts(tp=3479, fp=3, tn=364, fn=10)
        acc, det = metrics(counts)
        acc_frac = Fraction(3479 + 364, 3479 + 3 + 364 + 10) * 100
        det_frac = Fraction(364, 374) * 100
        assert acc == round(float(acc_frac), 2) == 99.66
        assert det == round(float(det_frac), 2) == 97.33

    def test_detection_undefined_without_attacks(self):
        acc, det = metrics(ConfusionCounts(tp=10, fp=2, tn=0, fn=0))
        assert det is None
        assert acc == pytest.approx(83.33)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            metrics(ConfusionCounts(0, 0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConfusionCounts(-1, 0, 0, 0)

    def test_confusion_from_predictions(self):
        labels = ["benign", "benign", "dos", "clone", "malsub"]
        predicted_benign = np.array([True, False, False, True, False])
        counts = confusion_from(labels, predicted_benign)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 1, 2, 1)
        assert counts.benign_total == 2 and counts.attack_total == 3


class TestHistogram:
    def constant_model(self, score, width=3):
        shape = [width, width, width, width, 1]
        weights = [np.zeros((a, b)) for a, b in zip(shape[:-1], shape[1:])]
        biases = [np.zeros(b) for b in shape[1:]]
        biases[-1][0] = np.log(score / (1 - score))
        return detector.DetectorModel(shape=shape, weights=weights, biases=biases)

    def dataset(self, labels, width=3, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(
            matrix=rng.uniform(0, 1, size=(len(labels), width)),
            labels=list(labels),
            feature_names=[f"f{i}" for i in range(width)],
            shuffle_seed=0,
            norm_min=np.zeros(width),
            norm_max=np.ones(width),
        )

    def test_all_benign_perfect_model(self):
        ds = self.dataset(["benign"] * 40)
        rows = emit_histogram(self.constant_model(0.999), ds, bins=20)
        assert len(rows) == 20
        assert rows[-1][1] == 40  # expected mass in the top bin
        assert rows[-1][2] == 40  # predicted mass in the top bin
        assert sum(r[2] for r in rows) == 40

    def test_near_half_scores_hit_middle_band(self):
        ds = self.dataset(["benign"] * 10 + ["dos"] * 10)
        rows = emit_histogram(self.constant_model(0.52), ds, bins=20)
        middle = [r for r in rows if 0.4 <= r[0] < 0.6]
        assert sum(r[2] for r in middle) == 20
        assert rows[0][1] == 10 and rows[-1][1] == 10

    def test_empty_test_set_rejected(self):
        ds = self.dataset([])
        ds.matrix = np.zeros((0, 3))
        with pytest.raises(ValueError, match="empty"):
            emit_histogram(self.constant_model(0.5), ds)


def test_randomize_sessions_addresses():
    plan = ExperimentPlan(seed=2, scale=0.05)
    cache = build_cache(plan)
    out = randomize_sessions(cache.flows, seed=9)
    hosts = set(evalcli.SUBNET_HOSTS)
    for f in out:
        assert int(f.src_ip) in hosts and int(f.dst_ip) in hosts
        assert f.src_ip != f.dst_ip
    # features untouched
    for before, after in zip(cache.flows, out):
        assert before.features == after.features


class TestScenarioConfigs:
    def test_all_scenarios_present(self):
        configs = scenario_configs(ExperimentPlan(seed=1))
        assert set(configs) == {"benign", "dos", "clone", "malsub"}
        for cfg in configs.values():
            assert cfg.rng_seed != 0

    def test_scale_shrinks_counts(self):
        full = scenario_configs(ExperimentPlan(seed=1))
        small = scenario_configs(ExperimentPlan(seed=1, scale=0.1))
        assert small["dos"].relaunch_count < full["dos"].relaunch_count
        assert small["dos"].duration < full["dos"].duration

    def test_scenario_subset(self):
        configs = scenario_configs(ExperimentPlan(seed=1, scenarios=("benign", "dos")))
        assert set(configs) == {"benign", "dos"}


class TestExperimentPipeline:
    def test_small_experiment_report(self, tmp_path):
        report = run_experiment(SMALL_PLAN, out_dir=tmp_path / "exp")
        names = [r.name for r in report.rows]
        assert names == ["DoS", "Clone", "Malicious Subscriber", "SINGLE CNN", "ENSEMBLE"]
        for r in report.rows:
            assert r.counts.total > 0
            recomputed = metrics(r.counts)
            assert (r.accuracy, r.detection) == recomputed
        assert (tmp_path / "exp" / "report.txt").exists()
        assert (tmp_path / "exp" / "report.csv").exists()
        assert (tmp_path / "exp" / "timing.csv").exists()
        assert (tmp_path / "exp" / "dataset.manifest.json").exists()
        assert (tmp_path / "exp" / "models" / "expert-dos.model.txt").exists()
        assert (tmp_path / "exp" / "single.histogram.csv").exists()

    def test_report_bytes_deterministic(self):
        a = run_experiment(SMALL_PLAN)
        b = run_experiment(SMALL_PLAN)
        assert a.text() == b.text()
        assert a.csv() == b.csv()

    def test_ensemble_rows_match_union_property(self):
        report = run_experiment(SMALL_PLAN)
        ens = report.row("ENSEMBLE")
        experts = [report.row(n) for n in ("DoS", "Clone", "Malicious Subscriber")]
        assert ens.counts.tn <= sum(e.counts.tn for e in experts)
        assert ens.counts.fn <= min(e.counts.fn + (ens.counts.attack_total - e.counts.attack_total) for e in experts)

    def test_expert_only_plan(self):
        report = run_experiment(
            ExperimentPlan(seed=5, scale=0.06, epochs=4, model="expert:dos")
        )
        assert [r.name for r in report.rows] == ["DoS"]

    def test_total_time_covers_selection(self, monkeypatch):
        def slow_ranking(train_ds, method, seed, memo):
            time.sleep(0.2)
            return featsel.rank_univariate(train_ds)

        monkeypatch.setattr(evalcli, "compute_ranking", slow_ranking)
        report = run_experiment(replace(SMALL_PLAN, feature_k=5, model="expert:dos"))
        assert report.timing["total_s"] >= 0.2

    def test_ranking_reused_across_k(self, monkeypatch):
        calls = {}

        def counting(owner, name):
            fn = getattr(owner, name)

            def wrapped(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        for name in ("rank_lasso", "rank_rfe", "rank_univariate", "rank_importance"):
            counting(featsel, name)
        counting(evalcli, "compute_ranking")
        plan = replace(SMALL_PLAN, model="expert:dos")
        cache = build_cache(plan)
        reports = [run_experiment(replace(plan, feature_k=k), cache=cache) for k in (5, 20)]
        assert calls == {"rank_lasso": 1, "rank_rfe": 1, "rank_univariate": 1,
                         "rank_importance": 1, "compute_ranking": 2}
        assert len(cache.rankings) == 1
        assert [r.footnotes[-1] for r in reports] == [
            "projected to top-5 features by consensus", "projected to top-20 features by consensus"]

    def test_unknown_model_kind(self):
        with pytest.raises(ValueError, match="unknown model"):
            run_experiment(ExperimentPlan(seed=5, scale=0.06, model="mystery"))


class TestSweep:
    def test_ip_mode_sweep_and_probes(self, tmp_path):
        plan = SMALL_PLAN
        cache = build_cache(plan)
        reports, comparison = evalcli.sweep_ip_modes(plan, tmp_path, cache)
        assert set(reports) == {"both", "source_only", "destination_only", "none"}
        assert "# detection rate by address regime" in comparison
        assert "ordering both >= destination_only >= none" in comparison
        assert (tmp_path / "ip_mode_comparison.txt").exists()
        for mode in reports:
            assert (tmp_path / f"ip-{mode}" / "report.txt").exists()
        probes = evalcli.run_anonymize_probes(plan, cache=cache)
        assert set(probes) == {"shift", "switch", "randomize"}
        randomize_rows = [r.name for r in probes["randomize"].rows]
        assert "SINGLE CNN / Clone" in randomize_rows
        assert "SINGLE CNN / Malicious Subscriber" in randomize_rows

    def test_sweep_cli(self, tmp_path):
        rc = main([
            "sweep", "--seed", "5", "--scale", "0.06", "--epochs", "4",
            "--skip-anonymize", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "ip_mode_comparison.txt").exists()


class TestCli:
    def test_simulate_and_meter(self, tmp_path):
        out = tmp_path / "art"
        rc = main(["simulate", "--scenario", "dos", "--seed", "3", "--scale", "0.05", "--out-dir", str(out)])
        assert rc == 0
        packets = out / "dos.packets.csv"
        assert packets.exists()
        rc = main(["meter", "--packets", str(packets), "--out-dir", str(out)])
        assert rc == 0
        assert (out / "dos.flows.csv").exists()
        assert (out / "features.txt").exists()

    def test_full_cli_chain(self, tmp_path):
        out = tmp_path / "chain"
        for scenario in ("benign", "dos", "clone", "malsub"):
            assert main(["simulate", "--scenario", scenario, "--seed", "4", "--scale", "0.05", "--out-dir", str(out)]) == 0
            assert main(["meter", "--packets", str(out / f"{scenario}.packets.csv"), "--out-dir", str(out)]) == 0
        rc = main([
            "preprocess",
            "--flows", f"benign={out / 'benign.flows.csv'}",
            "--flows", f"dos={out / 'dos.flows.csv'}",
            "--flows", f"clone={out / 'clone.flows.csv'}",
            "--flows", f"malsub={out / 'malsub.flows.csv'}",
            "--split", "0.6",
            "--seed", "4",
            "--out-dir", str(out),
        ])
        assert rc == 0
        assert (out / "train.csv").exists() and (out / "dataset.manifest.json").exists()
        rc = main(["train", "--train", str(out / "train.csv"), "--epochs", "4", "--seed", "4", "--out-dir", str(out)])
        assert rc == 0
        rc = main(["evaluate", "--model", str(out / "model.txt"), "--test", str(out / "test.csv"), "--out-dir", str(out)])
        assert rc == 0
        rc = main(["select", "--train", str(out / "train.csv"), "--method", "univariate", "--k", "5", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "train.top5.csv").exists()

    def test_experiment_cli_writes_report(self, tmp_path):
        out = tmp_path / "exp"
        rc = main([
            "experiment", "--seed", "5", "--scale", "0.06", "--epochs", "4",
            "--model", "experts", "--out-dir", str(out),
        ])
        assert rc == 0
        assert (out / "report.txt").exists()

    def test_error_exit_code(self, tmp_path, capsys):
        rc = main(["meter", "--packets", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_env_out_dir_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(evalcli.OUT_DIR_ENV, str(tmp_path / "envout"))
        parser = evalcli.build_parser()
        args = parser.parse_args(["simulate", "--scenario", "benign"])
        assert str(tmp_path / "envout") == args.out_dir


def toy_dataset(n=300, width=6, seed=0):
    """Label follows feature f0; the other columns are noise."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = rng.uniform(0, 1, size=(n, width))
    X[:, 0] = y * 0.8 + 0.1 + rng.uniform(-0.05, 0.05, n)
    return Dataset(
        matrix=X,
        labels=["benign" if v else "dos" for v in y],
        feature_names=[f"f{i}" for i in range(width)],
        shuffle_seed=0,
        norm_min=np.zeros(width),
        norm_max=np.ones(width),
    )


def scores_order(path):
    return [line.split(",")[1].strip('"') for line in path.read_text().splitlines()[1:]]


class TestCliContracts:
    def test_select_seed_reaches_ranker(self, tmp_path):
        # The label thresholds f0 + f1 + f2, so the three carry similar
        # importance and their order depends on the permutation seed.
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(400, 5))
        ds = replace(toy_dataset(n=400, width=5), matrix=X,
                     labels=["benign" if v > 1.5 else "dos" for v in X[:, :3].sum(axis=1)])
        train = tmp_path / "train.csv"
        preprocess.write_dataset_csv(ds, train)
        orders = {}
        for seed in (0, 5):
            out = tmp_path / f"seed{seed}"
            rc = main(["select", "--train", str(train), "--method", "importance", "--k", "2",
                       "--seed", str(seed), "--out-dir", str(out)])
            assert rc == 0
            orders[seed] = scores_order(out / "scores-importance.csv")
        expected = featsel.rank_importance(preprocess.read_dataset_csv(train), seed=5)
        assert orders[5] == expected.ranked_names
        assert orders[5] != orders[0]

    def test_preprocess_rejects_unknown_label(self, tmp_path, capsys):
        flows = tmp_path / "dos.flows.csv"
        flowmeter.write_flow_csv([], flows)
        rc = main(["preprocess", "--flows", f"dso={flows}", "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ddsids:") and "'dso'" in err and "malsub" in err

    def trained(self, ds):
        return detector.train(ds, detector.default_shape(ds.width), detector.TrainConfig(epochs=5, seed=1))

    def test_evaluate_projects_onto_model_features(self, tmp_path, capsys):
        full = toy_dataset(seed=1)
        model = self.trained(full.project(["f4", "f0", "f2"]))
        test_csv = tmp_path / "test.csv"
        preprocess.write_dataset_csv(full, test_csv)
        view = preprocess.read_dataset_csv(test_csv).project(model.feature_names)
        ensemble = detector.EnsembleModel(experts={a: model for a in detector.EXPERT_ATTACKS})
        cases = {
            "single": (model, detector.classify(model, view.matrix)),
            "ensemble": (ensemble, detector.adjudicate(ensemble, view.matrix) == "benign"),
        }
        for name, (m, benign_pred) in cases.items():
            counts = confusion_from(view.labels, benign_pred)
            path = tmp_path / f"{name}.model.txt"
            detector.save_model(m, path)
            capsys.readouterr()
            rc = main(["evaluate", "--model", str(path), "--test", str(test_csv), "--out-dir", str(tmp_path / name)])
            assert rc == 0
            assert capsys.readouterr().out.startswith(
                f"tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn} ")
        hist = (tmp_path / "single" / "histogram.csv").read_text().splitlines()[1:]
        expected = emit_histogram(model, view)
        assert [tuple(int(c) for c in line.split(",")[1:]) for line in hist] == [(e, p) for _, e, p in expected]

    def test_evaluate_rejects_other_columns_of_the_same_width(self, tmp_path, capsys):
        full = toy_dataset(seed=2)
        path = tmp_path / "model.txt"
        detector.save_model(self.trained(full.project(["f0", "f1", "f2"])), path)
        test_csv = tmp_path / "test.csv"
        preprocess.write_dataset_csv(full.project(["f3", "f4", "f5"]), test_csv)
        rc = main(["evaluate", "--model", str(path), "--test", str(test_csv), "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ddsids:") and "f0, f1, f2" in err
