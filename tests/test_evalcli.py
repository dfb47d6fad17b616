import json
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from ddsids import detector, evalcli, featsel, flowmeter, parallel, preprocess, simnet
from ddsids.evalcli import (
    ConfusionCounts,
    ExperimentPlan,
    build_cache,
    confusion_from,
    emit_histogram,
    main,
    metrics,
    run_experiment,
    scenario_configs,
)
from ddsids.preprocess import Dataset
from records import records_of, side_table


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

    def test_confusion_from_no_rows(self):
        assert confusion_from([], np.array([], dtype=bool)) == ConfusionCounts(0, 0, 0, 0)


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
            norm_min=np.zeros(width),
            norm_max=np.ones(width),
        )

    def test_all_benign_perfect_model(self):
        ds = self.dataset(["benign"] * 40)
        rows = emit_histogram(self.constant_model(0.999), ds)
        assert len(rows) == 20
        assert rows[-1][1] == 40  # expected mass in the top bin
        assert rows[-1][2] == 40  # predicted mass in the top bin
        assert sum(r[2] for r in rows) == 40

    def test_near_half_scores_hit_middle_band(self):
        ds = self.dataset(["benign"] * 10 + ["dos"] * 10)
        rows = emit_histogram(self.constant_model(0.52), ds)
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
    rows = np.arange(len(cache.flows))
    sides = [preprocess.SplitSide.of(cache.flows, r) for r in (rows[:0], rows)]
    train, test, _ = preprocess.anonymize(*sides, "randomize", 9)
    assert len(train) == 0
    out = records_of(side_table(cache.flows, test))
    hosts = set(simnet.SUBNET_HOSTS)
    for f in out:
        assert int(f.src_ip) in hosts and int(f.dst_ip) in hosts
        assert f.src_ip != f.dst_ip
    # features untouched
    for before, after in zip(records_of(cache.flows), out):
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

    @pytest.mark.parametrize("attack", ["clone", "malsub"])
    def test_an_expert_alone_is_that_expert_of_all(self, tmp_path, attack):
        cache = build_cache(SMALL_PLAN)
        for model in ("all", f"expert:{attack}"):
            run_experiment(replace(SMALL_PLAN, model=model), tmp_path / model.replace(":", "-"), cache)
        alone, of_all = (tmp_path / d / "models" / f"expert-{attack}.model.txt" for d in (f"expert-{attack}", "all"))
        assert alone.read_bytes() == of_all.read_bytes()

    def test_stage_times_cover_the_run(self, tmp_path):
        plan = replace(SMALL_PLAN, feature_k=5, selection_method="univariate")
        report = run_experiment(plan, out_dir=tmp_path / "exp")
        stages = [f"{name}_s" for name in ("scenarios", "preprocess", "select", "train", "evaluate", "report")]
        assert sorted(report.timing) == sorted(stages + ["total_s"])
        lines = (tmp_path / "exp" / "timing.csv").read_text().splitlines()
        assert lines[0] == "stage,seconds"
        assert lines[1:] == [f"{k},{v:.3f}" for k, v in sorted(report.timing.items())]
        total = report.timing["total_s"]
        assert 0.9 * total <= sum(report.timing[s] for s in stages) <= total

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

        # In turn, so that every ranker call is counted here and not in a child.
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
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
        reports, comparison = evalcli.sweep_ip_modes(plan, cache, tmp_path)
        assert set(reports) == {"both", "source_only", "destination_only", "none"}
        assert "# detection rate by address regime" in comparison
        assert "ordering both >= destination_only >= none" in comparison
        assert (tmp_path / "ip_mode_comparison.txt").exists()
        for mode in reports:
            assert (tmp_path / f"ip-{mode}" / "report.txt").exists()
        probes = evalcli.run_anonymize_probes(plan, cache)
        assert set(probes) == {"shift", "switch", "randomize"}
        randomize_rows = [r.name for r in probes["randomize"].rows]
        assert "SINGLE CNN / Clone" in randomize_rows
        assert "SINGLE CNN / Malicious Subscriber" in randomize_rows

    def test_sweep_root_timing_records_the_shared_cache(self, tmp_path):
        rc = main(["sweep", "--seed", "5", "--scale", "0.06", "--epochs", "1", "--model", "expert:dos",
                   "--skip-anonymize", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "timing.csv").read_text().splitlines()
        assert lines[0] == "stage,seconds"
        assert [line.split(",")[0] for line in lines[1:]] == ["preprocess_s", "scenarios_s"]
        assert all(float(line.split(",")[1]) >= 0 for line in lines[1:])
        # Each regime's own timing has no cache stages: the cache was built once.
        regime = (tmp_path / "ip-none" / "timing.csv").read_text()
        assert "scenarios_s" not in regime and "train_s" in regime

    def test_sweep_cli(self, tmp_path):
        rc = main([
            "sweep", "--seed", "5", "--scale", "0.06", "--epochs", "4",
            "--skip-anonymize", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "ip_mode_comparison.txt").exists()


class TestPlanValidation:
    """A plan that cannot run is rejected when it is made, before any trace
    is simulated."""

    @pytest.mark.parametrize("change, message", [
        ({"model": "mystery"}, "unknown model kind"),
        ({"model": "expert:nobody"}, "unknown expert"),
        ({"epochs": detector.MAX_EPOCHS + 1}, "epochs must be at most 10000"),
        ({"anonymize": "scramble"}, "unknown anonymize spec"),
        ({"anonymize": "shift:one"}, "bad anonymize spec"),
        ({"anonymize": "shift:0"}, "shift_by"),
        ({"anonymize": "switch:5"}, "bad anonymize spec"),
        ({"anonymize": "switch:5,5"}, "distinct"),
        ({"selection_method": "pca"}, "unknown selection method"),
        ({"split_fraction": 0.0}, "split_fraction"),
        ({"split_fraction": 1.0}, "split_fraction"),
        ({"split_fraction": -0.5}, "split_fraction"),
        ({"feature_k": 0}, "feature_k"),
        ({"epochs": 0}, "epochs"),
        ({"seed": -1}, "seed must be non-negative"),
        ({"anonymize": "switch:5,99"}, r"outside the subnet hosts \[4, 5, 6\]: \[99\]"),
        ({"anonymize": "switch:2,4"}, r"outside the subnet hosts \[4, 5, 6\]: \[2\]"),
    ])
    def test_rejected_on_construction(self, change, message):
        with pytest.raises(ValueError, match=message):
            replace(SMALL_PLAN, **change)

    @pytest.mark.parametrize("spec", ["none", "shift:2", "switch:5,6", "randomize"])
    def test_known_anonymize_specs_accepted(self, spec):
        assert replace(SMALL_PLAN, anonymize=spec).anonymize == spec

    def test_cli_rejects_before_simulating(self, tmp_path, monkeypatch, capsys):
        def no_simulation(config):
            raise AssertionError("simulated a rejected plan")

        monkeypatch.setattr(simnet, "generate", no_simulation)
        for flag, value in (("--epochs", "0"), ("--epochs", "1000000000000"), ("--model", "mystery"), ("--k", "0"),
                            ("--k", "79"), ("--anonymize", "scramble")):
            rc = main(["experiment", "--seed", "5", "--scale", "0.06", flag, value, "--out-dir", str(tmp_path)])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("ddsids: error: ") and flag.lstrip("-") in err

    @pytest.mark.parametrize("spec, message", [
        ("scramble", "error: unknown anonymize spec 'scramble'; expected none, shift:<k>, switch:<a>,<b> or randomize"),
        ("shift:one", "error: bad anonymize spec 'shift:one': invalid literal for int() with base 10: 'one'"),
        ("shift:0", "error: bad anonymize spec 'shift:0': shift_by must be >= 1"),
        ("switch:5", "error: bad anonymize spec 'switch:5': not enough values to unpack (expected 2, got 1)"),
        ("switch:5,5", "error: bad anonymize spec 'switch:5,5': switch requires a pair of two distinct addresses"),
        ("switch:5,99", "error: switch pair addresses outside the subnet hosts [4, 5, 6]: [99]"),
    ])
    def test_cli_names_a_bad_anonymize_spec(self, tmp_path, capsys, spec, message):
        rc = main(["experiment", "--seed", "5", "--scale", "0.06", "--epochs", "1", "--anonymize", spec,
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"ddsids: {message}\n"
        assert not (tmp_path / "traces").exists()  # rejected before any scenario is simulated

    @pytest.mark.parametrize("verb", ["simulate", "preprocess", "select", "train", "experiment", "sweep"])
    def test_cli_rejects_a_negative_seed_by_name(self, verb, capsys):
        with pytest.raises(SystemExit) as exited:
            main([verb, "--seed", "-1"])
        assert exited.value.code == 2
        assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err


class TestCli:
    def test_train_rejects_zero_epochs(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.random((12, 3)), ["benign", "dos"] * 6, ["f0", "f1", "f2"], np.zeros(3), np.ones(3))
        preprocess.write_dataset_csv(ds, tmp_path / "train.csv")
        rc = main(["train", "--train", str(tmp_path / "train.csv"), "--epochs", "0", "--out-dir", str(tmp_path / "m")])
        assert rc == 1
        assert capsys.readouterr().err == "ddsids: error: --epochs must be at least 1\n"
        assert not (tmp_path / "m").exists()

    def test_train_rejects_epochs_past_the_ceiling_before_reading(self, tmp_path, capsys):
        # The training file does not exist: the ceiling is checked first.
        rc = main(["train", "--train", str(tmp_path / "missing.csv"), "--epochs", "1000000000000",
                   "--out-dir", str(tmp_path / "m")])
        assert rc == 1
        assert capsys.readouterr().err == "ddsids: error: epochs must be at most 10000, got 1000000000000\n"
        assert not (tmp_path / "m").exists()

    def test_train_names_the_shape_cell_it_cannot_read(self, tmp_path, capsys):
        rc = main(["train", "--train", str(tmp_path / "missing.csv"), "--shape", "5,x", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "ddsids: error: --shape cell 2: not an integer 'x'\n"

    def test_train_saves_a_given_four_hidden_layer_shape_that_evaluate_reads(self, tmp_path, capsys):
        # default_shape gives 3 hidden layers, so 4 come from --shape alone.
        rng = np.random.default_rng(0)
        ds = Dataset(rng.random((40, 3)), ["benign", "dos"] * 20, ["f0", "f1", "f2"], np.zeros(3), np.ones(3))
        preprocess.write_dataset_csv(ds, tmp_path / "train.csv")
        rc = main(["train", "--train", str(tmp_path / "train.csv"), "--shape", "3,3,3,2,2,1", "--epochs", "2",
                   "--out-dir", str(tmp_path / "m")])
        assert rc == 0
        assert (tmp_path / "m" / "model.txt").read_text().splitlines()[1] == "shape: 3 3 3 2 2 1"
        capsys.readouterr()
        rc = main(["evaluate", "--model", str(tmp_path / "m" / "model.txt"), "--test", str(tmp_path / "train.csv"),
                   "--out-dir", str(tmp_path / "e")])
        assert rc == 0
        assert capsys.readouterr().out.startswith("tp=")

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

    @pytest.mark.parametrize("flow, activity", [("nan", "nan"), ("nan", "5"), ("120", "nan")])
    def test_meter_rejects_nan_timeouts(self, tmp_path, capsys, flow, activity):
        # The timeouts are flowmeter constants: the options are usage errors.
        packets = tmp_path / "benign.packets.csv"
        simnet.write_packet_csv(simnet.generate(simnet.ScenarioConfig("benign", duration=2.0)), packets)
        with pytest.raises(SystemExit) as exited:
            main(["meter", "--packets", str(packets), "--flow-timeout", flow, "--activity-timeout", activity,
                  "--out-dir", str(tmp_path)])
        assert exited.value.code == 2
        assert "unrecognized arguments: --flow-timeout" in capsys.readouterr().err
        assert not (tmp_path / "benign.flows.csv").exists()

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

    def test_cli_preprocess_is_the_experiment_chain(self, tmp_path):
        # simulate -> meter -> preprocess over files must build the datasets
        # an experiment builds in memory for the same plan.
        plan = replace(SMALL_PLAN, model="single", epochs=1)
        chain, data, exp = tmp_path / "chain", tmp_path / "data", tmp_path / "exp"
        flow_args = []
        for scenario in simnet.SCENARIOS:
            assert main(["simulate", "--scenario", scenario, "--seed", str(plan.seed),
                         "--scale", str(plan.scale), "--out-dir", str(chain)]) == 0
            assert main(["meter", "--packets", str(chain / f"{scenario}.packets.csv"), "--out-dir", str(chain)]) == 0
            flow_args += ["--flows", f"{scenario}={chain / f'{scenario}.flows.csv'}"]
        assert main(["preprocess", *flow_args, "--split", str(plan.split_fraction),
                     "--seed", str(plan.seed * 1000 + 10), "--out-dir", str(data)]) == 0
        run_experiment(plan, exp)
        for name in ("train.csv", "test.csv"):
            assert (data / name).read_bytes() == (exp / name).read_bytes(), name
        cli, ref = (json.loads((d / "dataset.manifest.json").read_text()) for d in (data, exp))
        for key in ("label_rules", "dropped_columns", "feature_names", "constant_features", "normalization"):
            assert cli[key] == ref[key], key
        assert set(cli["label_rules"]) == {"dos", "clone", "malsub"}
        assert cli["dropped_columns"] == ["Flow ID", "Src Port", "Dst Port", "Start Time"]

    def test_cli_manifest_names_what_it_dropped(self, tmp_path):
        """Under every --ip-mode, the metadata columns of the flow file that
        the matrix leaves out, in the file's order."""
        out = tmp_path / "chain"
        assert main(["simulate", "--scenario", "dos", "--seed", "4", "--scale", "0.05", "--out-dir", str(out)]) == 0
        assert main(["meter", "--packets", str(out / "dos.packets.csv"), "--out-dir", str(out)]) == 0
        for ip_mode, dropped in (
            ("both", ["Flow ID", "Src Port", "Dst Port", "Start Time"]),
            ("source_only", ["Flow ID", "Src Port", "Dst IP", "Dst Port", "Start Time"]),
            ("destination_only", ["Flow ID", "Src IP", "Src Port", "Dst Port", "Start Time"]),
            ("none", ["Flow ID", "Src IP", "Src Port", "Dst IP", "Dst Port", "Start Time"]),
        ):
            data = out / ip_mode
            assert main(["preprocess", "--flows", f"dos={out / 'dos.flows.csv'}", "--ip-mode", ip_mode,
                         "--out-dir", str(data)]) == 0
            manifest = json.loads((data / "dataset.manifest.json").read_text())
            assert manifest["dropped_columns"] == dropped, ip_mode
            assert list(manifest["label_rules"]) == ["dos"]
            assert not set(manifest["dropped_columns"]) & set(manifest["feature_names"])
            assert set(manifest["dropped_columns"]) | set(manifest["feature_names"]) == set(
                flowmeter.METADATA_NAMES + flowmeter.FEATURE_NAMES)
            assert "Timestamp" in manifest["feature_names"]

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
        norm_min=np.zeros(width),
        norm_max=np.ones(width),
    )


def scenario_flows(tmp_path, scenario):
    """A flow file of the scenario's trace at scale 0.02."""
    path = tmp_path / f"{scenario}.flows.csv"
    config = scenario_configs(ExperimentPlan(seed=4, scale=0.02))[scenario]
    flowmeter.write_flow_csv(flowmeter.meter(simnet.generate(config)), path)
    return path


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

    @pytest.mark.parametrize("method", ["rfe", "importance"])
    def test_select_ranks_as_the_experiment_does(self, tmp_path, method):
        ds = toy_dataset(n=300, width=14, seed=3)
        train = tmp_path / "train.csv"
        preprocess.write_dataset_csv(ds, train)
        rc = main(["select", "--train", str(train), "--method", method, "--k", "5", "--seed", "4",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        expected = evalcli._RANKERS[method](preprocess.read_dataset_csv(train), 4)
        featsel.write_scores_csv(expected, tmp_path / "expected.csv")
        assert (tmp_path / f"scores-{method}.csv").read_text() == (tmp_path / "expected.csv").read_text()

    def test_simulate_config_reproduces_the_experiment_trace(self, tmp_path):
        exp = tmp_path / "exp"
        build_cache(ExperimentPlan(seed=11, scale=0.05), exp)
        config = exp / "traces" / "dos.config.txt"
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "same")]) == 0
        assert (tmp_path / "same" / "dos.packets.csv").read_bytes() == (exp / "traces" / "dos.packets.csv").read_bytes()
        assert main(["simulate", "--config", str(config), "--seed", "3", "--out-dir", str(tmp_path / "reseeded")]) == 0
        assert simnet.load_scenario_config(tmp_path / "reseeded" / "dos.config.txt").rng_seed == 3
        assert (tmp_path / "reseeded" / "dos.packets.csv").read_bytes() != (exp / "traces" / "dos.packets.csv").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["meter", "--packets", "p.csv", "--seed", "1"],
        ["evaluate", "--model", "m.txt", "--test", "t.csv", "--seed", "1"],
        ["experiment", "--config", "x"],
        # The meter's timeouts and the dataset's columns are constants.
        ["meter", "--packets", "p.csv", "--flow-timeout", "5"],
        ["preprocess", "--flows", "dos=f.csv", "--keep-ports"],
        ["preprocess", "--flows", "dos=f.csv", "--no-timestamp"],
    ])
    def test_options_a_verb_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["experiment", "sweep"])
    def test_bare_verb_runs_the_default_plan(self, verb):
        args = evalcli.build_parser().parse_args([verb])
        # The parser restates no plan default: an option not given is not parsed.
        assert not set(vars(args)) & {f.name for f in fields(ExperimentPlan)}
        assert evalcli._plan_from_args(args) == ExperimentPlan()

    def test_preprocess_rejects_a_nan_start_time(self, tmp_path, capsys):
        flows = tmp_path / "dos.flows.csv"
        assert main(["simulate", "--scenario", "dos", "--seed", "4", "--scale", "0.05", "--out-dir", str(tmp_path)]) == 0
        assert main(["meter", "--packets", str(tmp_path / "dos.packets.csv"), "--out-dir", str(tmp_path)]) == 0
        lines = flows.read_text().splitlines(keepends=True)
        cells = lines[5].split(",")
        cells[5] = '"nan"'
        lines[5] = ",".join(cells)
        flows.write_text("".join(lines))
        capsys.readouterr()
        rc = main(["preprocess", "--flows", f"dos={flows}", "--out-dir", str(tmp_path / "data")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"ddsids: error: {flows}: line 6, column 'Start Time': non-finite")
        assert not (tmp_path / "data" / "train.csv").exists()

    @pytest.mark.parametrize("spec", ["dos", "dos="])
    def test_preprocess_rejects_a_flows_value_without_a_path(self, tmp_path, capsys, spec):
        rc = main(["preprocess", "--flows", spec, "--out-dir", str(tmp_path / "data")])
        assert rc == 1
        assert capsys.readouterr().err == f"ddsids: error: --flows expects label=path, got {spec!r}\n"
        assert not (tmp_path / "data" / "train.csv").exists()

    def test_preprocess_rejects_a_repeated_label(self, tmp_path, capsys):
        flows = scenario_flows(tmp_path, "benign")
        rc = main(["preprocess", "--flows", f"benign={flows}", "--flows", f"benign={flows}",
                   "--out-dir", str(tmp_path / "data")])
        assert rc == 1
        assert capsys.readouterr().err == "ddsids: error: --flows gives the label 'benign' twice\n"
        assert not (tmp_path / "data" / "train.csv").exists()

    def test_preprocess_rejects_a_one_class_pool(self, tmp_path, capsys):
        flows = scenario_flows(tmp_path, "benign")
        rc = main(["preprocess", "--flows", f"benign={flows}", "--out-dir", str(tmp_path / "data")])
        assert rc == 1
        assert capsys.readouterr().err == ("ddsids: error: the pooled flows hold only benign; "
                                           "a split needs benign and attack flows\n")
        assert not (tmp_path / "data" / "train.csv").exists()

    @pytest.mark.parametrize("kept", ["header-only", "router-only"])
    def test_preprocess_rejects_a_pool_with_no_flows(self, tmp_path, capsys, kept):
        # Either every file holds no rows, or every row is a router session
        # (of the simulated scenarios only malsub has any).
        specs, written = [], 0
        for name in ("benign", "malsub"):
            flows = flowmeter.meter(simnet.generate(scenario_configs(ExperimentPlan(seed=4, scale=0.02))[name]))
            router = np.isin([int(a.rsplit(".", 1)[1]) for a in flows.addresses], simnet.ROUTER_HOSTS)
            rows = router[flows.src] | router[flows.dst] if kept == "router-only" else np.zeros(len(flows), bool)
            flowmeter.write_flow_csv(flows[rows], tmp_path / f"{name}.flows.csv")
            specs += ["--flows", f"{name}={tmp_path / f'{name}.flows.csv'}"]
            written += int(rows.sum())
        assert (written > 0) == (kept == "router-only")
        rc = main(["preprocess", *specs, "--out-dir", str(tmp_path / "data")])
        assert rc == 1
        assert capsys.readouterr().err == ("ddsids: error: the pooled flows hold no flows; "
                                           "a split needs benign and attack flows\n")
        assert not (tmp_path / "data" / "train.csv").exists()

    def test_preprocess_rejects_a_split_with_no_test_rows(self, tmp_path, capsys):
        flows = [f"{name}={scenario_flows(tmp_path, name)}" for name in ("benign", "dos")]
        rc = main(["preprocess", "--flows", flows[0], "--flows", flows[1], "--split", "0.9999999",
                   "--out-dir", str(tmp_path / "data")])
        assert rc == 1
        assert capsys.readouterr().err == "ddsids: error: split leaves no test rows\n"
        assert not (tmp_path / "data" / "test.csv").exists()

    @pytest.mark.parametrize("multiline_id", [False, True])
    def test_preprocess_names_a_flow_outside_the_subnet(self, tmp_path, capsys, multiline_id):
        paths = {name: scenario_flows(tmp_path, name) for name in ("benign", "dos")}
        lines = paths["dos"].read_text().splitlines(keepends=True)
        n = next(i for i, line in enumerate(lines) if '"10.0.5.6"' in line)
        lines[n] = lines[n].replace('"10.0.5.6"', '"10.0.6.6"', 1)
        if multiline_id:
            # The first flow's quoted Flow ID runs on over a newline, so the later rows start a line further on.
            assert n > 1
            lines[1] = lines[1].replace('",', '\nid",', 1)
            n += 1
        paths["dos"].write_text("".join(lines))
        rc = main(["preprocess", *(f"--flows={name}={path}" for name, path in paths.items()),
                   "--out-dir", str(tmp_path / "data")])
        assert rc == 1
        assert capsys.readouterr().err == (f"ddsids: error: {paths['dos']}: line {n + 1}: address 10.0.6.6 is outside "
                                           "the subnet 10.0.5 of the first non-router flow's source; "
                                           "mixed subnets cannot be octet-encoded\n")
        assert not (tmp_path / "data" / "train.csv").exists()

    def test_preprocess_rejects_unknown_label(self, tmp_path, capsys):
        flows = tmp_path / "dos.flows.csv"
        flowmeter.write_flow_csv(flowmeter.FlowTable.empty(), flows)
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
            "ensemble": (ensemble, detector.classify(ensemble, view.matrix)),
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

    @pytest.mark.parametrize("kind", ["single", "ensemble"])
    def test_evaluate_rejects_a_test_set_with_no_rows(self, tmp_path, capsys, kind):
        full = toy_dataset(seed=3)
        model = self.trained(full)
        if kind == "ensemble":
            model = detector.EnsembleModel(experts={a: model for a in detector.EXPERT_ATTACKS})
        path, test_csv = tmp_path / "model.txt", tmp_path / "test.csv"
        detector.save_model(model, path)
        preprocess.write_dataset_csv(full, test_csv)
        test_csv.write_text(test_csv.read_text().splitlines(keepends=True)[0])  # the header alone
        rc = main(["evaluate", "--model", str(path), "--test", str(test_csv), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"ddsids: error: {test_csv}: the test set holds no rows\n"

    @pytest.mark.parametrize("extra, flag", [(["--scenario", "benign"], "--scenario"), (["--scale", "0.5"], "--scale")])
    def test_simulate_config_rejects_what_the_file_sets(self, tmp_path, capsys, extra, flag):
        config = tmp_path / "dos.config.txt"
        simnet.save_scenario_config(scenario_configs(SMALL_PLAN)["dos"], config)
        with pytest.raises(SystemExit) as exited:
            main(["simulate", "--config", str(config), *extra, "--out-dir", str(tmp_path / "out")])
        assert exited.value.code == 2
        assert f"argument {flag}: not allowed with argument --config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_select_all_rejects_k(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        preprocess.write_dataset_csv(toy_dataset(), train)
        with pytest.raises(SystemExit) as exited:
            main(["select", "--train", str(train), "--method", "all", "--k", "3", "--out-dir", str(tmp_path / "out")])
        assert exited.value.code == 2
        assert "argument --k: not allowed with argument --method all" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k", [0, 7])
    def test_select_checks_k_before_ranking(self, tmp_path, capsys, k):
        train = tmp_path / "train.csv"
        preprocess.write_dataset_csv(toy_dataset(width=6), train)
        out = tmp_path / "out"
        rc = main(["select", "--train", str(train), "--method", "univariate", "--k", str(k), "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"ddsids: error: k={k} out of range 1..6\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("method", ["rfe", "lasso", "univariate", "importance"])
    def test_select_rejects_a_one_class_training_set(self, tmp_path, capsys, method):
        train = tmp_path / "train.csv"
        preprocess.write_dataset_csv(replace(toy_dataset(n=200), labels=["benign"] * 200), train)
        out = tmp_path / "out"
        rc = main(["select", "--train", str(train), "--method", method, "--k", "3", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("ddsids: ") and err.count("\n") == 1
        assert method not in ("rfe", "lasso") or "the training set holds only benign" in err
        assert list(out.iterdir()) == []

    def test_select_keeps_twenty_by_default(self, tmp_path):
        train = tmp_path / "train.csv"
        preprocess.write_dataset_csv(toy_dataset(width=24), train)
        assert main(["select", "--train", str(train), "--out-dir", str(tmp_path)]) == 0
        assert preprocess.read_dataset_csv(tmp_path / "train.top20.csv").width == 20


def test_python_m_ddsids_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(evalcli.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "ddsids", "--help"], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.startswith("usage: ddsids")
