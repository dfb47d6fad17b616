"""One dataset manifest definition for `experiment` and `ddsids preprocess`."""

import json
import os
import platform
from dataclasses import replace

import numpy as np

from ddsids import featsel, flowmeter, preprocess, simnet
from ddsids.evalcli import ExperimentPlan, build_cache, build_datasets, main, run_experiment
from ddsids.preprocess import read_dataset_csv


def test_experiment_and_cli_manifests_carry_the_same_keys(tmp_path):
    plan = ExperimentPlan(seed=5, scale=0.06, epochs=1, model="single")
    chain, data, exp = tmp_path / "chain", tmp_path / "data", tmp_path / "exp"
    flow_args = []
    for scenario in plan.scenarios:
        assert main(["simulate", "--scenario", scenario, "--seed", str(plan.seed), "--scale", str(plan.scale),
                     "--out-dir", str(chain)]) == 0
        assert main(["meter", "--packets", str(chain / f"{scenario}.packets.csv"), "--out-dir", str(chain)]) == 0
        flow_args += ["--flows", f"{scenario}={chain / f'{scenario}.flows.csv'}"]
    assert main(["preprocess", *flow_args, "--split", str(plan.split_fraction),
                 "--seed", str(plan.seed * 1000 + 10), "--out-dir", str(data)]) == 0
    run_experiment(plan, exp)
    cli, ref = (json.loads((d / "dataset.manifest.json").read_text()) for d in (data, exp))
    assert set(cli) == set(ref)
    assert cli["router_sessions_removed"] == ref["router_sessions_removed"] > 0
    assert cli["notes"] == ref["notes"] and len(ref["notes"]) == 2  # the clone and malsub rules
    for split in ("train", "test"):
        counts = read_dataset_csv(data / f"{split}.csv").class_counts()
        assert cli["rows_per_label"][split] == ref["rows_per_label"][split] == counts
        assert set(counts) == {"benign", "dos", "clone", "malsub"}


def test_manifest_records_the_runtime_environment(tmp_path):
    flows = tmp_path / "dos.flows.csv"
    trace = simnet.generate(simnet.ScenarioConfig("dos", duration=10.0, relaunch_count=5, rng_seed=2))
    flowmeter.write_flow_csv(preprocess.label_scenario("dos", flowmeter.meter(trace))[0], flows)
    assert main(["preprocess", "--flows", f"dos={flows}", "--split", "0.5", "--out-dir", str(tmp_path)]) == 0
    environment = json.loads((tmp_path / "dataset.manifest.json").read_text())["environment"]
    assert environment["python"] == platform.python_version() and environment["numpy"] == np.__version__
    assert set(environment["blas"]) == {"name", "version"}
    assert environment["openblas_core"] is None or isinstance(environment["openblas_core"], str)
    assert environment["cpus"] == len(os.sched_getaffinity(0))
    assert environment == preprocess.runtime_environment()


def test_experiment_manifest_records_the_selection(tmp_path):
    plan = ExperimentPlan(seed=5, scale=0.06, epochs=1, model="single", selection_method="lasso")
    cache = build_cache(plan)
    train_ds, _, ranking = build_datasets(plan, cache, [], {})
    assert ranking is None
    flagged = featsel.rank_lasso(train_ds, seed=plan.seed).flagged
    run_experiment(replace(plan, feature_k=5), tmp_path, cache)
    manifest = json.loads((tmp_path / "dataset.manifest.json").read_text())
    assert manifest["selection"] == {"method": "lasso", "k": 5, "flagged": len(flagged)}
