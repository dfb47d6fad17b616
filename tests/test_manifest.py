"""One dataset manifest definition for `experiment` and `ddsids preprocess`."""

import json
import os
import platform
from dataclasses import replace

import numpy as np

from ddsids import featsel, flowmeter, preprocess, simnet
from ddsids.evalcli import ExperimentPlan, build_cache, build_datasets, main, run_experiment
from ddsids.preprocess import read_dataset_csv


# Each attack scenario's label rule as a manifest records it, and the note of
# a rule outside the documented reliable set.
MANIFEST_RULES = {
    "dos": {"attack_label": "dos", "directionality": "bidirectional", "malicious_octet": 6},
    "clone": {"attack_label": "clone", "directionality": "source_only", "malicious_octet": 6},
    "malsub": {"attack_label": "malsub", "directionality": "bidirectional", "malicious_octet": 6},
}
CLONE_NOTE = "labeling combination clone/source_only is outside the documented reliable set"
MALSUB_NOTE = "labeling combination malsub/bidirectional is outside the documented reliable set"
PLAN = ExperimentPlan(seed=5, scale=0.06, epochs=1, model="single")


def flow_args(chain, scenarios) -> list[str]:
    """`--flows` arguments for the scenarios' traces, simulated and metered
    into `chain` by the CLI at PLAN's seed and scale, in the order given."""
    args = []
    for scenario in scenarios:
        assert main(["simulate", "--scenario", scenario, "--seed", str(PLAN.seed), "--scale", str(PLAN.scale),
                     "--out-dir", str(chain)]) == 0
        assert main(["meter", "--packets", str(chain / f"{scenario}.packets.csv"), "--out-dir", str(chain)]) == 0
        args += ["--flows", f"{scenario}={chain / f'{scenario}.flows.csv'}"]
    return args


def test_experiment_and_cli_manifests_carry_the_same_keys(tmp_path):
    chain, data, exp = tmp_path / "chain", tmp_path / "data", tmp_path / "exp"
    assert main(["preprocess", *flow_args(chain, simnet.SCENARIOS), "--split", str(PLAN.split_fraction),
                 "--seed", str(PLAN.seed * 1000 + 10), "--out-dir", str(data)]) == 0
    run_experiment(PLAN, exp)
    cli, ref = (json.loads((d / "dataset.manifest.json").read_text()) for d in (data, exp))
    assert set(cli) == set(ref)
    assert cli["router_sessions_removed"] == ref["router_sessions_removed"] > 0
    assert cli["label_rules"] == ref["label_rules"] == MANIFEST_RULES
    assert cli["notes"] == ref["notes"] == [CLONE_NOTE, MALSUB_NOTE]
    assert cli["scenarios"] == ref["scenarios"]
    assert [s["name"] for s in ref["scenarios"]] == list(simnet.SCENARIOS)
    for s in ref["scenarios"]:
        assert s["packets"] == len(simnet.read_packet_csv(chain / f"{s['name']}.packets.csv"))
        assert s["flows"] == len(flowmeter.read_flow_csv(chain / f"{s['name']}.flows.csv"))
    for split in ("train", "test"):
        counts = read_dataset_csv(data / f"{split}.csv").class_counts()
        assert cli["rows_per_label"][split] == ref["rows_per_label"][split] == counts
        assert set(counts) == {"benign", "dos", "clone", "malsub"}


def test_cli_manifest_rules_and_notes_follow_the_flows_order(tmp_path):
    args = flow_args(tmp_path / "chain", ("malsub", "benign", "clone"))
    assert main(["preprocess", *args, "--out-dir", str(tmp_path / "data")]) == 0
    manifest = json.loads((tmp_path / "data" / "dataset.manifest.json").read_text())
    assert manifest["label_rules"] == {name: MANIFEST_RULES[name] for name in ("malsub", "clone")}
    assert manifest["notes"] == [MALSUB_NOTE, CLONE_NOTE]
    assert [s["name"] for s in manifest["scenarios"]] == ["malsub", "benign", "clone"]


def test_manifest_records_the_runtime_environment(tmp_path):
    flows = tmp_path / "dos.flows.csv"
    trace = simnet.generate(simnet.ScenarioConfig("dos", duration=10.0, relaunch_count=5, rng_seed=2))
    flowmeter.write_flow_csv(preprocess.label_scenario("dos", flowmeter.meter(trace)), flows)
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
