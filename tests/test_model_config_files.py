"""Model files and scenario configs: the two files that leave the pipeline and
come back in.  Each is written and read through one declaration of its
layout, so saving what was loaded gives the same bytes, and every file the
readers reject is named by path, line and field."""

import contextlib
import io
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ddsids import detector, flowmeter, simnet
from ddsids.detector import DetectorModel, EnsembleModel, load_model, save_model
from ddsids.evalcli import ExperimentPlan, main, scenario_configs
from ddsids.preprocess import Dataset, write_dataset_csv
from ddsids.simnet import ScenarioConfig, load_scenario_config, save_scenario_config
from test_reader_equivalence import ODD_CELLS

NAMES = ["f0", "f1", "f2"]


def model(seed: int = 1) -> DetectorModel:
    """A [3, 3, 2, 2, 1] model as training leaves one: names and curves (a NaN
    holdout accuracy, as a run without a holdout records)."""
    rng = np.random.default_rng(seed)
    shape = [3, 3, 2, 2, 1]
    return DetectorModel(
        shape=shape,
        weights=[rng.normal(0, 0.5, size=(a, b)) for a, b in zip(shape[:-1], shape[1:])],
        biases=[rng.normal(0, 0.1, size=b) for b in shape[1:]],
        threshold=0.5,
        feature_names=list(NAMES),
        seed=seed,
        epochs=2,
        loss_curve=[0.7, 0.6],
        holdout_accuracy=[float("nan")] * 2,
    )


def ensemble() -> EnsembleModel:
    return EnsembleModel(experts={a: model(i) for i, a in enumerate(detector.EXPERT_ATTACKS)}, threshold=0.5)


def resaved(path, load, save) -> bytes:
    save(load(path), path.with_suffix(".again"))
    return path.with_suffix(".again").read_bytes()


class TestBytesRoundTrip:
    """save -> load -> save writes the bytes the first save wrote."""

    @pytest.mark.parametrize("make", [model, ensemble], ids=["model", "ensemble"])
    def test_model_file(self, tmp_path, make):
        path = tmp_path / "m.txt"
        save_model(make(), path)
        assert resaved(path, load_model, save_model) == path.read_bytes()

    @pytest.mark.parametrize("config", scenario_configs(ExperimentPlan()).values(), ids=simnet.SCENARIOS)
    def test_scenario_config(self, tmp_path, config):
        path = tmp_path / "c.txt"
        save_scenario_config(config, path)
        assert load_scenario_config(path) == config
        assert resaved(path, load_scenario_config, save_scenario_config) == path.read_bytes()

    def test_nan_curves_load(self, tmp_path):
        # The curves go to the training log, NaN and all; the model file holds finite values only.
        path = tmp_path / "m.txt"
        save_model(model(), path)
        assert "nan" not in path.read_text()
        assert load_model(path).holdout_accuracy == []
        detector.write_training_log(model(), tmp_path / "training.csv")
        assert (tmp_path / "training.csv").read_text() == "epoch,loss,holdout_accuracy\n0,0.7,nan\n1,0.6,nan\n"


def edited(text: str, line: int, new: str | None) -> str:
    """The text with its 1-based line `line` replaced by `new` (appended one
    past the end); None cuts the text before that line."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[: line - 1] + ([] if new is None else [new + "\n", *lines[line:]]))


# A [3, 3, 2, 2, 1] model file: line 1 magic, 2-6 the header, 7 `layer: 0 3
# 3`, 8-10 its rows, 11 its bias, ... 25 `end`.  An ensemble file: line 1
# magic, 2 threshold, 3 `expert: dos`, 4-28 its block, 29 `expert: clone`.
@pytest.mark.parametrize("kind, line, new, message", [
    ("model", 4, "seed: x", "line 4, field 'seed': not an integer 'x'"),
    ("model", 3, "threshold: 0.5zz", "line 3, field 'threshold': not a number '0.5zz'"),
    ("model", 7, "layer: 0 5 x", "line 7, field 'layer': not an integer 'x'"),
    ("model", 3, "threshold: nan", "line 3, field 'threshold': non-finite value 'nan'"),
    ("model", 9, "inf 0x0p+0 0x0p+0", "line 9, field 'layer': non-finite value 'inf'"),
    ("model", 11, "bias: 0x0p+0 -inf 0x0p+0", "line 11, field 'bias': non-finite value '-inf'"),
    ("model", 5, "epochs 2", "line 5, field 'epochs': expected 'epochs' line, got 'epochs 2'"),
    ("model", 2, "shape: 2", "line 2, field 'shape': invalid network shape: hidden layer count must be 3 or 4, "
                             "got -1; output layer must have exactly 1 neuron, got 2"),
    ("model", 6, "feature_names: a|b", "line 6, field 'feature_names': has 2 entries, expected 3"),
    ("model", 12, "layer: 1 3 3", "line 12, field 'layer': expected '1 3 2', got '1 3 3'"),
    ("model", 10, "0x1p-1 0x1p-1", "line 10, field 'layer': has 2 values, expected 3"),
    ("model", 16, "bias: 0x0p+0", "line 16, field 'bias': has 1 values, expected 2"),
    ("model", 25, "ending", "line 25, field 'end': unsupported line 'ending', expected 'end'"),
    ("model", 14, None, "line 14, field 'layer': truncated model file"),
    ("model", 1, "ddsids-model v2", "line 1: unsupported model version 'ddsids-model v2', "
                                    "expected 'ddsids-model v1' or 'ddsids-ensemble v1'"),
    ("ensemble", 2, "threshold: inf", "line 2, field 'threshold': non-finite value 'inf'"),
    ("ensemble", 3, "expert: flood", "line 3, field 'expert': unsupported expert 'flood', "
                                     "expected 'dos' or 'clone' or 'malsub'"),
    ("ensemble", 29, "expert: dos", "line 29, field 'expert': unsupported expert 'dos', "
                                    "expected 'clone' or 'malsub'"),
    ("ensemble", 30, "ddsids-ensemble v1", "line 30: unsupported model version 'ddsids-ensemble v1', "
                                           "expected 'ddsids-model v1'"),
    ("ensemble", 35, "feature_names: a|b|c", "experts disagree on their feature names"),
    # The dos expert's own threshold, 0.99: no expert is read at a cut-off it was not saved with.
    ("ensemble", 6, f"threshold: {0.99.hex()}", "an expert's threshold differs from the ensemble's 0.5"),
])
def test_model_file_faults(tmp_path, capsys, kind, line, new, message):
    path = tmp_path / "m.txt"
    save_model(model() if kind == "model" else ensemble(), path)
    path.write_text(edited(path.read_text(), line, new))
    with pytest.raises(ValueError) as raised:
        load_model(path)
    assert str(raised.value) == f"{path}: {message}"
    assert main(["evaluate", "--model", str(path), "--test", str(tmp_path / "t.csv"), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"ddsids: error: {path}: {message}\n"


def test_a_file_in_the_eleven_field_layout_is_rejected(tmp_path, capsys):
    """A model block's header once also held hidden_activation after the
    shape, and norm_min, norm_max, loss_curve, holdout_accuracy and conv
    after the feature names, under the same magic line.  Such a file fails
    on its third line, like any other bad model file."""
    path = tmp_path / "m.txt"
    save_model(model(), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([*lines[:2], "hidden_activation: relu\n", *lines[2:6], "norm_min: -\n", "norm_max: -\n",
                             "loss_curve: 0x1.6666666666666p-1 0x1.3333333333333p-1\n", "holdout_accuracy: nan nan\n",
                             "conv: -\n", *lines[6:]]))
    message = f"{path}: line 3, field 'threshold': expected 'threshold' line, got 'hidden_activation: relu'"
    assert main(["evaluate", "--model", str(path), "--test", str(tmp_path / "t.csv"), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"ddsids: error: {message}\n"


CONFIG = ScenarioConfig("dos", duration=3.0, relaunch_period=0.5, relaunch_count=2, rng_seed=4)


# The saved CONFIG: line 1 scenario, 2 duration, 3 relaunch_period, 4
# relaunch_count, 5 rng_seed; line 6 is one past the end.
@pytest.mark.parametrize("line, new, message", [
    (1, "", "missing field 'scenario'"),
    (2, "duration = 1e999", "line 2, field 'duration': non-finite value '1e999'"),
    (3, "relaunch_period = inf", "line 3, field 'relaunch_period': non-finite value 'inf'"),
    (2, "duration = nan", "line 2, field 'duration': non-finite value 'nan'"),
    (2, "duration = abc", "line 2, field 'duration': not a number 'abc'"),
    (4, "relaunch_count = 2.5", "line 4, field 'relaunch_count': not an integer '2.5'"),
    (6, "relaunch_period = 0.25", "line 6, field 'relaunch_period': repeated, first set on line 3"),
    (6, "gps_max_delta = 0.015", "line 6, field 'gps_max_delta': unknown scenario field 'gps_max_delta'"),
    (3, "relaunch_period 0.5", "line 3: expected 'key = value', got 'relaunch_period 0.5\\n'"),
    (5, "rng_seed = -1", "rng_seed must be non-negative"),
    (2, "duration = -3.0", "duration must be positive"),
    (2, "duration = 1e303", "duration must be at most 86400 s"),
    (2, "duration = 86401.0", "duration must be at most 86400 s"),
    # Settings that are simnet constants now, as a file written before they
    # were would still set them.
    *[(6, f"{key} = {value}", f"line 6, field '{key}': unknown scenario field '{key}'") for key, value in (
        ("publish_interval", 0.5), ("topics_per_publisher", 200), ("n_publishers", 5),
        ("benign_relaunch_period", 12.0), ("dos_gap", 0.001), ("attack_active", 0.25),
        ("malsub_join_delay", 0.3))],
])
def test_scenario_config_faults(tmp_path, capsys, line, new, message):
    path = tmp_path / "c.txt"
    save_scenario_config(CONFIG, path)
    path.write_text(edited(path.read_text(), line, new))
    with pytest.raises(ValueError) as raised:
        load_scenario_config(path)
    assert str(raised.value) == f"{path}: {message}"
    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"ddsids: error: {path}: {message}\n"


# Line 2 of each file: "shape: 3 3 2 2 1" and "duration = 3.0".
@pytest.mark.parametrize("save, load, argv", [
    (lambda path: save_model(model(), path), load_model, ["evaluate", "--model", "{}", "--test", "t.csv"]),
    (lambda path: save_scenario_config(CONFIG, path), load_scenario_config, ["simulate", "--config", "{}"]),
], ids=["model", "config"])
def test_a_byte_that_is_not_utf8_is_named_by_line(tmp_path, capsys, save, load, argv):
    path = tmp_path / "f.txt"
    save(path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:2] + b"\xff" + lines[1][3:]
    path.write_bytes(b"".join(lines))
    message = f"{path}: line 2: not UTF-8, byte 0xff at column 3"
    with pytest.raises(ValueError) as raised:
        load(path)
    assert str(raised.value) == message
    assert main([a.format(path) for a in argv] + ["--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"ddsids: error: {message}\n"


@pytest.mark.parametrize("name", ["a|b", "a\nb", "a\rb", " a", "a\t"])
def test_feature_names_that_cannot_round_trip(tmp_path, name):
    with pytest.raises(ValueError, match=re.escape(f"feature name {name!r} cannot be saved in a model file")):
        save_model(replace(model(), feature_names=[name, "c", "d"]), tmp_path / "m.txt")
    assert not (tmp_path / "m.txt").exists()


def test_an_ensemble_with_a_name_it_cannot_save_leaves_no_file(tmp_path):
    # The file is written a block at a time, so every expert's names are checked before it is opened.
    expert = replace(model(), feature_names=["a|b", "c", "d"])
    with pytest.raises(ValueError, match=re.escape("feature name 'a|b' cannot be saved in a model file")):
        save_model(EnsembleModel(experts={a: expert for a in detector.EXPERT_ATTACKS}), tmp_path / "m.txt")
    assert not (tmp_path / "m.txt").exists()


def test_train_rejects_a_feature_name_it_cannot_save(tmp_path, capsys):
    rng = np.random.default_rng(0)
    ds = Dataset(matrix=rng.uniform(0, 1, (40, 3)), labels=["benign", "dos"] * 20, feature_names=["a|b", "c", "d"],
                 norm_min=np.zeros(3), norm_max=np.ones(3))
    write_dataset_csv(ds, tmp_path / "train.csv")
    argv = ["train", "--train", str(tmp_path / "train.csv"), "--epochs", "1", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "feature name 'a|b' cannot be saved" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.txt").exists()


FUZZ = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def mutated(text: str, token: int, cell: str) -> str:
    """The text with one of its whitespace-separated tokens replaced by `cell`."""
    parts = re.split(r"(\s+)", text)
    words = [i for i, part in enumerate(parts) if part and not part.isspace()]
    parts[words[token % len(words)]] = cell
    return "".join(parts)


def run_cli(argv: list[str], path) -> None:
    """The CLI exits 0, or 1 with a message that names `path`; it never raises."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    assert rc == 0 or (rc == 1 and err.getvalue().startswith(f"ddsids: error: {path}: ")), (rc, err.getvalue())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A saved model, ensemble and scenario config, and a test set the models can score."""
    root = tmp_path_factory.mktemp("files")
    save_model(model(), root / "model.txt")
    save_model(ensemble(), root / "ensemble.txt")
    save_scenario_config(CONFIG, root / "config.txt")
    rng = np.random.default_rng(3)
    write_dataset_csv(Dataset(matrix=rng.uniform(0, 1, (12, 3)), labels=["benign", "dos", "clone", "malsub"] * 3,
                              feature_names=list(NAMES), norm_min=np.zeros(3), norm_max=np.ones(3)),
                      root / "test.csv")
    return root


@FUZZ
@given(st.sampled_from(["model.txt", "ensemble.txt"]), st.integers(0, 10_000), st.sampled_from(ODD_CELLS))
def test_evaluate_on_a_mutated_model_file(files, name, token, cell):
    path = files / "mutated.txt"
    path.write_text(mutated((files / name).read_text(), token, cell))
    run_cli(["evaluate", "--model", str(path), "--test", str(files / "test.csv"), "--out-dir", str(files / "out")],
            path)


@FUZZ
@given(st.integers(0, 10_000), st.sampled_from(ODD_CELLS))
def test_simulate_on_a_mutated_config(files, token, cell):
    """The simulation itself is stubbed: a valid config may ask for any size."""
    path = files / "mutated.config.txt"
    path.write_text(mutated((files / "config.txt").read_text(), token, cell))
    trace = simnet.PacketTrace.empty()
    with mock.patch.object(simnet, "generate", lambda config: trace):
        run_cli(["simulate", "--config", str(path), "--out-dir", str(files / "out")], path)


def mutated_cell(text: str, cell_index: int, cell: str) -> str:
    """The CSV text with one of its cells, the parts between commas and line
    ends, replaced by `cell`."""
    parts = re.split(r"([,\n])", text)
    cells = [i for i, part in enumerate(parts) if part not in (",", "\n")]
    parts[cells[cell_index % len(cells)]] = cell
    return "".join(parts)


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    """Packet and flow files of the benign and dos scenarios at scale 0.03."""
    root = tmp_path_factory.mktemp("chain")
    for name, config in scenario_configs(ExperimentPlan(scale=0.03)).items():
        if name in ("benign", "dos"):
            trace = simnet.generate(config)
            simnet.write_packet_csv(trace, root / f"{name}.packets.csv")
            flowmeter.write_flow_csv(flowmeter.meter(trace), root / f"{name}.flows.csv")
    return root


# Each verb's argv for a mutated file, and the file it mutates.
CSV_VERBS = {
    "meter": (["meter", "--packets", "{}"], "dos.packets.csv"),
    "preprocess": (["preprocess", "--flows", "benign={root}/benign.flows.csv", "--flows", "dos={}"], "dos.flows.csv"),
    "evaluate": (["evaluate", "--model", "{files}/model.txt", "--test", "{}"], "test.csv"),
}


@settings(FUZZ, max_examples=70)
@given(st.integers(0, 10**6), st.sampled_from(ODD_CELLS + ["host-a", "70000", "-1"]))
@pytest.mark.parametrize("verb", CSV_VERBS)
def test_verb_on_a_mutated_csv_file(files, chain_files, verb, cell_index, cell):
    argv, name = CSV_VERBS[verb]
    source = files if verb == "evaluate" else chain_files
    path = chain_files / f"mutated.{name}"
    path.write_text(mutated_cell((source / name).read_text(), cell_index, cell))
    run_cli([a.format(path, root=chain_files, files=files) for a in argv] + ["--out-dir", str(chain_files / "out")],
            path)
