"""Each benchmark output check passes on a right output and fails on one
deliberately wrong one: a count off by one, swapped columns, a flipped
verdict.  Small synthetic inputs only, so this runs in well under a second."""

from collections import Counter
from pathlib import Path

import numpy as np

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
Packet = checks.Packet


def test_conservation_catches_a_lost_packet_and_byte():
    header = ["Tot Fwd Pkts", "Tot Bwd Pkts", "TotLen Fwd Pkts", "TotLen Bwd Pkts"]
    rows = [["3.0", "2.0", "300.0", "20.0"], ["1.0", "0.0", "16.0", "0.0"]]
    assert checks.check_conservation("s", 6, 336, header, rows) == []
    assert checks.check_conservation("s", 7, 336, header, rows)
    assert checks.check_conservation("s", 6, 335, header, rows)


def _flow_csv(packets, oracle):
    features = oracle.oracle_features(packets, packets[0].ts)
    first = packets[0]
    header = ["Flow ID", "Src IP", "Src Port", "Dst IP", "Dst Port", "Start Time", *features, "Label"]
    row = ["f#0", first.src_ip, str(first.src_port), first.dst_ip, str(first.dst_port), repr(first.ts)]
    return header, row + [repr(v) for v in features.values()] + ["benign"]


def test_oracle_sample_catches_swapped_columns_and_a_moved_flow():
    oracle = checks.load_oracle(ROOT)
    a, b = ("10.0.5.4", 40000), ("10.0.5.5", 50000)
    packets = [Packet(1.0 + 0.3 * i, *(a + b if i % 3 else b + a), 17, 16 * (i + 1), 28, 0) for i in range(7)]
    header, row = _flow_csv(packets, oracle)
    assert checks.check_oracle_sample("s", header, [row], packets, oracle) == []

    i, j = header.index("Fwd Pkt Len Max"), header.index("Bwd Pkt Len Max")
    swapped = list(row)
    swapped[i], swapped[j] = row[j], row[i]
    assert checks.check_oracle_sample("s", header, [swapped], packets, oracle)
    moved = list(row)
    moved[header.index("Start Time")] = repr(packets[1].ts)
    assert checks.check_oracle_sample("s", header, [moved], packets, oracle)


def test_report_row_catches_wrong_counts_and_rounding():
    labels = Counter(benign=100, dos=50)
    row = {"tp": 90, "fp": 10, "tn": 45, "fn": 5, "accuracy": "90.00", "detection": "90.00"}
    assert checks.check_report_row("DoS", row, labels, ["dos"]) == []
    assert checks.check_report_row("DoS", {**row, "tp": 91}, labels, ["dos"])
    assert checks.check_report_row("DoS", {**row, "accuracy": "90.01"}, labels, ["dos"])
    assert checks.check_report_row("DoS", {**row, "detection": ""}, labels, ["dos"])
    assert checks.parse_evaluate_line("tp=90 fp=10 tn=45 fn=5 accuracy=90.00% detection=90.00%") == row


def _model_text(names, layers):
    """A model file in the ddsids text format for the given (W, b) layers."""
    widths = [layers[0][0].shape[0]] + [W.shape[1] for W, _ in layers]
    lines = ["ddsids-model v1", "shape: " + " ".join(map(str, widths)), "hidden_activation: relu",
             f"threshold: {0.5.hex()}", "seed: 0", "epochs: 1", "feature_names: " + "|".join(names),
             "norm_min: -", "norm_max: -", "loss_curve: ", "holdout_accuracy: ", "conv: -"]
    for i, (W, b) in enumerate(layers):
        lines.append(f"layer: {i} {W.shape[0]} {W.shape[1]}")
        lines += [" ".join(float(v).hex() for v in row) for row in W]
        lines.append("bias: " + " ".join(float(v).hex() for v in b))
    return "\n".join(lines + ["end"]) + "\n"


def test_model_and_ensemble_verdicts_catch_a_flipped_verdict(tmp_path):
    rng = np.random.default_rng(3)
    names = ["a", "b", "c", "d"]
    test = checks.Table(names, rng.uniform(size=(200, 4)), ["benign" if i % 3 else "dos" for i in range(200)])
    blocks = {}
    for attack in ("dos", "clone", "malsub"):
        # A hidden identity layer, then a split through the middle of the data.
        w = rng.normal(size=(4, 1))
        layers = [(np.eye(4), np.zeros(4)), (w, -np.median(test.matrix @ w, axis=0))]
        blocks[attack] = _model_text(names, layers)
        (tmp_path / f"{attack}.txt").write_text(blocks[attack])
    model = checks.read_model(tmp_path / "dos.txt")
    row = checks.confusion(model.votes(test.matrix)[0], test.labels)
    assert checks.check_model_row("DoS", row, model, test) == []
    assert checks.check_model_row("DoS", {**row, "tp": row["tp"] - 1, "fp": row["fp"] + 1}, model, test)

    ensemble_text = f"ddsids-ensemble v1\nthreshold: {0.5.hex()}\n" + "".join(
        f"expert: {a}\n{blocks[a]}" for a in ("dos", "clone", "malsub"))
    (tmp_path / "ensemble.txt").write_text(ensemble_text)
    experts = checks.read_model(tmp_path / "ensemble.txt")
    benign = np.logical_and.reduce([m.votes(test.matrix)[0] for m in experts.values()])
    row = checks.confusion(benign, test.labels)
    assert checks.check_ensemble_row(row, experts, test) == []
    either = np.logical_or.reduce([m.votes(test.matrix)[0] for m in experts.values()])
    assert either.sum() != benign.sum()
    assert checks.check_ensemble_row(checks.confusion(either, test.labels), experts, test)


def test_univariate_catches_a_wrong_score_and_a_wrong_order():
    rng = np.random.default_rng(5)
    labels = [("benign", "dos", "clone")[i % 3] for i in range(90)]
    X = rng.uniform(size=(90, 4))
    X[:, 1] += np.array([lab == "dos" for lab in labels])
    X[:, 3] = 0.0
    names = ["w", "x", "y", "z"]
    f, _, _ = checks.anova_f(X, labels)
    scores = {n: (0.0 if n == "z" else float(f[j])) for j, n in enumerate(names)}
    ranked = sorted(names, key=lambda n: (-scores[n], names.index(n)))
    assert checks.check_univariate(names, X, labels, scores, ranked) == []
    assert checks.check_univariate(names, X, labels, {**scores, "x": scores["x"] * 1.01}, ranked)
    assert checks.check_univariate(names, X, labels, {**scores, "z": 1.0}, ranked)
    assert checks.check_univariate(names, X, labels, scores, ranked[1:2] + ranked[:1] + ranked[2:])


def test_rankings_must_be_nested_permutations():
    assert checks.check_permutation("m", ["b", "a", "c"], ["a", "b", "c"]) == []
    assert checks.check_permutation("m", ["b", "b", "c"], ["a", "b", "c"])
    assert checks.check_nested({2: ["a", "b"], 3: ["a", "b", "c"]}) == []
    assert checks.check_nested({2: ["a", "d"], 3: ["a", "b", "c"]})
    assert checks.check_nested({2: ["a", "a"], 3: ["a", "b", "c"]})


def test_headline_needs_99_percent():
    good = {"tp": 1000, "fp": 0, "tn": 100, "fn": 0}
    rows = {name: dict(good) for name in [*checks.EXPERT_ROWS.values(), "ENSEMBLE"]}
    assert checks.check_headline(rows) == []
    rows["Clone"] = {"tp": 1000, "fp": 0, "tn": 98, "fn": 2}
    assert checks.check_headline(rows)


def test_self_times_subtract_called_spans():
    trace = [spans.Span("evalcli", "main", -1, 0.0, 10.0, {"verb": "train"}),
             spans.Span("detector", "train", 0, 1.0, 5.0, {"row_epochs": 400}),
             spans.Span("preprocess", "Dataset.subset", 1, 2.0, 3.0)]
    assert spans.self_times(trace) == [6.0, 3.0, 1.0]
    layers = spans.layer_metrics(trace, run_s=10.5)
    assert layers["evalcli.self_s"] == 6.0 and layers["evalcli.cmd_train_s"] == 10.0
    assert layers["detector.train_s"] == 3.0 and layers["detector.row_epochs_per_s"] == 400 / 3.0
    assert layers["preprocess.build_dataset_s"] == 1.0
    assert layers["trace.unattributed_s"] == 0.5
