"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight artifacts
(simulated traces, metered flows, trained models) are session fixtures shared
across criteria; everything is seeded and deterministic.  Criteria 4-7 run on
seed 7, the seed of the committed reports, and on seeds 11, 1, 2 and 6, held
out; `--acceptance-seeds 0-11` runs them on more seeds besides those five.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ddsids import detector, evalcli, featsel, flowmeter
from ddsids.detector import DetectorModel, EnsembleModel, TrainConfig
from ddsids.evalcli import ConfusionCounts, ExperimentPlan, metrics
from ddsids.simnet import PacketTrace

import oracle_lasso
from oracle_flow import EXACT_FEATURES, oracle_features, oracle_flows, random_flow_packets
from records import records_of, table_of

SEEDS = (7, 11, 1, 2, 6)
_timings: dict[tuple[int, str], float] = {}


def acceptance_seeds(option: str) -> tuple[int, ...]:
    """SEEDS, then the other seeds an --acceptance-seeds value names: a
    comma-separated list of seeds and a-b ranges."""
    extra = set()
    for part in filter(None, option.replace(" ", "").split(",")):
        low, _, high = part.partition("-")
        extra.update(range(int(low), int(high or low) + 1))
    return SEEDS + tuple(sorted(extra - set(SEEDS)))


def pytest_generate_tests(metafunc):
    if "plan" in metafunc.fixturenames:
        if metafunc.function.__name__ == "test_address_regime_golden_split":
            seeds = (7,)  # the regimes' splits are pinned for seed 7; it reuses seed 7's session cache
        else:
            seeds = acceptance_seeds(metafunc.config.getoption("--acceptance-seeds"))
        metafunc.parametrize("plan", seeds, indirect=True, scope="session")


def _announce(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="session")
def plan(request):
    return ExperimentPlan(seed=request.param)


@pytest.fixture(scope="session")
def cache(plan):
    t0 = time.perf_counter()
    built = evalcli.build_cache(plan)
    _timings[plan.seed, "cache"] = time.perf_counter() - t0
    return built


@pytest.fixture(scope="session")
def with_ip_report(plan, cache):
    t0 = time.perf_counter()
    report = evalcli.run_experiment(plan, cache=cache)
    _timings[plan.seed, "with_ip"] = time.perf_counter() - t0
    return report


@pytest.fixture(scope="session")
def no_ip_report(plan, cache):
    report = evalcli.run_experiment(replace(plan, ip_mode="none"), cache=cache)
    return report


@pytest.fixture(scope="session")
def reduced_reports(plan, cache):
    return {
        k: evalcli.run_experiment(
            replace(plan, ip_mode="none", feature_k=k, model="experts"), cache=cache
        )
        for k in (5, 10, 20)
    }


@pytest.fixture(scope="session")
def probe_reports(plan, cache):
    return evalcli.run_anonymize_probes(plan, cache)


# --------------------------------------------------------------------------
# criterion 1: metric oracle over the twenty published count rows

# (table, row, tp, fp, tn, fn, printed accuracy, printed detection) as printed
# in the four detection-result tables.
PUBLISHED_ROWS = [
    ("T2", "DoS", 3482, 0, 374, 0, "100", "100"),
    ("T2", "Clone", 3482, 0, 780, 0, "100", "100"),
    ("T2", "MalSub", 3482, 0, 644, 0, "100", "100"),
    ("T2", "Single", 3480, 2, 1797, 1, "99.96", "99.90"),
    ("T2", "Ensemble", 3482, 0, 1798, 0, "100", "100"),
    ("T3", "DoS", 3479, 3, 364, 10, "99.66", "97.32"),
    ("T3", "Clone", 3278, 204, 598, 182, "90.94", "76"),
    ("T3", "MalSub", 3480, 2, 334, 310, "92.43", "51.8"),
    ("T3", "Single", 3386, 24, 1004, 866, "83.10", "53.68"),
    ("T3", "Ensemble", 3482, 0, 1490, 308, "94.17", "82.86"),
    ("T4", "DoS", 3482, 0, 355, 19, "99.51", "94.91"),
    ("T4", "Clone", 3479, 3, 683, 97, "97.65", "87.56"),
    ("T4", "MalSub", 3472, 10, 332, 312, "91.19", "51.00"),
    ("T4", "Single", 3042, 454, 1654, 130, "88.9", "92.71"),
    ("T4", "Ensemble", 3430, 52, 1462, 335, "92.67", "81.36"),
    ("T5", "DoS", 3482, 0, 337, 37, "99.04", "90.10"),
    ("T5", "Clone", 3170, 312, 612, 168, "88.74", "78.46"),
    ("T5", "MalSub", 3470, 12, 30, 630, "84.50", "4.60"),
    ("T5", "Single", 3126, 324, 672, 1118, "71.90", "37.54"),
    ("T5", "Ensemble", 3442, 40, 1074, 724, "85.53", "59.73"),
]

# Rows whose printed percentages are not reproducible from their own printed
# counts (the published tables carry internal rounding/typo drift).  The
# count-derived formula value is authoritative; the drift is asserted to stay
# exactly this set, with the observed magnitudes.
PRINTED_ACCURACY_DRIFT = {
    ("T2", "Single"): 0.02,
    ("T3", "Single"): 0.04,
    ("T4", "MalSub"): 1.01,
    ("T4", "Single"): 0.04,
    ("T5", "Single"): 0.58,
}
PRINTED_DETECTION_DRIFT = {
    ("T3", "Clone"): 0.67,
    ("T4", "MalSub"): 0.55,
}


def _exact_pct(numer: int, denom: int) -> float:
    """Correctly rounded two-decimal percentage via exact rational arithmetic."""
    frac = Fraction(100 * numer, denom)
    dec = Decimal(frac.numerator) / Decimal(frac.denominator)
    return float(dec.quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def test_criterion_1_metric_oracle():
    t0 = time.perf_counter()
    acc_drift = {}
    det_drift = {}
    for table, row, tp, fp, tn, fn, printed_acc, printed_det in PUBLISHED_ROWS:
        counts = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        acc, det = metrics(counts)
        expected_acc = _exact_pct(tp + tn, tp + fp + tn + fn)
        expected_det = _exact_pct(tn, tn + fn)
        assert acc == expected_acc, f"{table}/{row} accuracy {acc} != oracle {expected_acc}"
        assert det == expected_det, f"{table}/{row} detection {det} != oracle {expected_det}"

        d_acc = round(abs(acc - float(printed_acc)), 2)
        d_det = round(abs(det - float(printed_det)), 2)
        if d_acc > 0.01:
            acc_drift[(table, row)] = d_acc
        if d_det > 0.5:
            det_drift[(table, row)] = d_det
    assert acc_drift == PRINTED_ACCURACY_DRIFT
    assert det_drift == PRINTED_DETECTION_DRIFT
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(1, f"20 published rows reproduced from counts in {elapsed * 1e3:.0f} ms; "
                 f"printed-value drift limited to the {len(acc_drift) + len(det_drift)} documented rows")


# --------------------------------------------------------------------------
# criterion 2: flow-meter bit-for-bit / 1e-9 oracle equivalence


def test_criterion_2_flowmeter_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250802)
    checked = 0
    flows_needed = 1000
    while checked < flows_needed:
        packets = random_flow_packets(rng, max_packets=20)
        flows = records_of(flowmeter.meter(table_of(PacketTrace, packets)))
        grouped = oracle_flows(packets)
        assert len(flows) == len(grouped)
        for flow, pkts in zip(flows, grouped):
            expected = oracle_features(pkts, flow.start_time)
            for name in flowmeter.FEATURE_NAMES:
                got = flow.feature(name)
                want = expected[name]
                if name in EXACT_FEATURES:
                    assert got == want, f"{name}: {got} != {want}"
                elif want == 0.0:
                    assert got == 0.0, f"{name}: {got} != 0"
                else:
                    assert abs(got - want) <= 1e-9 * abs(want), f"{name}: {got} vs {want}"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _announce(2, f"{checked} random flows match the per-formula oracle on all 78 features "
                 f"in {elapsed:.1f} s")


# --------------------------------------------------------------------------
# criterion 3: analytic gradients vs central differences on [78,78,64,39,1]


def test_criterion_3_gradient_check():
    t0 = time.perf_counter()
    shape = [78, 78, 64, 39, 1]
    assert detector.validate_shape(shape) == []
    rng = np.random.default_rng(1234)
    model = DetectorModel(
        shape=shape,
        weights=[rng.normal(0, 0.35, size=(a, b)) for a, b in zip(shape[:-1], shape[1:])],
        biases=[rng.normal(0, 0.05, size=b) for b in shape[1:]],
    )
    h = 1e-6
    worst = 0.0
    for _ in range(2):
        X = rng.uniform(0, 1, size=(5, 78))
        y = rng.integers(0, 2, size=5).astype(float)
        _, gW, gb = detector.loss_and_gradients(model, X, y)
        for li in range(len(model.weights)):
            for tensor, analytic in ((model.weights[li], gW[li]), (model.biases[li], gb[li])):
                numeric = np.zeros_like(analytic)
                flat = tensor.reshape(-1)
                nflat = numeric.reshape(-1)
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + h
                    up = detector.bce_loss(model, X, y)
                    flat[j] = orig - h
                    down = detector.bce_loss(model, X, y)
                    flat[j] = orig
                    nflat[j] = (up - down) / (2 * h)
                rel = np.linalg.norm(analytic - numeric) / max(
                    np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
                )
                worst = max(worst, rel)
                assert rel < 1e-4, f"layer {li}: relative gradient error {rel:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce(3, f"all layer gradients within 1e-4 of central differences "
                 f"(worst {worst:.2e}) in {elapsed:.1f} s")


# --------------------------------------------------------------------------
# criterion 4: with-IP regime reaches >= 99% accuracy and detection


def test_criterion_4_with_ip_regime(plan, with_ip_report):
    report = with_ip_report
    expert_rows = ["DoS", "Clone", "Malicious Subscriber", "ENSEMBLE"]
    benign_total = report.row("SINGLE CNN").counts.benign_total
    assert 3000 <= benign_total <= 4000, f"benign test sessions {benign_total} out of scale"
    for name in ("DoS", "Clone", "Malicious Subscriber"):
        attacks = report.row(name).counts.attack_total
        assert 300 <= attacks <= 800, f"{name}: {attacks} attack test sessions out of scale"
    for name in expert_rows:
        row = report.row(name)
        assert row.accuracy >= 99.0, f"{name} accuracy {row.accuracy}"
        assert row.detection is not None and row.detection >= 99.0, f"{name} detection {row.detection}"
    total = _timings.get((plan.seed, "cache"), 0.0) + _timings.get((plan.seed, "with_ip"), 0.0)
    assert total < 600.0
    _announce(4, "with-IP experts and ensemble all at "
              + ", ".join(f"{report.row(n).detection:.2f}%" for n in expert_rows)
              + f" detection (>=99%) in {total:.0f} s end to end")


# --------------------------------------------------------------------------
# criterion 5: no-IP privacy penalty


def test_criterion_5_no_ip_penalty(no_ip_report):
    report = no_ip_report
    det = {name: report.row(name).detection for name in
           ("DoS", "Clone", "Malicious Subscriber", "SINGLE CNN", "ENSEMBLE")}
    assert det["DoS"] > det["Clone"] > det["Malicious Subscriber"], f"ordering violated: {det}"
    assert det["DoS"] >= 80.0
    assert det["Malicious Subscriber"] <= 25.0
    assert det["ENSEMBLE"] >= det["SINGLE CNN"]
    _announce(5, f"no-IP detection DoS {det['DoS']:.2f} > Clone {det['Clone']:.2f} > "
                 f"MalSub {det['Malicious Subscriber']:.2f}; ensemble {det['ENSEMBLE']:.2f} >= "
                 f"single {det['SINGLE CNN']:.2f}")


# --------------------------------------------------------------------------
# criterion 6: reduced-feature trend


def test_criterion_6_reduced_features(reduced_reports):
    det = {
        k: {name: reduced_reports[k].row(name).detection
            for name in ("DoS", "Clone", "Malicious Subscriber")}
        for k in (5, 10, 20)
    }
    assert det[5]["DoS"] >= 75.0, f"DoS at k=5: {det[5]['DoS']}"
    assert det[20]["Malicious Subscriber"] <= 15.0, f"MalSub at k=20: {det[20]['Malicious Subscriber']}"
    for name in ("DoS", "Clone", "Malicious Subscriber"):
        for k_low, k_high in ((5, 10), (10, 20)):
            assert det[k_high][name] >= det[k_low][name] - 5.0, (
                f"{name}: detection fell from {det[k_low][name]} (k={k_low}) "
                f"to {det[k_high][name]} (k={k_high})"
            )
    _announce(6, "reduced-feature detection "
              + "; ".join(f"{n}: " + "/".join(f"{det[k][n]:.0f}" for k in (5, 10, 20))
                          for n in ("DoS", "Clone", "Malicious Subscriber"))
              + " (k=5/10/20)")


def test_reduced_feature_experts_are_not_constant(plan, cache):
    # Each expert of the reduced-feature study, trained again on its split
    # (the consensus ranking is the cache's), scores its own training rows
    # apart: a collapsed net gives every row one score.
    for k in (5, 10, 20):
        reduced = replace(plan, ip_mode="none", feature_k=k, model="experts")
        train_ds, _, _ = evalcli.build_datasets(reduced, cache, [], {})
        experts, _, _ = evalcli.train_models(reduced, train_ds, {})
        for attack, model in experts.items():
            rows = np.flatnonzero([lab in ("benign", attack) for lab in train_ds.labels])
            scores = detector.predict(model, train_ds.matrix[rows])
            assert np.ptp(scores) > 0, f"{attack} expert at k={k} scores every training row {scores[0]}"


# The no-IP consensus ranking whose top-k the reduced-feature study keeps.
# A change that moves it names the move here.
CONSENSUS_TOP20 = {
    7: ["Fwd Pkt Len Max", "Flow Byts/s", "Fwd Pkts/s", "Pkt Len Std", "Fwd Pkt Len Mean", "Flow Pkts/s",
        "Tot Fwd Pkts", "TotLen Fwd Pkts", "Bwd Pkt Len Max", "Fwd Pkt Len Std", "Pkt Len Max", "Fwd IAT Min",
        "Flow IAT Std", "Pkt Len Mean", "Flow Duration", "Bwd Pkt Len Mean", "Fwd Seg Size Avg", "Flow IAT Max",
        "Bwd Pkt Len Std", "TotLen Bwd Pkts"],
    11: ["Fwd Pkt Len Max", "Fwd Pkt Len Std", "Pkt Len Std", "Fwd Pkt Len Mean", "Flow Pkts/s", "TotLen Fwd Pkts",
         "Flow Byts/s", "Pkt Len Max", "Fwd IAT Min", "Tot Fwd Pkts", "Bwd Pkt Len Max", "Flow IAT Mean",
         "Pkt Len Mean", "Bwd Pkt Len Mean", "Fwd Pkts/s", "Fwd IAT Tot", "Fwd Seg Size Avg", "Flow Duration",
         "Fwd Blk Rate Avg", "Tot Bwd Pkts"],
    1: ["Fwd Pkt Len Max", "Pkt Len Std", "Fwd Pkt Len Std", "Flow Pkts/s", "Fwd Pkt Len Mean", "Tot Fwd Pkts",
        "Flow Byts/s", "TotLen Fwd Pkts", "Fwd IAT Min", "Bwd Pkt Len Max", "Bwd Pkt Len Mean", "Flow IAT Std",
        "Flow IAT Max", "Fwd Pkts/s", "Pkt Len Mean", "Fwd IAT Std", "Flow Duration", "Fwd Seg Size Avg",
        "Tot Bwd Pkts", "Fwd IAT Max"],
    2: ["Fwd Pkt Len Max", "Flow Pkts/s", "Pkt Len Std", "Fwd Pkt Len Std", "Flow Byts/s", "Fwd Pkt Len Mean",
        "Bwd Pkt Len Max", "Bwd Pkts/s", "Flow Duration", "TotLen Fwd Pkts", "Tot Fwd Pkts", "Pkt Len Mean",
        "Flow IAT Min", "Fwd Pkts/s", "TotLen Bwd Pkts", "Bwd Pkt Len Mean", "Fwd IAT Min", "Fwd Seg Size Avg",
        "Bwd Pkt Len Std", "Bwd IAT Std"],
    6: ["Fwd Pkt Len Max", "Pkt Len Std", "Fwd Pkt Len Std", "Flow Pkts/s", "Fwd Pkt Len Mean", "Tot Fwd Pkts",
        "TotLen Fwd Pkts", "Flow Byts/s", "Bwd Pkt Len Max", "Fwd Pkts/b Avg", "Flow IAT Mean", "Flow Duration",
        "Fwd IAT Min", "Fwd IAT Tot", "Bwd Pkt Len Mean", "Pkt Len Mean", "Fwd Seg Size Avg", "Fwd Pkts/s",
        "Flow IAT Max", "Pkt Size Avg"],
}


def test_reduced_features_keep_the_pinned_consensus(plan, cache, reduced_reports):
    if plan.seed not in CONSENSUS_TOP20:
        pytest.skip(f"no consensus ranking pinned for seed {plan.seed}")
    [ranking] = [r for key, r in cache.rankings.items() if key[0] == "consensus"]
    for k in (5, 10, 20):
        assert ranking.ranked_names[:k] == CONSENSUS_TOP20[plan.seed][:k], f"top-{k}"


def test_lasso_kkt_certificate(plan, cache):
    # Every fit of the five fold paths and the full path on the no-IP split,
    # checked from its own rows.
    train_ds, _, _ = evalcli.build_datasets(replace(plan, ip_mode="none"), cache, [], {})
    X, y = train_ds.matrix, train_ds.binary_labels()
    fold_of, paths = featsel._lasso_paths(X, y, plan.seed)
    assert len(paths) == featsel.LASSO_FOLDS + 1
    for k, (_, W) in enumerate(paths):
        rows = fold_of != k
        for lam, w in zip(featsel.LASSO_LAMBDAS, W):
            assert oracle_lasso.kkt_residual(X[rows], y[rows], lam, w) <= 1e-10, (k, lam)


# --------------------------------------------------------------------------
# criterion 7: anonymization semantics


def test_criterion_7_anonymization(with_ip_report, probe_reports):
    base_dos = with_ip_report.row("DoS").detection
    shift_dos = probe_reports["shift"].row("DoS").detection
    assert abs(shift_dos - base_dos) < 5.0, f"shift moved DoS detection {base_dos} -> {shift_dos}"

    switch_clone_acc = probe_reports["switch"].row("Clone").accuracy
    assert switch_clone_acc <= 55.0, f"switch left clone accuracy at {switch_clone_acc}"

    rnd = probe_reports["randomize"]
    clone_acc = rnd.row("SINGLE CNN / Clone").accuracy
    malsub_acc = rnd.row("SINGLE CNN / Malicious Subscriber").accuracy
    for name, acc in (("clone", clone_acc), ("malsub", malsub_acc)):
        assert 50.0 <= acc <= 65.0, f"randomize {name} accuracy {acc} outside 50..65"
    _announce(7, f"shift dDoS={shift_dos - base_dos:+.2f} pp; switch clone accuracy "
                 f"{switch_clone_acc:.2f}%; randomize clone/malsub accuracy "
                 f"{clone_acc:.2f}/{malsub_acc:.2f}%")


# --------------------------------------------------------------------------
# criterion 8: OR-adjudication set identity on 10k random score triples


def _passthrough_expert(column: int, width: int = 3) -> DetectorModel:
    """Score equals sigmoid(x[column] - 10): relu-safe logit pass-through."""
    shape = [width, 1, 1, 1, 1]
    weights = [np.zeros((a, b)) for a, b in zip(shape[:-1], shape[1:])]
    biases = [np.zeros(b) for b in shape[1:]]
    weights[0][column, 0] = 1.0
    for i in range(1, len(weights)):
        weights[i][0, 0] = 1.0
    biases[-1][0] = -10.0
    return DetectorModel(shape=shape, weights=weights, biases=biases)


def test_criterion_8_or_adjudication():
    rng = np.random.default_rng(88)
    scores = rng.uniform(0.01, 0.99, size=(10_000, 3))
    rows = np.log(scores / (1.0 - scores)) + 10.0
    ensemble = EnsembleModel(
        experts={
            "dos": _passthrough_expert(0),
            "clone": _passthrough_expert(1),
            "malsub": _passthrough_expert(2),
        }
    )
    benign = detector.classify(ensemble, rows)
    flagged = set(np.nonzero(~benign)[0].tolist())
    union = set()
    for i, attack in enumerate(("dos", "clone", "malsub")):
        expert_scores = detector.predict(ensemble.experts[attack], rows)
        union |= set(np.nonzero(expert_scores < ensemble.threshold)[0].tolist())
    assert flagged == union
    assert 0 < len(flagged) < 10_000
    _announce(8, f"ensemble-flagged set equals the union of expert flags on 10000 triples "
                 f"({len(flagged)} flagged)")


# --------------------------------------------------------------------------
# criterion 9: byte-identical experiment reports for fixed seeds


@pytest.fixture(scope="module")
def small_experiments(tmp_path_factory):
    """Two output directories of one small seeded experiment."""
    args = ["experiment", "--seed", "19", "--scale", "0.08", "--epochs", "8", "--model", "all"]
    outs = [tmp_path_factory.mktemp(name) for name in ("a", "b")]
    for out in outs:
        assert evalcli.main(args + ["--out-dir", str(out)]) == 0
    return outs


def test_criterion_9_report_determinism(small_experiments):
    out_a, out_b = small_experiments
    report_a = (out_a / "report.txt").read_bytes()
    report_b = (out_b / "report.txt").read_bytes()
    assert report_a == report_b
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "train.csv").read_bytes() == (out_b / "train.csv").read_bytes()
    _announce(9, f"two runs emitted byte-identical reports ({len(report_a)} bytes)")


# SHA-256 of the small experiment's artifacts that do not depend on the BLAS
# kernel; model files and training logs do, in their last bits, so they are
# left out.  A change that moves one of these on purpose names it here.
GOLDEN = {
    "report.txt": "7fe2871e6111acf76be41abbfb6dd8533078b6e5cb5e2a33a12b5a8c1fcd625b",
    "report.csv": "adee6503059fbbc577ecf9e2672de2d76ede7bcdaa04df58da16ef738de73912",
    "train.csv": "a62618b6d9b3b43e2d0039bbe0c4b647aee28ff7d9086435fe8e9fc6c6b8387e",
    "test.csv": "071a9d946787c46f374c7747aa0854fa9a0c2866b15ed8dd610893038cebe155",
    "traces/benign.packets.csv": "1381ea50b97e453a72c15fd1357129dde78d4fd0a499809ae77f9d790946ffaf",
    "traces/clone.packets.csv": "8e8dc64ef2e5b59b74de94cdd28557fd0fec1ff4c80aba8d02af0102dffa6154",
    "traces/dos.packets.csv": "94e682b18de0ba607abdf8b6775f53f72eb1f39f2041a974b5c3aa3451f28b64",
    "traces/malsub.packets.csv": "9ba0264432d6dc264116e8485023130c089bf43c1b8f04891caeb52ddfc10c24",
    "flows/benign.flows.csv": "76fe3417c7e783583e454a4593c628ca3882f825654cc474ae73b5d2874e8089",
    "flows/clone.flows.csv": "656b5741e10e4507cd06a56e0181a2d24188f6e0416055082f64978725d9ca03",
    "flows/dos.flows.csv": "9290d88c8ed49d3e67b5c53c4d4589e9803686435182660d345e49e012f8df17",
    "flows/malsub.flows.csv": "7138154de1c0e9ee0510fd37eb40c03ceca2628093dd8015f27416cd56459339",
}


def test_golden_artifacts(small_experiments):
    out = small_experiments[0]
    paths = [out / name for name in ("report.txt", "report.csv", "train.csv", "test.csv")]
    paths += sorted(out.glob("traces/*.packets.csv")) + sorted(out.glob("flows/*.flows.csv"))
    digests = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}
    assert digests == GOLDEN


# Every file `experiment` writes, sorted.  Each is read by a verb, a test or
# `perfbench/checks.py`, or named in the README as an output; a file added
# here says which.
EXPERIMENT_OUTPUTS = [
    "dataset.manifest.json",
    "flows/benign.flows.csv",
    "flows/clone.flows.csv",
    "flows/dos.flows.csv",
    "flows/features.txt",
    "flows/malsub.flows.csv",
    "models/ensemble.model.txt",
    "models/expert-clone.model.txt",
    "models/expert-clone.training.csv",
    "models/expert-dos.model.txt",
    "models/expert-dos.training.csv",
    "models/expert-malsub.model.txt",
    "models/expert-malsub.training.csv",
    "models/single.model.txt",
    "models/single.training.csv",
    "report.csv",
    "report.txt",
    "single.histogram.csv",
    "test.csv",
    "timing.csv",
    "traces/benign.config.txt",
    "traces/benign.packets.csv",
    "traces/clone.config.txt",
    "traces/clone.packets.csv",
    "traces/dos.config.txt",
    "traces/dos.packets.csv",
    "traces/malsub.config.txt",
    "traces/malsub.packets.csv",
    "train.csv",
]


def test_experiment_writes_only_its_outputs(small_experiments):
    out = small_experiments[0]
    assert sorted(path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file()) == EXPERIMENT_OUTPUTS


# The seed-7 split under each address regime: SHA-256 of its train.csv and
# test.csv, and the footnote the regime adds after the cache's own (the label
# rules' notes and the router count) and before the constant features'.
REGIME_GOLDEN = {
    "shift:1": ("8e9a2edf1ec10d2f3d04e7301a12404c78ac06052f3a41b4e8aeb8e01f6e3ee7",
                "46426548079813c5acfc37f72098fc9fb3ba289d1cdbaddfdec8e8ba4d618057",
                "addresses shifted by 1 across train and test"),
    "switch:5,6": ("348423193b187262df9ab78eac25976e414c0939fb4eb228579db803c0448f78",
                   "1eee3ad66c07fdfa52226d0df450b27b42f6ad88068e64fc6f79be3a0c897298",
                   "addresses 5 and 6 switched in the test split"),
    "randomize": ("348423193b187262df9ab78eac25976e414c0939fb4eb228579db803c0448f78",
                  "c8d2fdd6edc9d280fc28c5a4219970210d0e247eba31d4e5e2b82bf6d7776648",
                  "test-split addresses reassigned per session from the subnet range"),
}
SEED7_FOOTNOTES = [
    "labeling combination clone/source_only is outside the documented reliable set",
    "labeling combination malsub/bidirectional is outside the documented reliable set",
    "removed 1000 router session(s)",
]
SEED7_CONSTANT = (
    "constant feature(s) normalized to zero: Protocol, Fwd Pkt Len Min, Bwd Pkt Len Min, Fwd PSH Flags, "
    "Bwd PSH Flags, Fwd URG Flags, Bwd URG Flags, Pkt Len Min, FIN Flag Cnt, SYN Flag Cnt, RST Flag Cnt, "
    "PSH Flag Cnt, ACK Flag Cnt, URG Flag Cnt, CWE Flag Cnt, ECE Flag Cnt, Down/Up Ratio, Bwd Byts/b Avg, "
    "Bwd Pkts/b Avg, Bwd Blk Rate Avg, Init Fwd Win Byts, Init Bwd Win Byts, Fwd Seg Size Min, Active Std, "
    "Idle Mean, Idle Std, Idle Max, Idle Min"
)


@pytest.mark.parametrize("spec", REGIME_GOLDEN)
def test_address_regime_golden_split(plan, cache, spec, tmp_path):
    footnotes = list(cache.footnotes)
    train_ds, test_ds, _ = evalcli.build_datasets(replace(plan, anonymize=spec), cache, footnotes, {})
    evalcli.write_split(train_ds, test_ds, tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("train.csv", "test.csv"))
    train_sha, test_sha, note = REGIME_GOLDEN[spec]
    assert digests == (train_sha, test_sha)
    assert footnotes == SEED7_FOOTNOTES + [note, SEED7_CONSTANT]


def test_reports_do_not_depend_on_the_blas_kernel(tmp_path):
    # Model files may differ in their last bits between OpenBLAS kernels;
    # what the run reports, and the data it reports on, may not.
    src = str(Path(evalcli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    outs = {"default": tmp_path / "default", "Haswell": tmp_path / "haswell"}
    for core, out in outs.items():
        child_env = env if core == "default" else {**env, "OPENBLAS_CORETYPE": core}
        done = subprocess.run([sys.executable, "-m", "ddsids", "experiment", "--seed", "7", "--scale", "0.08",
                               "--out-dir", str(out)], capture_output=True, text=True, env=child_env, timeout=300)
        assert done.returncode == 0, done.stderr
    cores = {core: json.loads((out / "dataset.manifest.json").read_text())["environment"]["openblas_core"]
             for core, out in outs.items()}
    if cores["default"] == cores["Haswell"]:
        pytest.skip(f"both runs used the {cores['default']} kernels: not a DYNAMIC_ARCH OpenBLAS, "
                    "or OPENBLAS_CORETYPE was not honoured")
    names = ["report.txt", "report.csv", "train.csv", "test.csv"]
    names += [p.relative_to(outs["default"]).as_posix() for p in sorted(outs["default"].glob("*/*.csv"))
              if p.parent.name in ("traces", "flows")]
    for name in names:
        assert (outs["default"] / name).read_bytes() == (outs["Haswell"] / name).read_bytes(), name
    # The lasso's small solves go through LAPACK: its selection may not move
    # either, though its scores may differ in their last bits.
    train = outs["default"] / "train.csv"
    for core, out in outs.items():
        child_env = env if core == "default" else {**env, "OPENBLAS_CORETYPE": core}
        done = subprocess.run([sys.executable, "-m", "ddsids", "select", "--train", str(train), "--method", "lasso",
                               "--k", "20", "--seed", "7", "--out-dir", str(out / "select")],
                              capture_output=True, text=True, env=child_env, timeout=300)
        assert done.returncode == 0, done.stderr
    selected = {core: out / "select" for core, out in outs.items()}
    assert (selected["default"] / "train.top20.csv").read_bytes() == (selected["Haswell"] / "train.top20.csv").read_bytes()
    ranked = {core: [line.rsplit(",", 1)[0] for line in (path / "scores-lasso.csv").read_text().splitlines()]
              for core, path in selected.items()}
    assert ranked["default"] == ranked["Haswell"]


# --------------------------------------------------------------------------
# criterion 10: shape gate


MUTATED_SHAPES = [
    # width increases after the input layer
    [78, 80, 64, 39, 1],
    [78, 78, 79, 39, 1],
    [78, 78, 64, 65, 1],
    [78, 78, 64, 39, 40, 1],
    [78, 100, 90, 80, 1],
    [78, 78, 39, 64, 1],
    [20, 30, 20, 10, 1],
    [78, 78, 64, 70, 60, 1],
    # two hidden layers
    [78, 64, 32, 1],
    [78, 78, 39, 1],
    [78, 50, 25, 1],
    [20, 20, 10, 1],
    [78, 10, 5, 1],
    [5, 5, 5, 1],
    # six hidden layers
    [78, 78, 70, 64, 50, 39, 18, 1],
    [78, 78, 78, 78, 78, 78, 78, 1],
    [78, 70, 60, 50, 40, 30, 20, 1],
    [20, 20, 18, 16, 14, 12, 10, 1],
    [78, 64, 50, 39, 28, 18, 9, 1],
    [10, 10, 9, 8, 7, 6, 5, 1],
]


def test_criterion_10_shape_gate():
    assert detector.validate_shape([78, 78, 64, 39, 1]) == []
    assert detector.validate_shape([78, 78, 39, 18, 1]) == []
    assert len(MUTATED_SHAPES) == 20
    for shape in MUTATED_SHAPES:
        violations = detector.validate_shape(shape)
        assert violations, f"{shape} was not rejected"
        hidden = len(shape) - 2
        if hidden in (3, 4):
            assert any("widens" in v for v in violations), shape
        else:
            assert any("hidden layer count" in v for v in violations), shape
    # the training gate enforces the same rule
    from ddsids.preprocess import Dataset

    ds = Dataset(
        matrix=np.random.default_rng(0).uniform(0, 1, (40, 78)),
        labels=["benign" if i % 2 else "dos" for i in range(40)],
        feature_names=[f"f{i}" for i in range(78)],
        norm_min=np.zeros(78),
        norm_max=np.ones(78),
    )
    with pytest.raises(ValueError, match="invalid network shape"):
        detector.train(ds, [78, 64, 32, 1], TrainConfig(epochs=1))
    _announce(10, "both reference shapes accepted; all 20 mutated shapes rejected "
                  "with rule-specific messages")
