"""Metrics, experiment orchestration, and the command-line surface.

Confusion counting follows the benign-positive convention used throughout:
tp = benign classified benign, fp = benign flagged as attack (false alarm),
tn = attack flagged as attack (detected), fn = attack classified benign
(missed).  Detection rate is tn / (tn + fn).

An experiment runs simulate -> meter -> preprocess -> (optional feature
selection) -> train -> evaluate and renders one table row per model, in the
style of the detection-result tables: per-attack experts on benign+attack
test rows, the single universal model and the OR-adjudicated ensemble on the
full test set.  Reports carry their confusion counts so every metric is
recomputable; the wall time of each stage goes to a separate timing sidecar
so report bytes stay deterministic for fixed seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import detector, featsel, flowmeter, parallel, preprocess, simnet
from .detector import DetectorModel, EnsembleModel, TrainConfig
from .flowmeter import FlowTable
from .preprocess import IP_MODES, Dataset
from .simnet import ScenarioConfig

OUT_DIR_ENV = "DDSIDS_OUT_DIR"
CLI_TOP_K = 20  # features `ddsids select` keeps by default
HISTOGRAM_BINS = 20  # equal-width score bins over [0, 1]
EXPERT_ROW_NAMES = {"dos": "DoS", "clone": "Clone", "malsub": "Malicious Subscriber"}


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def benign_total(self) -> int:
        return self.tp + self.fp

    @property
    def attack_total(self) -> int:
        return self.tn + self.fn


def metrics(counts: ConfusionCounts) -> tuple[float, float | None]:
    """(accuracy %, detection rate %), each rounded to 2 decimals; detection
    is None when the test set carries no attack rows."""
    if counts.total == 0:
        raise ValueError("metrics need at least one classified row")
    accuracy = round(100.0 * (counts.tp + counts.tn) / counts.total, 2)
    if counts.attack_total == 0:
        return accuracy, None
    detection = round(100.0 * counts.tn / counts.attack_total, 2)
    return accuracy, detection


def confusion_from(labels: Sequence[str], predicted_benign: np.ndarray) -> ConfusionCounts:
    truth_benign = np.array([lab == "benign" for lab in labels])
    predicted_benign = np.asarray(predicted_benign, dtype=bool)
    return ConfusionCounts(
        tp=int(np.sum(truth_benign & predicted_benign)),
        fp=int(np.sum(truth_benign & ~predicted_benign)),
        tn=int(np.sum(~truth_benign & ~predicted_benign)),
        fn=int(np.sum(~truth_benign & predicted_benign)),
    )


@dataclass(frozen=True)
class ExperimentPlan:
    ip_mode: str = "both"
    feature_k: int = 78
    model: str = "all"  # all | experts | single | ensemble | expert:<attack>
    seed: int = 7
    split_fraction: float = 0.5
    epochs: int = 40
    anonymize: str = "none"  # none | shift:<k> | switch:<a>,<b> | randomize
    selection_method: str = "consensus"
    scale: float = 1.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.ip_mode not in IP_MODES:
            raise ValueError(f"ip_mode must be one of {IP_MODES}")
        if not 0 < self.scale <= 1.0:
            raise ValueError("scale must be within (0, 1]")
        if not 0 < self.split_fraction < 1:
            raise ValueError("split_fraction must be within (0, 1)")
        if self.feature_k < 1:
            raise ValueError("feature_k must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        TrainConfig(epochs=self.epochs)  # checks the epoch ceiling
        if self.selection_method not in SELECTION_METHODS:
            raise ValueError(f"unknown selection method {self.selection_method!r}; known: {', '.join(SELECTION_METHODS)}")
        _wanted_models(self)
        kind, args = preprocess.parse_anonymize(self.anonymize)
        # The plan's traffic holds the subnet hosts, and preprocessing strips the routers.
        hosts = [h for h in simnet.SUBNET_HOSTS if h not in simnet.ROUTER_HOSTS]
        if kind == "switch" and (outside := [a for a in args if a not in hosts]):
            raise ValueError(f"switch pair addresses outside the subnet hosts {hosts}: {outside}")

    def seed_for(self, use: str) -> int:
        """The seed of a seeded use of the plan, derived from the master seed:
        a scenario's trace, "split", "expert:<attack>", "single" or "randomize"."""
        return self.seed * 1000 + _SEED_OFFSETS[use]


# An expert's offset follows its attack's place in EXPERT_ATTACKS, whichever experts a plan trains.
_SEED_OFFSETS = {**{name: 1 + i for i, name in enumerate(simnet.SCENARIOS)}, "split": 10, "single": 24, "randomize": 30,
                 **{f"expert:{attack}": 21 + i for i, attack in enumerate(detector.EXPERT_ATTACKS)}}


def scenario_configs(plan: ExperimentPlan) -> dict[str, ScenarioConfig]:
    """Desk-scale sizing of every scenario: roughly 3.5k benign and 350..460
    per-attack test sessions at the default 50/50 split."""
    # scenario: duration (s) and relaunches at scale 1, and relaunch period (s),
    # largest trace first (seed 7: 135,788 / 90,362 / 58,094 / 55,824 packets),
    # so that fork_map's round-robin deals two workers near-even loads.
    sizing = {"clone": (8500.0, 770, 11.0), "benign": (6900.0, 0, 1.0), "dos": (425.0, 700, 0.6),
              "malsub": (6100.0, 920, 6.6)}
    return {name: ScenarioConfig(name, duration * plan.scale, relaunch_period=period,
                                 relaunch_count=max(1, int(round(count * plan.scale))) if count else 0,
                                 rng_seed=plan.seed_for(name))
            for name, (duration, count, period) in sizing.items()}


@dataclass
class ReportRow:
    name: str
    counts: ConfusionCounts
    accuracy: float
    detection: float | None


@dataclass
class ExperimentReport:
    title: str
    rows: list[ReportRow]
    footnotes: list[str] = field(default_factory=list)
    timing: dict[str, float] = field(default_factory=dict)

    def row(self, name: str) -> ReportRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def text(self) -> str:
        width = max([len(r.name) for r in self.rows] + [len("model")])
        lines = [f"# {self.title}"]
        lines.append(
            f"{'model'.ljust(width)}  {'TP':>6} {'FP':>6} {'TN':>6} {'FN':>6} "
            f"{'Accuracy':>9} {'Detection rate':>15}"
        )
        for r in self.rows:
            det = "n/a" if r.detection is None else f"{r.detection:.2f}%"
            lines.append(
                f"{r.name.ljust(width)}  {r.counts.tp:>6} {r.counts.fp:>6} "
                f"{r.counts.tn:>6} {r.counts.fn:>6} {r.accuracy:>8.2f}% {det:>15}"
            )
        for note in self.footnotes:
            lines.append(f"# note: {note}")
        return "\n".join(lines) + "\n"

    def csv(self) -> str:
        lines = ["model,tp,fp,tn,fn,accuracy_pct,detection_rate_pct"]
        for r in self.rows:
            det = "" if r.detection is None else f"{r.detection:.2f}"
            lines.append(
                f'"{r.name}",{r.counts.tp},{r.counts.fp},{r.counts.tn},{r.counts.fn},'
                f"{r.accuracy:.2f},{det}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class PipelineCache:
    """Labeled, stripped, time/addr-encoded flows shared across experiments,
    each scenario's name, packets and flows, the router sessions stripped from
    them, the wall time of the stages that built them, and the feature
    rankings already computed on splits of them."""

    flows: FlowTable
    scenarios: list[dict]
    router_sessions_removed: int = 0
    timing: dict[str, float] = field(default_factory=dict)
    rankings: dict[tuple, featsel.FeatureRanking] = field(default_factory=dict)

    @property
    def footnotes(self) -> list[str]:
        removed = self.router_sessions_removed
        notes = preprocess.rule_notes(s["name"] for s in self.scenarios)
        return notes + ([f"removed {removed} router session(s)"] if removed else [])


@contextmanager
def _stage(name: str, timing: dict[str, float]):
    """Runs one pipeline stage: glibc's mmap threshold is pinned before it
    (`parallel.pin_mmap_threshold`), an error raised inside is tagged with
    the stage's name, the heap it freed goes back to the OS
    (`parallel.trim_heap`), and its wall time, the trim included, is added
    to timing[f"{name}_s"]."""
    started = time.perf_counter()
    parallel.pin_mmap_threshold()
    try:
        yield
    except _StageError:
        raise
    except Exception as exc:
        raise _StageError(f"stage {name}: {exc}") from exc
    finally:
        parallel.trim_heap()
        timing[f"{name}_s"] = timing.get(f"{name}_s", 0.0) + time.perf_counter() - started


class _StageError(RuntimeError):
    pass


def labelled_scenarios(flows_of: Callable, tasks: Sequence[tuple[int, str, object]],
                       flow_dir: Path | None = None) -> list[tuple[str, FlowTable]]:
    """Each scenario's flows, labelled: (name, flows) in position order.  A
    task is (position, name, source), and `flows_of(name, source)` gives the
    scenario's flows, which `preprocess.label_scenario` labels and, given
    `flow_dir`, writes to `<flow_dir>/<name>.flows.csv`.  The tasks run side
    by side through `parallel.fork_map`, dealt in the order given."""
    def labelled(task):
        position, name, source = task
        flows = preprocess.label_scenario(name, flows_of(name, source))
        if flow_dir is not None:
            flowmeter.write_flow_csv(flows, flow_dir / f"{name}.flows.csv")
        return position, name, flows

    done = sorted(parallel.fork_map(labelled, tasks), key=lambda result: result[0])
    return [(name, flows) for _, name, flows in done]


def pool_scenarios(scenarios: Sequence[tuple[str, FlowTable]]) -> tuple[FlowTable, int, list[dict]]:
    """The labelled scenarios pooled in the order given, which
    `preprocess.pool`'s stable sort depends on: (pooled flows, router
    sessions removed, each scenario's name, packets and flows).  A
    scenario's packets are those its flows count in both directions."""
    pooled, removed = preprocess.pool(FlowTable.concat([flows for _, flows in scenarios]))
    sizes = [{"name": name, "packets": _packets(flows), "flows": len(flows)} for name, flows in scenarios]
    return pooled, removed, sizes


def _packets(flows: FlowTable) -> int:
    columns = [flowmeter.FEATURE_INDEX[name] for name in ("Tot Fwd Pkts", "Tot Bwd Pkts")]
    return int(flows.features[:, columns].sum())


def _simulated(config: ScenarioConfig, out: Path | None) -> simnet.PacketTrace:
    """A scenario's trace; given `out`, its packets and its config are
    written there as `<scenario>.packets.csv` and `<scenario>.config.txt`."""
    trace = simnet.generate(config)
    if out is not None:
        simnet.write_packet_csv(trace, out / f"{config.scenario}.packets.csv")
        simnet.save_scenario_config(config, out / f"{config.scenario}.config.txt")
    return trace


def _simulated_flows(name: str, config: ScenarioConfig, trace_dir: Path | None) -> FlowTable:
    """A scenario's trace (`_simulated`), metered; the trace dies here.  An
    error names the scenario."""
    try:
        return flowmeter.meter(_simulated(config, trace_dir))
    except Exception as exc:  # the stage reports it; the scenario is named here, where it is known
        raise RuntimeError(f"scenario {name}: {exc}") from exc


def build_cache(plan: ExperimentPlan, out_dir: Path | None = None) -> PipelineCache:
    """Every scenario simulated, metered and labelled, each in its own forked
    worker (`parallel.fork_map`), then pooled in SCENARIOS order.  Given an
    `out_dir`, each trace, config and flow table goes under its `traces/` and
    `flows/`, with the pooled flows and the feature names."""
    timing: dict[str, float] = {}
    trace_dir = flow_dir = None
    if out_dir is not None:
        trace_dir, flow_dir = out_dir / "traces", out_dir / "flows"
        trace_dir.mkdir(parents=True, exist_ok=True)
        flow_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(simnet.SCENARIOS.index(name), name, config) for name, config in scenario_configs(plan).items()]
    with _stage("scenarios", timing):
        scenarios = labelled_scenarios(partial(_simulated_flows, trace_dir=trace_dir), tasks, flow_dir)
    with _stage("preprocess", timing):
        pooled, removed, sizes = pool_scenarios(scenarios)
        if flow_dir is not None:
            flowmeter.write_flow_csv(pooled, flow_dir / "pooled.flows.csv")
            flowmeter.write_feature_names(flow_dir / "features.txt")
    return PipelineCache(flows=pooled, scenarios=sizes, router_sessions_removed=removed, timing=timing)


def build_datasets(
    plan: ExperimentPlan, cache: PipelineCache, footnotes: list[str], timing: dict[str, float]
) -> tuple[Dataset, Dataset, featsel.FeatureRanking | None]:
    """The plan's train and test matrices, projected onto the top-k features
    of the ranking that selected them; that ranking, or None when every
    feature is kept."""
    with _stage("preprocess", timing):
        train_flows, test_flows = preprocess.split_flows(cache.flows, plan.split_fraction, plan.seed_for("split"))
        train_flows, test_flows, note = preprocess.anonymize(train_flows, test_flows, plan.anonymize,
                                                             plan.seed_for("randomize"))
        if note:
            footnotes.append(note)
        train_ds, test_ds = preprocess.build_dataset_from_split(
            train_flows,
            test_flows,
            shuffle_seed=plan.seed_for("split"),
            ip_mode=plan.ip_mode,
        )
        if train_ds.constant_features:
            footnotes.append(
                "constant feature(s) normalized to zero: " + ", ".join(train_ds.constant_features)
            )
    ranking = None
    if plan.feature_k < train_ds.width - _n_address_columns(train_ds):
        with _stage("select", timing):
            ranking = compute_ranking(train_ds, plan.selection_method, plan.seed, cache.rankings)
            train_ds = featsel.select(train_ds, ranking, plan.feature_k)
            test_ds = test_ds.project(train_ds.feature_names)
            footnotes.append(
                f"projected to top-{plan.feature_k} features by {plan.selection_method}"
            )
    return train_ds, test_ds, ranking


def compute_ranking(train_ds: Dataset, method: str, seed: int, memo: dict) -> featsel.FeatureRanking:
    """One of the four ranking methods, or their rank-averaged consensus.

    A ranking already in `memo` for the same method, seed and training split
    is returned instead of being computed again.  The key is the content of
    the split (names, labels and a digest of the matrix), so it holds however
    the split was built.
    """
    key = (
        method,
        seed,
        tuple(train_ds.feature_names),
        tuple(train_ds.labels),
        hashlib.blake2b(np.ascontiguousarray(train_ds.matrix).data).hexdigest(),
    )
    if key not in memo:
        memo[key] = _rank(train_ds, method, seed)
    return memo[key]


# The single ranking methods, in the order the consensus averages them; each
# looks its `featsel.rank_*` up when called, so a patched one is what runs.
_RANKERS = {
    "lasso": lambda ds, seed: featsel.rank_lasso(ds, seed),
    "rfe": lambda ds, seed: featsel.rank_rfe(ds),
    "univariate": lambda ds, seed: featsel.rank_univariate(ds),
    "importance": lambda ds, seed: featsel.rank_importance(ds, seed),
}
SELECTION_METHODS = ("consensus", *_RANKERS)


# The order `_rankings` deals the methods in.  fork_map gives task i to worker
# i % workers, so on two CPUs importance, which trains a detector and takes
# as long as the other three together, runs beside univariate alone.
_DEAL = ("lasso", "importance", "rfe", "univariate")


def _rankings(train_ds: Dataset, seed: int) -> list[featsel.FeatureRanking]:
    """Every single method's ranking of the split, in `_RANKERS` order, the
    methods run side by side (`parallel.fork_map`)."""
    ranked = dict(zip(_DEAL, parallel.fork_map(lambda method: _RANKERS[method](train_ds, seed), _DEAL)))
    return [ranked[method] for method in _RANKERS]


def _rank(train_ds: Dataset, method: str, seed: int) -> featsel.FeatureRanking:
    if method != "consensus":
        with parallel.one_blas_thread():
            return _RANKERS[method](train_ds, seed)
    rankings = _rankings(train_ds, seed)
    names = train_ds.feature_names
    mean_pos = {n: float(np.mean([r.ranked_names.index(n) for r in rankings])) for n in names}
    ranked = sorted(names, key=lambda n: (mean_pos[n], names.index(n)))
    scores = {n: float(len(names) - mean_pos[n]) for n in names}
    flagged = [f"{r.method}: {entry}" for r in rankings for entry in r.flagged]
    return featsel.FeatureRanking("consensus", ranked, scores, flagged)


def _n_address_columns(ds: Dataset) -> int:
    return sum(1 for n in ds.feature_names if n in (preprocess.SRC_IP_COL, preprocess.DST_IP_COL))


def _wanted_models(plan: ExperimentPlan) -> tuple[list[str], bool, bool]:
    """(expert attacks, train single, build ensemble)."""
    experts = list(detector.EXPERT_ATTACKS)
    kinds = {"all": (experts, True, True), "experts": (experts, False, False), "ensemble": (experts, False, True),
             "single": ([], True, False)}
    if plan.model in kinds:
        return kinds[plan.model]
    if plan.model.startswith("expert:"):
        attack = plan.model.split(":", 1)[1]
        if attack not in detector.EXPERT_ATTACKS:
            raise ValueError(f"unknown expert {attack!r}")
        return [attack], False, False
    raise ValueError(f"unknown model kind {plan.model!r}")


def train_models(
    plan: ExperimentPlan, train_ds: Dataset, timing: dict[str, float]
) -> tuple[dict[str, DetectorModel], DetectorModel | None, EnsembleModel | None]:
    """The experts on benign plus their attack's rows of the training split,
    and the single model on all of it, trained together in lockstep."""
    attacks, want_single, want_ensemble = _wanted_models(plan)
    shape = detector.default_shape(train_ds.width)
    jobs = []
    for attack in attacks:
        rows = np.flatnonzero([lab in ("benign", attack) for lab in train_ds.labels])
        config = TrainConfig(epochs=plan.epochs, seed=plan.seed_for(f"expert:{attack}"))
        jobs.append(detector.TrainJob(train_ds, shape, config, rows))
    if want_single:
        config = TrainConfig(epochs=plan.epochs, seed=plan.seed_for("single"))
        jobs.append(detector.TrainJob(train_ds, shape, config))
    with _stage("train", timing):
        models = detector.train_many(jobs)
        experts = dict(zip(attacks, models))
        single = models[-1] if want_single else None
        ensemble = EnsembleModel(experts=dict(experts)) if want_ensemble else None
    return experts, single, ensemble


def score(model: DetectorModel | EnsembleModel, dataset: Dataset) -> ConfusionCounts:
    """The confusion counts of a model's verdicts on a dataset: the detector's
    benign threshold for a single model, OR-adjudication for an ensemble."""
    if isinstance(model, EnsembleModel):
        predicted_benign = detector.adjudicate(model, dataset.matrix) == "benign"
    else:
        predicted_benign = detector.classify(model, dataset.matrix)
    return confusion_from(dataset.labels, predicted_benign)


def evaluate_models(
    plan: ExperimentPlan,
    test_ds: Dataset,
    experts: dict[str, DetectorModel],
    single: DetectorModel | None,
    ensemble: EnsembleModel | None,
    timing: dict[str, float],
) -> list[ReportRow]:
    """One row per model: each expert on the benign and its attack's test rows,
    the single model and the ensemble on all of them."""
    scored = [(EXPERT_ROW_NAMES[a], experts[a], {"benign", a}) for a in detector.EXPERT_ATTACKS if a in experts]
    if single is not None:
        scored.append(("SINGLE CNN", single, None))
        if plan.anonymize == "randomize":
            # The randomization experiment reads out per-attack confusion of
            # the universal model.
            scored += [(f"SINGLE CNN / {EXPERT_ROW_NAMES[a]}", single, {"benign", a}) for a in detector.EXPERT_ATTACKS]
    if ensemble is not None:
        scored.append(("ENSEMBLE", ensemble, None))
    rows = []
    with _stage("evaluate", timing):
        for name, model, labels in scored:
            # Each subset view is freed once scored, before the next is made,
            # so no two are held at once.
            counts = score(model, test_ds if labels is None else test_ds.subset(labels))
            rows.append(ReportRow(name, counts, *metrics(counts)))
    return rows


def run_experiment(
    plan: ExperimentPlan, out_dir: Path | None = None, cache: PipelineCache | None = None
) -> ExperimentReport:
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    timing: dict[str, float] = {}
    if cache is None:
        cache = build_cache(plan, out_dir)
        timing.update(cache.timing)
    footnotes = list(cache.footnotes)
    train_ds, test_ds, ranking = build_datasets(plan, cache, footnotes, timing)

    experts, single, ensemble = train_models(plan, train_ds, timing)
    rows = evaluate_models(plan, test_ds, experts, single, ensemble, timing)

    title = (
        f"experiment ip_mode={plan.ip_mode} k={plan.feature_k} model={plan.model} "
        f"anonymize={plan.anonymize} seed={plan.seed}"
    )
    report = ExperimentReport(title=title, rows=rows, footnotes=footnotes, timing=timing)

    if out_dir is not None:
        with _stage("report", timing):
            (out_dir / "report.txt").write_text(report.text())
            (out_dir / "report.csv").write_text(report.csv())
            mdir = out_dir / "models"
            mdir.mkdir(exist_ok=True)
            manifest = preprocess.dataset_manifest(train_ds, test_ds, cache.scenarios, plan.anonymize,
                                                   plan.seed_for("randomize"), cache.router_sessions_removed)
            if ranking is not None:
                manifest["selection"] = {"method": plan.selection_method, "k": plan.feature_k,
                                         "flagged": len(ranking.flagged)}
            preprocess.write_manifest(out_dir / "dataset.manifest.json", manifest)
            write_split(train_ds, test_ds, out_dir)
            for attack, model in experts.items():
                detector.save_model(model, mdir / f"expert-{attack}.model.txt")
                detector.write_training_log(model, mdir / f"expert-{attack}.training.csv")
            if single is not None:
                detector.save_model(single, mdir / "single.model.txt")
                detector.write_training_log(single, mdir / "single.training.csv")
                hist = emit_histogram(single, test_ds)
                write_histogram_csv(hist, out_dir / "single.histogram.csv")
            if ensemble is not None:
                detector.save_model(ensemble, mdir / "ensemble.model.txt")
    timing["total_s"] = time.perf_counter() - started
    if out_dir is not None:
        write_timing_csv(timing, out_dir / "timing.csv")
    return report


def write_split(train_ds: Dataset, test_ds: Dataset, out_dir: Path) -> None:
    """`train.csv` and `test.csv` in `out_dir`, written side by side
    through `parallel.fork_map`."""
    parallel.fork_map(lambda job: preprocess.write_dataset_csv(*job),
                      [(train_ds, out_dir / "train.csv"), (test_ds, out_dir / "test.csv")])


def write_timing_csv(timing: dict[str, float], path) -> None:
    lines = [f"{k},{v:.3f}" for k, v in sorted(timing.items())]
    Path(path).write_text("stage,seconds\n" + "\n".join(lines) + "\n")


def emit_histogram(model: DetectorModel, test_ds: Dataset) -> list[tuple[float, int, int]]:
    """(bin_low, expected count, predicted count) per bin of HISTOGRAM_BINS over [0, 1]."""
    if len(test_ds.labels) == 0:
        raise ValueError("empty test set")
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    expected, _ = np.histogram(test_ds.binary_labels(), bins=edges)
    predicted, _ = np.histogram(detector.predict(model, test_ds.matrix), bins=edges)
    return [(float(edges[i]), int(expected[i]), int(predicted[i])) for i in range(HISTOGRAM_BINS)]


def write_histogram_csv(rows: Sequence[tuple[float, int, int]], path) -> None:
    with open(path, "w") as fh:
        fh.write("bin_low,expected_count,predicted_count\n")
        for lo, exp_n, pred_n in rows:
            fh.write(f"{lo:.6f},{exp_n},{pred_n}\n")


def sweep_ip_modes(
    base_plan: ExperimentPlan, out_dir: Path | None = None, cache: PipelineCache | None = None
) -> tuple[dict[str, ExperimentReport], str]:
    """The four address regimes on identical traffic and seeds, plus the
    per-attack detection ordering check (both >= destination_only >= none).
    With an out_dir, the comparison and the stage times of the shared cache
    (`timing.csv`) go to its root."""
    if cache is None:
        cache = build_cache(base_plan, Path(out_dir) if out_dir else None)
    reports = {}
    for mode in IP_MODES:
        plan = replace(base_plan, ip_mode=mode, anonymize="none")
        mode_dir = Path(out_dir) / f"ip-{mode}" if out_dir else None
        reports[mode] = run_experiment(plan, mode_dir, cache)

    lines = ["# detection rate by address regime"]
    header = f"{'model':<22}" + "".join(f"{m:>18}" for m in IP_MODES)
    lines.append(header)
    for name in list(EXPERT_ROW_NAMES.values()) + ["SINGLE CNN", "ENSEMBLE"]:
        cells = []
        for mode in IP_MODES:
            try:
                det = reports[mode].row(name).detection
                cells.append("n/a" if det is None else f"{det:.2f}%")
            except KeyError:
                cells.append("-")
        lines.append(f"{name:<22}" + "".join(f"{c:>18}" for c in cells))
    for attack, row_name in EXPERT_ROW_NAMES.items():
        try:
            chain = [reports[m].row(row_name).detection for m in ("both", "destination_only", "none")]
        except KeyError:
            continue
        ok = all(
            a is not None and b is not None and a >= b - 1e-9 for a, b in zip(chain, chain[1:])
        )
        lines.append(
            f"# ordering both >= destination_only >= none for {row_name}: "
            + ("holds" if ok else "violated")
        )
    comparison = "\n".join(lines) + "\n"
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "ip_mode_comparison.txt").write_text(comparison)
        write_timing_csv(cache.timing, Path(out_dir) / "timing.csv")
    return reports, comparison


def run_anonymize_probes(
    base_plan: ExperimentPlan, out_dir: Path | None = None, cache: PipelineCache | None = None
) -> dict[str, ExperimentReport]:
    """Shift, switch and randomize probes on the with-IP regime."""
    if cache is None:
        cache = build_cache(base_plan, Path(out_dir) if out_dir else None)
    probes = {
        "shift": replace(base_plan, ip_mode="both", anonymize="shift:1"),
        "switch": replace(base_plan, ip_mode="both", anonymize="switch:5,6"),
        "randomize": replace(base_plan, ip_mode="both", anonymize="randomize"),
    }
    reports = {}
    for name, plan in probes.items():
        probe_dir = Path(out_dir) / f"anonymize-{name}" if out_dir else None
        reports[name] = run_experiment(plan, probe_dir, cache)
    return reports


# ---------------------------------------------------------------------------
# command line


def _default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, "ddsids-out")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default=_default_out_dir(), help=f"artifact directory (env {OUT_DIR_ENV})")


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


# The options that set an ExperimentPlan field: flag -> (field, argparse
# keywords, help).  An option that is not given stays out of the parsed
# arguments, so the plan's own default holds.
_PLAN_OPTIONS = {
    "--seed": ("seed", {"type": _seed}, "master seed"),
    "--scale": ("scale", {"type": float}, "shrink default scenario sizing"),
    "--ip-mode": ("ip_mode", {"choices": IP_MODES}, "address columns kept"),
    "--k": ("feature_k", {"type": int}, "features kept by selection"),
    "--model": ("model", {}, "all, experts, single, ensemble or expert:<attack>"),
    "--epochs": ("epochs", {"type": int}, "training epochs"),
    "--split": ("split_fraction", {"type": float}, "training share of the flows"),
    "--anonymize": ("anonymize", {}, "none, shift:<k>, switch:<a>,<b> or randomize"),
    "--method": ("selection_method", {"choices": SELECTION_METHODS}, "feature ranking method"),
}
_PLAN_DEFAULTS = {f.name: f.default for f in fields(ExperimentPlan)}


def _add_plan_options(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        name, kwargs, text = _PLAN_OPTIONS[flag]
        parser.add_argument(flag, dest=name, default=argparse.SUPPRESS,
                            help=f"{text} (default {_PLAN_DEFAULTS[name]})", **kwargs)


def _plan_from_args(args) -> ExperimentPlan:
    """The plan the given plan options set; every other field keeps its default."""
    return ExperimentPlan(**{name: value for name, value in vars(args).items() if name in _PLAN_DEFAULTS})


def _cmd_simulate(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.config:
        config = simnet.load_scenario_config(args.config)
        if "seed" in args:  # the file's own rng_seed holds unless --seed is given
            config = replace(config, rng_seed=args.seed)
    else:
        config = scenario_configs(_plan_from_args(args))[args.scenario or "benign"]
    trace = _simulated(config, out)
    print(f"{out / f'{config.scenario}.packets.csv'}: {len(trace)} packets")
    return 0


def _cmd_meter(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    packets = simnet.read_packet_csv(args.packets)
    flows = flowmeter.meter(packets)
    path = out / (Path(args.packets).stem.replace(".packets", "") + ".flows.csv")
    flowmeter.write_flow_csv(flows, path)
    flowmeter.write_feature_names(out / "features.txt")
    print(f"{path}: {len(flows)} flows")
    return 0


def _cmd_preprocess(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = []
    for position, spec in enumerate(args.flows):
        label_name, _, path = spec.partition("=")
        if not path:
            raise ValueError(f"--flows expects label=path, got {spec!r}")
        if label_name in [name for _, name, _ in tasks]:
            raise ValueError(f"--flows gives the label {label_name!r} twice")
        tasks.append((position, label_name, path))
    scenarios = labelled_scenarios(lambda name, path: flowmeter.read_flow_csv(path), tasks)
    pooled, removed, sizes = pool_scenarios(scenarios)
    if len(classes := sorted(set(pooled.label))) < 2:
        raise ValueError(f"the pooled flows hold only {', '.join(classes) or 'nothing'}; "
                         "a split needs benign and attack flows")
    train_ds, test_ds = preprocess.build_dataset(pooled, split_fraction=args.split, shuffle_seed=args.seed,
                                                 ip_mode=args.ip_mode)
    write_split(train_ds, test_ds, out)
    manifest = preprocess.dataset_manifest(train_ds, test_ds, sizes, "none", None, removed)
    preprocess.write_manifest(out / "dataset.manifest.json", manifest)
    print(f"{out}: train {train_ds.matrix.shape}, test {test_ds.matrix.shape}")
    return 0


def _cmd_select(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_ds = preprocess.read_dataset_csv(args.train)
    if args.method == "all":
        rankings = _rankings(train_ds, args.seed)
        (out / "ranking_report.txt").write_text(featsel.ranking_report(rankings))
        for r in rankings:
            featsel.write_scores_csv(r, out / f"scores-{r.method}.csv")
        print(out / "ranking_report.txt")
        return 0
    k = CLI_TOP_K if args.k is None else args.k
    featsel.check_k(train_ds, k)
    ranking = _rank(train_ds, args.method, args.seed)
    featsel.write_scores_csv(ranking, out / f"scores-{args.method}.csv")
    reduced = featsel.select(train_ds, ranking, k)
    preprocess.write_dataset_csv(reduced, out / f"train.top{k}.csv")
    print(f"selected: {', '.join(reduced.feature_names)}")
    return 0


def _widths(text: str) -> list[int]:
    """A --shape value, comma-separated layer widths; a rejection names the cell."""
    widths = []
    for i, cell in enumerate(text.split(","), 1):
        try:
            widths.append(simnet.parsed(cell, int))
        except ValueError as exc:
            raise ValueError(f"--shape cell {i}: {exc}") from None
    return widths


def _cmd_train(args) -> int:
    if args.epochs < 1:
        raise ValueError("--epochs must be at least 1")
    config = TrainConfig(epochs=args.epochs, seed=args.seed)
    shape = _widths(args.shape) if args.shape else None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_ds = preprocess.read_dataset_csv(args.train)
    model = detector.train(train_ds, shape or detector.default_shape(train_ds.width), config)
    detector.save_model(model, out / "model.txt")
    detector.write_training_log(model, out / "training.csv")
    print(f"{out / 'model.txt'}: final loss {model.loss_curve[-1]:.6f}")
    return 0


def _cmd_evaluate(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = detector.load_model(args.model)
    test_ds = _model_view(model, preprocess.read_dataset_csv(args.test))
    counts = score(model, test_ds)
    if not isinstance(model, EnsembleModel):
        write_histogram_csv(emit_histogram(model, test_ds), out / "histogram.csv")
    acc, det = metrics(counts)
    det_text = "n/a" if det is None else f"{det:.2f}%"
    print(f"tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn} accuracy={acc:.2f}% detection={det_text}")
    return 0


def _model_view(model: DetectorModel | EnsembleModel, test_ds: Dataset) -> Dataset:
    """The test set projected onto the feature columns the model was trained
    on, in the model's order; unchanged for a model that stores no names."""
    wanted = model.feature_names
    if not wanted or wanted == test_ds.feature_names:
        return test_ds
    missing = [n for n in wanted if n not in test_ds.feature_names]
    if missing:
        raise ValueError(f"test set lacks {len(missing)} of the model's features: {', '.join(missing)}")
    return test_ds.project(wanted)


def _cmd_experiment(args) -> int:
    plan = _plan_from_args(args)
    report = run_experiment(plan, Path(args.out_dir))
    print(report.text(), end="")
    return 0


def _cmd_sweep(args) -> int:
    plan = _plan_from_args(args)
    out = Path(args.out_dir)
    cache = build_cache(plan, out)
    reports, comparison = sweep_ip_modes(plan, out, cache)
    print(comparison, end="")
    if not args.skip_anonymize:
        probes = run_anonymize_probes(plan, out, cache)
        for name, report in probes.items():
            print(report.text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddsids",
        description="Simulate pub/sub attack traffic, meter flows, and train neural session detectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate one scenario's packet trace")
    _add_common(p)
    _add_plan_options(p, "--seed", "--scale")
    p.add_argument("--scenario", choices=simnet.SCENARIOS, default=None, help="scenario (default benign)")
    p.add_argument("--config", default=None,
                   help="scenario config file (key = value), instead of --scenario and --scale; "
                        "its rng_seed holds unless --seed is given")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("meter", help="turn a packet trace into flow features")
    _add_common(p)
    p.add_argument("--packets", required=True)
    p.set_defaults(func=_cmd_meter)

    p = sub.add_parser("preprocess", help="label, encode, split, and normalize flow files")
    _add_common(p)
    p.add_argument("--seed", type=_seed, default=ExperimentPlan.seed, help="shuffle seed of the split")
    p.add_argument("--flows", action="append", required=True, metavar="LABEL=PATH",
                   help="flow csv with its scenario label (benign, dos, clone, malsub); repeatable")
    p.add_argument("--ip-mode", choices=IP_MODES, default=ExperimentPlan.ip_mode)
    p.add_argument("--split", type=float, default=0.8)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("select", help="rank features and project a dataset")
    _add_common(p)
    p.add_argument("--seed", type=_seed, default=ExperimentPlan.seed, help="seed of the lasso folds and importance")
    p.add_argument("--train", required=True)
    p.add_argument("--method", choices=(*_RANKERS, "all"), default="univariate")
    p.add_argument("--k", type=int, default=None, help=f"features kept (default {CLI_TOP_K}); not with --method all")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("train", help="train a detector on a dataset csv")
    _add_common(p)
    p.add_argument("--seed", type=_seed, default=ExperimentPlan.seed, help="training seed")
    p.add_argument("--train", required=True)
    p.add_argument("--shape", default=None, help="comma-separated layer widths")
    p.add_argument("--epochs", type=int, default=100)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved model on a dataset csv")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="full pipeline for one regime")
    _add_common(p)
    _add_plan_options(p, *_PLAN_OPTIONS)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep", help="the four address regimes plus anonymization probes")
    _add_common(p)
    _add_plan_options(p, "--seed", "--model", "--epochs", "--split", "--scale")
    p.add_argument("--skip-anonymize", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    return parser


def _clashing_option(args) -> str | None:
    """The usage error of an option the verb would ignore, given another."""
    if args.command == "simulate" and args.config is not None:
        for flag, given in (("--scenario", args.scenario is not None), ("--scale", "scale" in args)):
            if given:
                return f"argument {flag}: not allowed with argument --config"
    if args.command == "select" and args.method == "all" and args.k is not None:
        return "argument --k: not allowed with argument --method all"
    return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    clash = _clashing_option(args)
    if clash:
        parser.error(clash)
    parallel.pin_mmap_threshold()
    try:
        return args.func(args)
    except _StageError as exc:
        print(f"ddsids: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"ddsids: error: {exc}", file=sys.stderr)
        return 1
    finally:
        parallel.trim_heap()


if __name__ == "__main__":
    sys.exit(main())
