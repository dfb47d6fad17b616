"""Output checks for the benchmark workloads, computed apart from ddsids.

Nothing here imports ddsids.  Every check reads the files a round wrote with
its own parsers and recomputes the result another way, or tests a property
the method must have:

* packets and payload bytes are conserved from each trace into its flows;
* a seeded sample of flows is recomputed by the brute-force oracle in
  tests/oracle_flow.py, within that oracle's rule (integer features exact,
  the rest within 1e-9 relative);
* each report row's counts sum to the label counts of its test split, and its
  accuracy and detection rate agree with exact rational arithmetic;
* every saved model's verdicts are recomputed by a numpy forward pass over the
  weights in the model file, and the ensemble's verdicts are the OR of its
  experts' attack votes;
* univariate scores are recomputed by a one-way ANOVA of our own;
* in reduced-k, every ranking is a permutation of its feature names and the
  top-k sets are nested across k.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import importlib.util
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

SCENARIOS = ("benign", "dos", "clone", "malsub")
EXPERT_ROWS = {"dos": "DoS", "clone": "Clone", "malsub": "Malicious Subscriber"}
ORACLE_SAMPLE = 25  # flows per scenario
AMBIGUOUS_SCORE = 1e-9  # |score - threshold| below this may round either way
HEADLINE_PCT = 99
DEFAULT_SEED = 7

Packet = namedtuple("Packet", "ts src_ip src_port dst_ip dst_port proto payload_len header_len flags")


def load_oracle(root: Path):
    spec = importlib.util.spec_from_file_location("oracle_flow", root / "tests" / "oracle_flow.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# readers


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def _canonical(src_ip, src_port, dst_ip, dst_port, proto) -> tuple:
    a, b = (src_ip, int(src_port)), (dst_ip, int(dst_port))
    return (min(a, b), max(a, b), int(proto))


def scan_packets(path: Path, keys: set) -> tuple[int, int, list[Packet]]:
    """(packet count, payload bytes, the packets of the flows keyed in `keys`)."""
    ports = {str(port) for key in keys for (_, port) in key[:2]}
    count = payload = 0
    kept = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != list(Packet._fields):
            raise ValueError(f"{path}: unexpected packet header {header}")
        for line in fh:
            f = line.rstrip("\n").split(",")
            count += 1
            payload += int(f[6])
            if (f[2] in ports or f[4] in ports) and _canonical(*f[1:6]) in keys:
                kept.append(Packet(float(f[0]), f[1], int(f[2]), f[3], int(f[4]),
                                   int(f[5]), int(f[6]), int(f[7]), int(f[8])))
    return count, payload, kept


@dataclass
class Table:
    """A dataset CSV: feature columns, then Label."""

    names: list[str]
    matrix: np.ndarray
    labels: list[str]

    @classmethod
    def read(cls, path: Path) -> "Table":
        header, rows = read_csv(path)
        if header[-1] != "Label":
            raise ValueError(f"{path}: last column is {header[-1]!r}, not Label")
        matrix = np.array([[float(v) for v in r[:-1]] for r in rows]).reshape(len(rows), len(header) - 1)
        return cls(header[:-1], matrix, [r[-1] for r in rows])

    def project(self, names: list[str]) -> "Table":
        return Table(list(names), self.matrix[:, [self.names.index(n) for n in names]], self.labels)

    def rows_labelled(self, labels: set[str]) -> "Table":
        idx = [i for i, lab in enumerate(self.labels) if lab in labels]
        return Table(self.names, self.matrix[idx], [self.labels[i] for i in idx])


@dataclass
class Model:
    feature_names: list[str]
    threshold: float
    layers: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    conv: tuple[np.ndarray, float] | None = None

    def scores(self, X: np.ndarray) -> np.ndarray:
        a = X
        if self.conv is not None:
            kernel, bias = self.conv
            left = np.pad(X, ((0, 0), (1, 0)))[:, :-1]
            right = np.pad(X, ((0, 0), (0, 1)))[:, 1:]
            a = np.maximum(kernel[0] * left + kernel[1] * X + kernel[2] * right + bias, 0.0)
        for i, (W, b) in enumerate(self.layers):
            z = a @ W + b
            a = np.maximum(z, 0.0) if i < len(self.layers) - 1 else z
        z = a[:, 0]
        return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), 1.0 - 1.0 / (1.0 + np.exp(-np.abs(z))))

    def votes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(benign verdict per row, rows too close to the threshold to call)."""
        s = self.scores(X)
        return s >= self.threshold, np.abs(s - self.threshold) < AMBIGUOUS_SCORE


def _hex(text: str) -> list[float]:
    return [float.fromhex(t) for t in text.split()]


def _read_block(lines: list[str], i: int) -> tuple[Model, int]:
    """Parses one `ddsids-model v1` block starting at lines[i]; returns the line after `end`."""
    if lines[i] != "ddsids-model v1":
        raise ValueError(f"expected a model block, got {lines[i]!r}")
    tags: dict[str, str] = {}
    model = Model([], 0.5)
    i += 1
    while lines[i] != "end":
        tag, _, value = lines[i].partition(": ")
        if tag == "layer":
            _, rows, cols = (int(v) for v in value.split())
            W = np.array([_hex(lines[i + 1 + r]) for r in range(rows)]).reshape(rows, cols)
            i += rows + 1
            tag, _, value = lines[i].partition(": ")
            if tag != "bias":
                raise ValueError(f"expected bias line, got {lines[i]!r}")
            model.layers.append((W, np.array(_hex(value))))
        else:
            tags[tag] = value
        i += 1
    model.feature_names = tags["feature_names"].split("|") if tags.get("feature_names") else []
    model.threshold = float.fromhex(tags["threshold"])
    if tags.get("conv", "-") != "-":
        values = _hex(tags["conv"])
        model.conv = (np.array(values[:3]), values[3])
    return model, i + 1


def read_model(path: Path) -> Model | dict[str, Model]:
    """A single model, or an ensemble's experts by attack name."""
    lines = path.read_text().split("\n")
    if lines[0] != "ddsids-ensemble v1":
        return _read_block(lines, 0)[0]
    threshold = float.fromhex(lines[1].partition(": ")[2])
    experts, i = {}, 2
    while i < len(lines) and lines[i].startswith("expert: "):
        attack = lines[i].partition(": ")[2]
        experts[attack], i = _read_block(lines, i + 1)
        experts[attack].threshold = threshold
    return experts


def read_report(path: Path) -> dict[str, dict]:
    with open(path, newline="") as fh:
        return {r["model"]: _count_row(r) for r in csv.DictReader(fh)}


def _count_row(r: dict) -> dict:
    row = {k: int(r[k]) for k in ("tp", "fp", "tn", "fn")}
    row["accuracy"], row["detection"] = r["accuracy_pct"], r["detection_rate_pct"]
    return row


def parse_evaluate_line(text: str) -> dict:
    """`tp=.. fp=.. tn=.. fn=.. accuracy=..% detection=..%` as a report row."""
    fields = dict(tok.split("=", 1) for tok in text.split())
    row = {k: int(fields[k]) for k in ("tp", "fp", "tn", "fn")}
    row["accuracy"] = fields["accuracy"].rstrip("%")
    row["detection"] = "" if fields["detection"] == "n/a" else fields["detection"].rstrip("%")
    return row


# ---------------------------------------------------------------------------
# checks


def check_conservation(scenario: str, packets: int, payload: int, header: list[str], rows: list[list[str]]) -> list[str]:
    col = {n: i for i, n in enumerate(header)}
    flow_packets = sum(float(r[col["Tot Fwd Pkts"]]) + float(r[col["Tot Bwd Pkts"]]) for r in rows)
    flow_bytes = sum(float(r[col["TotLen Fwd Pkts"]]) + float(r[col["TotLen Bwd Pkts"]]) for r in rows)
    problems = []
    if flow_packets != packets:
        problems.append(f"{scenario}: flows hold {flow_packets:.0f} packets, the trace {packets}")
    if flow_bytes != payload:
        problems.append(f"{scenario}: flows hold {flow_bytes:.0f} payload bytes, the trace {payload}")
    return problems


def flow_key_of(header: list[str], row: list[str]) -> tuple:
    col = {n: i for i, n in enumerate(header)}
    return _canonical(row[col["Src IP"]], row[col["Src Port"]], row[col["Dst IP"]], row[col["Dst Port"]],
                      float(row[col["Protocol"]]))


def check_oracle_sample(scenario: str, header: list[str], rows: list[list[str]], packets: list[Packet], oracle) -> list[str]:
    """Compares each row against the oracle's features for the flow with the
    same key and first-packet time, regrouped from the trace's packets."""
    col = {n: i for i, n in enumerate(header)}
    grouped = {}
    for pkts in oracle.oracle_flows(packets):
        first = pkts[0]
        key = _canonical(first.src_ip, first.src_port, first.dst_ip, first.dst_port, first.proto)
        grouped[(key, round(first.ts * 1e6))] = pkts
    problems = []
    for row in rows:
        start = float(row[col["Start Time"]])
        pkts = grouped.get((flow_key_of(header, row), round(start * 1e6)))
        if pkts is None:
            problems.append(f"{scenario}: flow {row[col['Flow ID']]} has no matching packets in the trace")
            continue
        if (pkts[0].src_ip, pkts[0].src_port) != (row[col["Src IP"]], int(row[col["Src Port"]])):
            problems.append(f"{scenario}: flow {row[col['Flow ID']]} has the wrong forward direction")
        for name, want in oracle.oracle_features(pkts, start).items():
            got = float(row[col[name]])
            exact = name in oracle.EXACT_FEATURES or want == 0.0
            if (got != want) if exact else abs(got - want) > 1e-9 * abs(want):
                problems.append(f"{scenario}: flow {row[col['Flow ID']]} {name} = {got!r}, oracle {want!r}")
    return problems


def _pct_matches(printed: str, numer: int, denom: int) -> bool:
    """A two-decimal percentage is within half a unit of the exact value."""
    try:
        value = Fraction(printed)
    except ValueError:
        return False
    return abs(value - Fraction(100 * numer, denom)) <= Fraction(1, 200) + Fraction(1, 10**9)


def check_report_row(name: str, row: dict, label_counts: Counter, attacks: list[str]) -> list[str]:
    tp, fp, tn, fn = row["tp"], row["fp"], row["tn"], row["fn"]
    benign, attack = label_counts["benign"], sum(label_counts[a] for a in attacks)
    problems = []
    if tp + fp != benign or tn + fn != attack:
        problems.append(f"{name}: tp+fp={tp + fp}, tn+fn={tn + fn}; the test split has {benign} benign "
                        f"and {attack} {'/'.join(attacks)} rows")
    if not _pct_matches(row["accuracy"], tp + tn, tp + fp + tn + fn):
        problems.append(f"{name}: accuracy {row['accuracy']}% is not {tp + tn}/{tp + fp + tn + fn}")
    if tn + fn == 0:
        if row["detection"] != "":
            problems.append(f"{name}: detection {row['detection']} printed without attack rows")
    elif not _pct_matches(row["detection"], tn, tn + fn):
        problems.append(f"{name}: detection rate {row['detection']}% is not {tn}/{tn + fn}")
    return problems


def confusion(benign_pred: np.ndarray, labels: list[str]) -> dict:
    truth = np.array([lab == "benign" for lab in labels])
    return {"tp": int(np.sum(truth & benign_pred)), "fp": int(np.sum(truth & ~benign_pred)),
            "tn": int(np.sum(~truth & ~benign_pred)), "fn": int(np.sum(~truth & benign_pred))}


def check_counts(name: str, row: dict, benign_pred: np.ndarray, ambiguous: np.ndarray, labels: list[str]) -> list[str]:
    """Reported counts against recomputed verdicts; a verdict within
    AMBIGUOUS_SCORE of the threshold may have gone either way."""
    mine = confusion(benign_pred, labels)
    slack = int(ambiguous.sum())
    off = {k: row[k] - mine[k] for k in mine if abs(row[k] - mine[k]) > slack}
    return [f"{name}: reported {row} but the model file's verdicts give {mine}"] if off else []


def check_model_row(name: str, row: dict, model: Model, test: Table) -> list[str]:
    if model.feature_names and model.feature_names != test.names:
        test = test.project(model.feature_names)
    benign, ambiguous = model.votes(test.matrix)
    return check_counts(name, row, benign, ambiguous, test.labels)


def check_ensemble_row(row: dict, experts: dict[str, Model], test: Table) -> list[str]:
    """The ensemble flags a row as attack when any expert does."""
    benign = np.ones(len(test.labels), dtype=bool)
    ambiguous = np.zeros(len(test.labels), dtype=bool)
    for attack in sorted(experts):
        votes, unsure = experts[attack].votes(test.matrix)
        benign &= votes
        ambiguous |= unsure
    return check_counts("ENSEMBLE", row, benign, ambiguous, test.labels)


def check_headline(rows: dict[str, dict]) -> list[str]:
    """With-IP experts and ensemble at >= 99 % accuracy and detection."""
    problems = []
    for name in list(EXPERT_ROWS.values()) + ["ENSEMBLE"]:
        r = rows[name]
        total, attacks = r["tp"] + r["fp"] + r["tn"] + r["fn"], r["tn"] + r["fn"]
        if Fraction(100 * (r["tp"] + r["tn"]), total) < HEADLINE_PCT or Fraction(100 * r["tn"], attacks) < HEADLINE_PCT:
            problems.append(f"{name}: below {HEADLINE_PCT}% with addresses: {r}")
    return problems


def anova_f(X: np.ndarray, labels: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, between-group sum of squares, within-group sum of squares) per column."""
    groups = sorted(set(labels))
    member = (np.array(labels)[:, None] == np.array(groups)[None, :]).astype(float)
    sizes = member.sum(axis=0)
    means = (member.T @ X) / sizes[:, None]
    ssb = (sizes[:, None] * (means - X.mean(axis=0)) ** 2).sum(axis=0)
    ssw = ((X - member @ means) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (ssb / (len(groups) - 1)) / (ssw / (len(labels) - len(groups)))
    return f, ssb, ssw


def check_univariate(names: list[str], X: np.ndarray, labels: list[str], scores: dict[str, float],
                     ranked: list[str]) -> list[str]:
    problems = check_permutation("univariate", ranked, names)
    f, ssb, ssw = anova_f(X, labels)
    floor = 1e-12 * ((X * X).sum(axis=0) + 1e-300)
    for j, name in enumerate(names):
        got = scores[name]
        if got == 0.0:
            ok = ssb[j] <= floor[j]
        elif got >= 1e300:
            ok = ssw[j] <= floor[j] and ssb[j] > floor[j]
        else:
            ok = bool(abs(got - f[j]) <= 1e-6 * abs(f[j]))
        if not ok:
            problems.append(f"univariate: {name} scored {got!r}, one-way ANOVA gives {f[j]!r}")
    order = {n: j for j, n in enumerate(names)}
    for a, b in zip(ranked, ranked[1:]):
        if (-scores[a], order[a]) > (-scores[b], order[b]):
            problems.append(f"univariate: {a} ranked above {b} against their scores")
    return problems


def check_permutation(what: str, ranked: list[str], names: list[str]) -> list[str]:
    if len(ranked) != len(names) or set(ranked) != set(names):
        return [f"{what}: ranking of {len(ranked)} names is not a permutation of the {len(names)} features"]
    return []


def check_nested(selected: dict[int, list[str]]) -> list[str]:
    problems = []
    ks = sorted(selected)
    for k in ks:
        if len(set(selected[k])) != k:
            problems.append(f"k={k}: {len(set(selected[k]))} features kept")
    for lo, hi in zip(ks, ks[1:]):
        if not set(selected[lo]) <= set(selected[hi]):
            problems.append(f"top-{lo} is not inside top-{hi}: {sorted(set(selected[lo]) - set(selected[hi]))}")
    return problems


# ---------------------------------------------------------------------------
# per-workload drivers


def check_traffic(out: Path, seed: int, oracle, inputs: list[str]) -> list[str]:
    """Conservation and the oracle sample, for each scenario's trace and flows."""
    problems = []
    rng = np.random.default_rng(seed)
    for scenario in SCENARIOS:
        header, rows = read_csv(out / "flows" / f"{scenario}.flows.csv")
        sample = [rows[i] for i in sorted(rng.choice(len(rows), size=min(ORACLE_SAMPLE, len(rows)), replace=False))]
        keys = {flow_key_of(header, r) for r in sample}
        count, payload, packets = scan_packets(out / "traces" / f"{scenario}.packets.csv", keys)
        inputs.append(f"{scenario}: {count} packets, {payload} payload bytes, {len(rows)} flows")
        problems += check_conservation(scenario, count, payload, header, rows)
        problems += check_oracle_sample(scenario, header, sample, packets, oracle)
    return problems


def check_experiment_dir(out: Path, attacks: list[str], with_single: bool, inputs: list[str]) -> list[str]:
    """Report rows of one experiment directory against its test split and saved models."""
    test = Table.read(out / "test.csv")
    counts = Counter(test.labels)
    inputs.append(f"{out.name}: test rows per label {dict(sorted(counts.items()))}, {len(test.names)} columns")
    rows = read_report(out / "report.csv")
    problems = []
    for attack in attacks:
        name = EXPERT_ROWS[attack]
        problems += check_report_row(name, rows[name], counts, [attack])
        model = read_model(out / "models" / f"expert-{attack}.model.txt")
        problems += check_model_row(name, rows[name], model, test.rows_labelled({"benign", attack}))
    if with_single:
        problems += check_report_row("SINGLE CNN", rows["SINGLE CNN"], counts, attacks)
        problems += check_model_row("SINGLE CNN", rows["SINGLE CNN"], read_model(out / "models" / "single.model.txt"), test)
        problems += check_report_row("ENSEMBLE", rows["ENSEMBLE"], counts, attacks)
        separate = {a: read_model(out / "models" / f"expert-{a}.model.txt") for a in attacks}
        problems += check_ensemble_row(rows["ENSEMBLE"], separate, test)
        problems += check_ensemble_row(rows["ENSEMBLE"], read_model(out / "models" / "ensemble.model.txt"), test)
    return problems


def check_experiment(out: Path, seed: int, record: dict, oracle, inputs: list[str]) -> list[str]:
    problems = check_traffic(out, seed, oracle, inputs)
    problems += check_experiment_dir(out, list(EXPERT_ROWS), with_single=True, inputs=inputs)
    if seed == DEFAULT_SEED:
        problems += check_headline(read_report(out / "report.csv"))
    return problems


def check_reduced_k(out: Path, seed: int, record: dict, oracle, inputs: list[str]) -> list[str]:
    problems = check_traffic(out, seed, oracle, inputs)
    selected = {}
    for kdir in sorted(out.glob("k*"), key=lambda p: int(p.name[1:])):
        k = int(kdir.name[1:])
        problems += check_experiment_dir(kdir, list(EXPERT_ROWS), with_single=False, inputs=inputs)
        selected[k] = read_csv(kdir / "train.csv")[0][:-1]
    problems += check_nested(selected)
    consensus = [r for r in record["rankings"] if r["function"] == "compute_ranking"]
    if len(consensus) != len(selected):
        problems.append(f"{len(consensus)} consensus rankings for {len(selected)} k values")
    for r, (k, names) in zip(consensus, sorted(selected.items())):
        if set(r["ranked_names"][:k]) != set(names):
            problems.append(f"k={k}: kept features are not the consensus top-{k}")
    for r in record["rankings"]:
        problems += check_permutation(r["method"], r["ranked_names"], r["feature_names"])
        if r["method"] == "univariate":
            data = np.load(out / r["dataset"])
            problems += check_univariate(list(data["names"]), data["matrix"], list(data["labels"]),
                                         r["scores"], r["ranked_names"])
    if consensus:
        train = np.load(out / consensus[0]["dataset"])
        inputs.append(f"ranked train rows per label: {dict(sorted(Counter(train['labels'].tolist()).items()))}, "
                      f"{len(train['names'])} features; k = {sorted(selected)}")
    return problems


def check_cli_chain(out: Path, seed: int, record: dict, oracle, inputs: list[str]) -> list[str]:
    problems = check_traffic(out, seed, oracle, inputs)
    train, test = Table.read(out / "data" / "train.csv"), Table.read(out / "data" / "test.csv")
    inputs.append(f"train rows per label: {dict(sorted(Counter(train.labels).items()))}; "
                  f"test: {dict(sorted(Counter(test.labels).items()))}; {len(train.names)} columns")
    header, rows = read_csv(out / "select" / "scores-univariate.csv")
    ranked = [r[1] for r in rows]
    scores = {r[1]: float(r[2]) for r in rows}
    problems += check_univariate(train.names, train.matrix, train.labels, scores, ranked)
    for path in sorted(out.glob("select/train.top*.csv")):
        k = int(path.name[len("train.top"):-len(".csv")])
        kept = read_csv(path)[0][:-1]
        if kept != [n for n in train.names if n in set(ranked[:k])]:
            problems.append(f"{path.name}: columns are not the top-{k} by score in train.csv order")
    ops = {o["name"]: o for o in record["operations"]}
    for name, op in ops.items():
        if not name.startswith("evaluate ") or not op["ok"]:
            continue
        row = parse_evaluate_line(op["stdout"].strip().splitlines()[-1])
        model = read_model(out / name.split(" ", 1)[1] / "model.txt")
        attacks = sorted(set(test.labels) - {"benign"})
        problems += check_report_row(name, row, Counter(test.labels), attacks)
        problems += check_model_row(name, row, model, test)
    return problems


CHECKS = {"experiment": check_experiment, "reduced-k": check_reduced_k, "cli-chain": check_cli_chain}


def report_digest(workload: str, out: Path, record: dict) -> str:
    """The outputs that must repeat byte for byte when a round is re-run on the same seed."""
    if workload == "experiment":
        return (out / "report.csv").read_text()
    if workload == "reduced-k":
        return "".join(p.read_text() for p in sorted(out.glob("k*/report.csv")))
    return "".join(o["stdout"] for o in record["operations"])
