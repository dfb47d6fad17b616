"""Turns labeled flow tables into model-ready datasets.

The pipeline is: label each scenario's flows (`label_scenario`); pool them,
strip router sessions, sort by start time, rewrite the Timestamp feature as
inter-session deltas and encode the addresses down to their varying octet
(`pool`); split them; optionally anonymize them; then build the train/test
matrices.  Session identity metadata (flow id, start time, ports) never
reaches the matrix, and min-max normalization is fitted on the training split
only; test values are clipped into [0, 1].

Every step is a column operation on a ``FlowTable``: labels and router
stripping are masks over the octets of the few addresses in its address
table, the timestamp deltas are one ``np.diff`` over the start times, address
encoding and anonymization rewrite only the address table, the split takes a
per-label quota of the shuffled rows, and the matrix is filled by column
slices.
"""

from __future__ import annotations

import json
import platform
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .flowmeter import FEATURE_NAMES, FEATURE_INDEX, FLOW_BLOCK, FlowTable
from .parallel import openblas_core, usable_cpus
from .simnet import ATTACKER_HOST, ROUTER_HOSTS, SCENARIOS, SUBNET_HOSTS, format_once, read_rows, write_rows

IP_MODES = ("both", "source_only", "destination_only", "none")
SRC_IP_COL = "Src IP"
DST_IP_COL = "Dst IP"
SRC_PORT_COL = "Src Port"
DST_PORT_COL = "Dst Port"

# Directional labeling combinations reported as reliable; anything else is
# accepted with a note in the report.
DOCUMENTED_RULE_COMBOS = {
    ("dos", "bidirectional"),
    ("dos", "destination_only"),
    ("dos", "source_only"),
    ("clone", "destination_only"),
}

# The directionality each attack scenario's flows are labelled by (`label`);
# benign traces keep the meter's "benign" label.
LABEL_RULES = {"dos": "bidirectional", "clone": "source_only", "malsub": "bidirectional"}


def _octet(address: str) -> int:
    return int(address.rsplit(".", 1)[-1])


def _used_addresses(flows: FlowTable) -> list[int]:
    return np.unique(np.concatenate([flows.src, flows.dst])).tolist()


def _octets(flows: FlowTable, parse=_octet) -> np.ndarray:
    """`parse` of each address-table entry some flow uses; -1 for the others."""
    octets = np.full(len(flows.addresses), -1, dtype=np.int64)
    for i in _used_addresses(flows):
        octets[i] = parse(flows.addresses[i])
    return octets


def label(flows: FlowTable, attack: str, directionality: str) -> FlowTable:
    """Label `attack` the flows whose source (source_only), destination
    (destination_only) or either address (bidirectional) is the attacker host,
    `simnet.ATTACKER_HOST`; everything else is benign."""
    malicious = _octets(flows) == ATTACKER_HOST
    src_hit, dst_hit = malicious[flows.src], malicious[flows.dst]
    hit = {"source_only": src_hit, "destination_only": dst_hit}.get(directionality, src_hit | dst_hit)
    return flows.with_columns(label=np.array(["benign", attack], dtype=object)[hit.astype(np.intp)])


def label_scenario(name: str, flows: FlowTable) -> FlowTable:
    """Label one scenario's flows by its rule in LABEL_RULES and prefix their
    ids with the scenario name."""
    if name != "benign" and name not in LABEL_RULES:
        raise ValueError(f"scenario {name!r} is not one of: benign, {', '.join(LABEL_RULES)}")
    if name in LABEL_RULES:
        flows = label(flows, name, LABEL_RULES[name])
    return flows.with_columns(flow_id=[f"{name}:{i}" for i in flows.flow_id.tolist()])


def rule_notes(names: Iterable[str]) -> list[str]:
    """A note for each named scenario whose label rule is outside
    DOCUMENTED_RULE_COMBOS, in the order named."""
    return [f"labeling combination {name}/{LABEL_RULES[name]} is outside the documented reliable set"
            for name in names if name in LABEL_RULES and (name, LABEL_RULES[name]) not in DOCUMENTED_RULE_COMBOS]


def pool(flows: FlowTable) -> tuple[FlowTable, int]:
    """Strip router sessions, sort by start time (stably) and encode
    timestamps and addresses; returns (pooled flows, router sessions removed)."""
    kept, removed = strip_router_flows(flows)
    kept = kept[np.argsort(kept.start_time, kind="stable")]
    return encode_ips(encode_timestamps(kept)), removed


def strip_router_flows(flows: FlowTable) -> tuple[FlowTable, int]:
    """Drop flows touching the router hosts (`simnet.ROUTER_HOSTS`); returns
    (kept, removed count)."""
    router = np.isin(_octets(flows), ROUTER_HOSTS)
    keep = ~(router[flows.src] | router[flows.dst])
    return flows[keep], len(flows) - int(keep.sum())


def encode_timestamps(flows: FlowTable) -> FlowTable:
    """Rewrite the Timestamp feature: 0 for the earliest session, then the
    start delta (seconds) to the immediately preceding session."""
    start = flows.start_time
    unordered = np.flatnonzero(start[1:] < start[:-1])
    if len(unordered):
        raise ValueError(f"flows not ordered by start time at index {unordered[0] + 1}")
    features = flows.features.copy()
    features[:, FEATURE_INDEX["Timestamp"]] = 0.0
    features[1:, FEATURE_INDEX["Timestamp"]] = np.diff(start)
    return flows.with_columns(features=features)


def encode_ips(flows: FlowTable) -> FlowTable:
    """Reduce addresses to their only varying octet (10.0.5.5 -> 5)."""
    prefixes = {flows.addresses[i].rsplit(".", 1)[0] for i in _used_addresses(flows)}
    if len(prefixes) > 1:
        raise ValueError(f"mixed subnets cannot be octet-encoded: {sorted(prefixes)}")
    return flows.with_columns(addresses=[str(octet) for octet in _octets(flows).tolist()])


def parse_anonymize(spec: str) -> tuple[str, tuple[int, ...]]:
    """The kind and arguments of an address regime: ("none", ()),
    ("randomize", ()), ("shift", (k,)) from `shift:<k>` with k >= 1, or
    ("switch", (a, b)) from `switch:<a>,<b>` with a != b.  Raises ValueError
    on any other spec."""
    if spec in ("none", "randomize"):
        return spec, ()
    kind, _, arg = spec.partition(":")
    try:
        if kind == "shift":
            if (k := int(arg)) < 1:
                raise ValueError("shift_by must be >= 1")
            return kind, (k,)
        if kind == "switch":
            a, b = (int(x) for x in arg.split(","))
            if a == b:
                raise ValueError("switch requires a pair of two distinct addresses")
            return kind, (a, b)
    except ValueError as exc:
        raise ValueError(f"bad anonymize spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown anonymize spec {spec!r}; expected none, shift:<k>, switch:<a>,<b> or randomize")


def anonymize(train: FlowTable, test: FlowTable, spec: str, seed: int) -> tuple[FlowTable, FlowTable, str | None]:
    """An encoded split under the address regime `spec` (`parse_anonymize`),
    and the footnote that names it, None for "none".

    shift      the addresses observed in either split move k steps along
               their sorted list, wrapping at the end;
    switch     the two addresses of the pair trade places in the test split;
    randomize  each test flow draws its source from the subnet hosts
               (`simnet.SUBNET_HOSTS`), then its destination among the other
               hosts, from a generator seeded by `seed`.
    """
    kind, args = parse_anonymize(spec)
    if kind == "none":
        return train, test, None
    if kind == "randomize":
        rng = np.random.default_rng(seed)
        n = len(SUBNET_HOSTS)
        draws = np.array([(rng.integers(n), rng.integers(n - 1)) for _ in range(len(test))], dtype=np.int64)
        src, dst = draws.reshape(-1, 2).T
        test = test.with_columns(addresses=[str(h) for h in SUBNET_HOSTS], src=src, dst=dst + (dst >= src))
        return train, test, "test-split addresses reassigned per session from the subnet range"
    # shift moves the addresses of both splits, switch those of the test split
    moved = FlowTable.concat([train, test]) if kind == "shift" else test
    try:
        observed = sorted({int(moved.addresses[i]) for i in _used_addresses(moved)})
    except ValueError:
        raise ValueError("anonymize requires octet-encoded addresses (run encode_ips first)") from None
    if kind == "shift":
        mapping = {a: observed[(i + args[0]) % len(observed)] for i, a in enumerate(observed)}
        note = f"addresses shifted by {args[0]} across train and test"
    else:
        missing = [x for x in args if x not in observed]
        if missing:
            raise ValueError(f"switch pair addresses not observed: {missing}")
        a, b = args
        mapping, note = {a: b, b: a}, f"addresses {a} and {b} switched in the test split"
    moved = moved.with_columns(addresses=[str(mapping.get(a, a)) for a in _octets(moved, int).tolist()])
    return (moved[: len(train)], moved[len(train) :], note) if kind == "shift" else (train, moved, note)


@dataclass
class Dataset:
    matrix: np.ndarray
    labels: list[str]
    feature_names: list[str]
    shuffle_seed: int
    norm_min: np.ndarray
    norm_max: np.ndarray
    constant_features: list[str] = field(default_factory=list)

    @property
    def width(self) -> int:
        return self.matrix.shape[1]

    def binary_labels(self) -> np.ndarray:
        """Benign is the positive class (1.0)."""
        return np.array([1.0 if lab == "benign" else 0.0 for lab in self.labels])

    def class_counts(self) -> dict[str, int]:
        """Rows per label, in the order the labels first show."""
        return dict(Counter(self.labels))

    def denormalize(self) -> np.ndarray:
        span = self.norm_max - self.norm_min
        return self.matrix * span + self.norm_min

    def subset(self, keep_labels: Iterable[str]) -> "Dataset":
        keep = set(keep_labels)
        idx = [i for i, lab in enumerate(self.labels) if lab in keep]
        return replace(self, matrix=self.matrix[idx], labels=[self.labels[i] for i in idx],
                       feature_names=list(self.feature_names), constant_features=list(self.constant_features))

    def project(self, names: Sequence[str]) -> "Dataset":
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise ValueError(f"unknown feature names: {missing}")
        idx = [self.feature_names.index(n) for n in names]
        # take, not self.matrix[:, idx]: that copy is column-major, and a row
        # gather from it (a training batch) touches one cache line per cell.
        return replace(self, matrix=np.take(self.matrix, idx, axis=1), labels=list(self.labels),
                       feature_names=list(names), norm_min=self.norm_min[idx], norm_max=self.norm_max[idx],
                       constant_features=[n for n in self.constant_features if n in set(names)])


def split_flows(
    flows: FlowTable, split_fraction: float, shuffle_seed: int
) -> tuple[FlowTable, FlowTable]:
    """Seeded shuffle, then a label-stratified split at split_fraction."""
    if not 0 < split_fraction < 1:
        raise ValueError("split_fraction must be within (0, 1)")
    rng = np.random.default_rng(shuffle_seed)
    order = rng.permutation(len(flows))
    labels, code = np.unique(flows.label[order], return_inverse=True)
    totals = np.bincount(code, minlength=len(labels))
    quota = np.floor(split_fraction * totals + 0.5).astype(np.int64)
    empty = labels[quota == 0].tolist()
    if empty:
        raise ValueError(f"split leaves no training rows for label(s): {sorted(empty)}")
    # Each shuffled flow's position among the shuffled flows of its label.
    rank = np.empty(len(order), dtype=np.int64)
    rank[np.argsort(code, kind="stable")] = np.arange(len(order)) - np.repeat(np.cumsum(totals) - totals, totals)
    train = rank < quota[code]
    return flows[order[train]], flows[order[~train]]


def _column_names(ip_mode: str) -> list[str]:
    if ip_mode not in IP_MODES:
        raise ValueError(f"ip_mode must be one of {IP_MODES}")
    columns: list[str] = []
    if ip_mode in ("both", "source_only"):
        columns.append(SRC_IP_COL)
    if ip_mode in ("both", "destination_only"):
        columns.append(DST_IP_COL)
    return columns + FEATURE_NAMES


# Matrix columns taken from a flow's metadata rather than its features.
_METADATA_COLUMNS = {
    SRC_IP_COL: lambda t: _octets(t, int)[t.src],
    DST_IP_COL: lambda t: _octets(t, int)[t.dst],
}


def _matrix(flows: FlowTable, columns: Sequence[str]) -> np.ndarray:
    """The flows' values of `columns`, one column slice each."""
    return np.column_stack([_METADATA_COLUMNS[name](flows) if name in _METADATA_COLUMNS
                            else flows.features[:, FEATURE_INDEX[name]] for name in columns])


def build_dataset_from_split(
    train_flows: FlowTable,
    test_flows: FlowTable,
    shuffle_seed: int = 0,
    ip_mode: str = "both",
) -> tuple[Dataset, Dataset]:
    """Assemble matrices for an existing flow split; normalization constants
    come from the training side only."""
    columns = _column_names(ip_mode)
    train_m = _matrix(train_flows, columns)
    test_m = _matrix(test_flows, columns)

    lo = train_m.min(axis=0)
    hi = train_m.max(axis=0)
    span = hi - lo
    constant = [columns[j] for j in np.nonzero(span == 0)[0]]
    safe_span = np.where(span == 0, 1.0, span)

    # Normalized in place: the raw matrices are not needed once lo and hi are.
    for m in (train_m, test_m):
        m -= lo
        m /= safe_span
        m[:, span == 0] = 0.0
    np.clip(test_m, 0.0, 1.0, out=test_m)

    train = Dataset(train_m, train_flows.label.tolist(), columns, shuffle_seed, lo, hi, constant)
    test = Dataset(test_m, test_flows.label.tolist(), list(columns), shuffle_seed, lo, hi, list(constant))
    return train, test


def build_dataset(
    flows: FlowTable,
    split_fraction: float = 0.8,
    shuffle_seed: int = 0,
    ip_mode: str = "both",
) -> tuple[Dataset, Dataset]:
    train_flows, test_flows = split_flows(flows, split_fraction, shuffle_seed)
    return build_dataset_from_split(train_flows, test_flows, shuffle_seed=shuffle_seed, ip_mode=ip_mode)


def runtime_environment() -> dict:
    """The interpreter, numpy and BLAS a run used, and the CPU kernel set the
    BLAS picked: trained weights can differ in the last bits between kernels."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas_core": openblas_core(),
        "cpus": usable_cpus(),
    }


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dataset_manifest(
    train: Dataset,
    test: Dataset,
    scenarios: Sequence[dict],
    anonymize_mode: str,
    anonymize_seed: int | None,
    router_sessions_removed: int,
) -> dict:
    """What built `train` and `test`: the pooled scenarios (each a dict of
    its name, packets and flows) and their label rules, the notes the rules
    raise (`rule_notes`), the router sessions stripped, the flow columns left
    out of the matrix, the rows per label of each split, the normalization
    constants and the runtime environment."""
    names = [s["name"] for s in scenarios]
    return {
        "environment": runtime_environment(),
        "scenarios": list(scenarios),
        "label_rules": {name: {"attack_label": name, "directionality": LABEL_RULES[name],
                               "malicious_octet": ATTACKER_HOST} for name in names if name in LABEL_RULES},
        "notes": rule_notes(names),
        "router_sessions_removed": router_sessions_removed,
        "anonymize_mode": anonymize_mode,
        "anonymize_seed": anonymize_seed,
        "shuffle_seed": train.shuffle_seed,
        "dropped_columns": ["Flow ID", "Start Time", SRC_PORT_COL, DST_PORT_COL],
        "rows_per_label": {"train": train.class_counts(), "test": test.class_counts()},
        "feature_names": list(train.feature_names),
        "constant_features": list(train.constant_features),
        "normalization": {
            name: [float(train.norm_min[i]), float(train.norm_max[i])]
            for i, name in enumerate(train.feature_names)
        },
    }


def write_dataset_csv(dataset: Dataset, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(f'"{n}"' for n in dataset.feature_names) + ',"Label"\n')
        write_rows(fh, [(np.asarray(dataset.matrix, dtype=np.float64), partial(format_once, fmt="{!r},".format)),
                        (dataset.labels, partial(format_once, fmt='"{}"\n'.format))], FLOW_BLOCK)


def _dataset_row(path, header: list[str]) -> np.dtype:
    if not header:
        raise ValueError(f"{path}: empty dataset file")
    if header[-1] != "Label":
        raise ValueError(f"{path}: last column must be Label")
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise ValueError(f"{path}: repeated column {repeated[0]!r}")
    return np.dtype([("values", np.float64, (len(header) - 1,)), ("label", object)])


def read_dataset_csv(path) -> Dataset:
    """Inverse of write_dataset_csv, through simnet.read_rows; rejects an
    empty file, a last column other than Label, a repeated column name and a
    label that is not a scenario name."""
    header, rows = read_rows(path, _dataset_row, '"', {"Label": SCENARIOS})
    width = len(header) - 1
    return Dataset(np.ascontiguousarray(rows["values"]), rows["label"].tolist(), header[:-1], 0, np.zeros(width),
                   np.ones(width))
