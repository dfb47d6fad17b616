"""Turns labeled flow records into model-ready datasets.

The pipeline is: label each trace's flows, strip router sessions, sort by
start time, rewrite the Timestamp feature as inter-session deltas, encode the
addresses down to their varying octet, optionally anonymize them, then build
the train/test matrices.  Session identity metadata (flow id, ports when
dropped) never reaches the matrix, and min-max normalization is fitted on the
training split only; test values are clipped into [0, 1].
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .flowmeter import FEATURE_NAMES, FEATURE_INDEX, FlowRecord

ATTACK_LABELS = ("dos", "clone", "malsub")
DIRECTIONALITIES = ("bidirectional", "destination_only", "source_only")
IP_MODES = ("both", "source_only", "destination_only", "none")
SRC_IP_COL = "Src IP"
DST_IP_COL = "Dst IP"
SRC_PORT_COL = "Src Port"
DST_PORT_COL = "Dst Port"

# Directional labeling combinations reported as reliable; anything else is
# accepted but warned about (or rejected under strict=True).
DOCUMENTED_RULE_COMBOS = {
    ("dos", "bidirectional"),
    ("dos", "destination_only"),
    ("dos", "source_only"),
    ("clone", "destination_only"),
}


@dataclass(frozen=True)
class LabelRule:
    attack_label: str
    directionality: str = "bidirectional"
    malicious_octet: int = 6

    def __post_init__(self):
        if self.attack_label not in ATTACK_LABELS:
            raise ValueError(f"attack_label must be one of {ATTACK_LABELS}")
        if self.directionality not in DIRECTIONALITIES:
            raise ValueError(f"directionality must be one of {DIRECTIONALITIES}")
        if not 2 <= self.malicious_octet <= 254:
            raise ValueError("malicious_octet must be within 2..254")


@dataclass(frozen=True)
class AnonymizeMode:
    kind: str  # keep | remove | randomize | shift | switch
    shift_by: int = 1
    pair: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in ("keep", "remove", "randomize", "shift", "switch"):
            raise ValueError(f"unknown anonymize kind {self.kind!r}")
        if self.kind == "shift" and self.shift_by < 1:
            raise ValueError("shift_by must be >= 1")
        if self.kind == "switch":
            if self.pair is None or len(self.pair) != 2 or self.pair[0] == self.pair[1]:
                raise ValueError("switch requires a pair of two distinct addresses")


def _octet(address: str) -> int:
    return int(address.rsplit(".", 1)[-1])


def label(flows: Sequence[FlowRecord], rule: LabelRule, strict: bool = False) -> list[FlowRecord]:
    """Label flows whose addresses match the rule; everything else is benign."""
    combo = (rule.attack_label, rule.directionality)
    if combo not in DOCUMENTED_RULE_COMBOS:
        message = (
            f"labeling combination {rule.attack_label}/{rule.directionality} is outside "
            "the documented reliable set"
        )
        if strict:
            raise ValueError(message)
        warnings.warn(message, stacklevel=2)
    out = []
    for f in flows:
        src_hit = _octet(f.src_ip) == rule.malicious_octet
        dst_hit = _octet(f.dst_ip) == rule.malicious_octet
        if rule.directionality == "source_only":
            hit = src_hit
        elif rule.directionality == "destination_only":
            hit = dst_hit
        else:
            hit = src_hit or dst_hit
        out.append(replace(f, label=rule.attack_label if hit else "benign"))
    return out


def strip_router_flows(flows: Sequence[FlowRecord], router_octets: Sequence[int] = (2, 3)) -> tuple[list[FlowRecord], int]:
    """Drop flows touching the router addresses; returns (kept, removed count)."""
    routers = set(router_octets)
    kept = [f for f in flows if _octet(f.src_ip) not in routers and _octet(f.dst_ip) not in routers]
    return kept, len(flows) - len(kept)


def encode_timestamps(flows: Sequence[FlowRecord]) -> list[FlowRecord]:
    """Rewrite the Timestamp feature: 0 for the earliest session, then the
    start delta (seconds) to the immediately preceding session."""
    out = []
    prev_start = None
    for i, f in enumerate(flows):
        if prev_start is not None and f.start_time < prev_start:
            raise ValueError(f"flows not ordered by start time at index {i}")
        features = list(f.features)
        features[FEATURE_INDEX["Timestamp"]] = 0.0 if prev_start is None else f.start_time - prev_start
        prev_start = f.start_time
        out.append(replace(f, features=features))
    return out


def encode_ips(flows: Sequence[FlowRecord]) -> list[FlowRecord]:
    """Reduce addresses to their only varying octet (10.0.5.5 -> 5)."""
    prefixes = {ip.rsplit(".", 1)[0] for f in flows for ip in (f.src_ip, f.dst_ip)}
    if len(prefixes) > 1:
        raise ValueError(f"mixed subnets cannot be octet-encoded: {sorted(prefixes)}")
    return [replace(f, src_ip=str(_octet(f.src_ip)), dst_ip=str(_octet(f.dst_ip))) for f in flows]


def _encoded(flow: FlowRecord) -> tuple[int, int]:
    try:
        return int(flow.src_ip), int(flow.dst_ip)
    except ValueError:
        raise ValueError("anonymize requires octet-encoded addresses (run encode_ips first)") from None


def observed_addresses(flows: Sequence[FlowRecord]) -> list[int]:
    seen = set()
    for f in flows:
        src, dst = _encoded(f)
        seen.add(src)
        seen.add(dst)
    return sorted(seen)


def anonymize(flows: Sequence[FlowRecord], mode: AnonymizeMode, seed: int = 0) -> list[FlowRecord]:
    """Apply an address anonymization experiment to encoded flows.

    keep       identity;
    remove     scrub both address values (the dataset builder then drops the
               address columns);
    randomize  one seeded permutation of the observed address set, applied to
               every row;
    shift      observed addresses move k steps along the sorted observed list,
               wrapping at the end;
    switch     the two addresses of the pair trade places.
    """
    if mode.kind == "keep":
        return list(flows)
    if mode.kind == "remove":
        return [replace(f, src_ip="", dst_ip="") for f in flows]

    observed = observed_addresses(flows)
    if mode.kind == "randomize":
        rng = np.random.default_rng(seed)
        shuffled = [observed[i] for i in rng.permutation(len(observed))]
        mapping = dict(zip(observed, shuffled))
    elif mode.kind == "shift":
        n = len(observed)
        mapping = {observed[i]: observed[(i + mode.shift_by) % n] for i in range(n)}
    else:
        a, b = mode.pair
        missing = [x for x in (a, b) if x not in observed]
        if missing:
            raise ValueError(f"switch pair addresses not observed: {missing}")
        mapping = {a: b, b: a}

    out = []
    for f in flows:
        src, dst = _encoded(f)
        out.append(replace(f, src_ip=str(mapping.get(src, src)), dst_ip=str(mapping.get(dst, dst))))
    return out


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
        counts: dict[str, int] = {}
        for lab in self.labels:
            counts[lab] = counts.get(lab, 0) + 1
        return counts

    def denormalize(self, matrix: np.ndarray | None = None) -> np.ndarray:
        values = self.matrix if matrix is None else matrix
        span = self.norm_max - self.norm_min
        return values * span + self.norm_min

    def subset(self, keep_labels: Iterable[str]) -> "Dataset":
        keep = set(keep_labels)
        idx = [i for i, lab in enumerate(self.labels) if lab in keep]
        return Dataset(
            matrix=self.matrix[idx],
            labels=[self.labels[i] for i in idx],
            feature_names=list(self.feature_names),
            shuffle_seed=self.shuffle_seed,
            norm_min=self.norm_min,
            norm_max=self.norm_max,
            constant_features=list(self.constant_features),
        )

    def project(self, names: Sequence[str]) -> "Dataset":
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise ValueError(f"unknown feature names: {missing}")
        idx = [self.feature_names.index(n) for n in names]
        return Dataset(
            matrix=self.matrix[:, idx],
            labels=list(self.labels),
            feature_names=list(names),
            shuffle_seed=self.shuffle_seed,
            norm_min=self.norm_min[idx],
            norm_max=self.norm_max[idx],
            constant_features=[n for n in self.constant_features if n in set(names)],
        )


def split_flows(
    flows: Sequence[FlowRecord], split_fraction: float, shuffle_seed: int
) -> tuple[list[FlowRecord], list[FlowRecord]]:
    """Seeded shuffle, then a label-stratified split at split_fraction."""
    if not 0 < split_fraction < 1:
        raise ValueError("split_fraction must be within (0, 1)")
    rng = np.random.default_rng(shuffle_seed)
    order = rng.permutation(len(flows))
    shuffled = [flows[i] for i in order]

    totals: dict[str, int] = {}
    for f in shuffled:
        totals[f.label] = totals.get(f.label, 0) + 1
    quota = {lab: int(math.floor(split_fraction * n + 0.5)) for lab, n in totals.items()}
    empty = [lab for lab, q in quota.items() if q == 0]
    if empty:
        raise ValueError(f"split leaves no training rows for label(s): {sorted(empty)}")

    taken: dict[str, int] = {lab: 0 for lab in totals}
    train, test = [], []
    for f in shuffled:
        if taken[f.label] < quota[f.label]:
            taken[f.label] += 1
            train.append(f)
        else:
            test.append(f)
    return train, test


def _column_names(flows: Sequence[FlowRecord], drop_ports: bool, keep_timestamp: bool, ip_mode: str) -> list[str]:
    if ip_mode not in IP_MODES:
        raise ValueError(f"ip_mode must be one of {IP_MODES}")
    scrubbed = any(f.src_ip == "" for f in flows)
    columns: list[str] = []
    if not scrubbed:
        if ip_mode in ("both", "source_only"):
            columns.append(SRC_IP_COL)
        if ip_mode in ("both", "destination_only"):
            columns.append(DST_IP_COL)
    if not drop_ports:
        columns += [SRC_PORT_COL, DST_PORT_COL]
    columns += [n for n in FEATURE_NAMES if keep_timestamp or n != "Timestamp"]
    return columns


def _row(flow: FlowRecord, columns: Sequence[str]) -> list[float]:
    values = []
    for name in columns:
        if name == SRC_IP_COL:
            values.append(float(int(flow.src_ip)))
        elif name == DST_IP_COL:
            values.append(float(int(flow.dst_ip)))
        elif name == SRC_PORT_COL:
            values.append(float(flow.src_port))
        elif name == DST_PORT_COL:
            values.append(float(flow.dst_port))
        else:
            values.append(flow.features[FEATURE_INDEX[name]])
    return values


def build_dataset_from_split(
    train_flows: Sequence[FlowRecord],
    test_flows: Sequence[FlowRecord],
    drop_ports: bool = True,
    keep_timestamp: bool = True,
    shuffle_seed: int = 0,
    ip_mode: str = "both",
) -> tuple[Dataset, Dataset]:
    """Assemble matrices for an existing flow split; normalization constants
    come from the training side only."""
    columns = _column_names(list(train_flows) + list(test_flows), drop_ports, keep_timestamp, ip_mode)
    train_m = np.array([_row(f, columns) for f in train_flows], dtype=np.float64)
    test_m = np.array([_row(f, columns) for f in test_flows], dtype=np.float64).reshape(len(test_flows), len(columns))

    lo = train_m.min(axis=0)
    hi = train_m.max(axis=0)
    span = hi - lo
    constant = [columns[j] for j in np.nonzero(span == 0)[0]]
    safe_span = np.where(span == 0, 1.0, span)

    train_norm = (train_m - lo) / safe_span
    train_norm[:, span == 0] = 0.0
    test_norm = np.clip((test_m - lo) / safe_span, 0.0, 1.0)
    test_norm[:, span == 0] = 0.0

    train = Dataset(train_norm, [f.label for f in train_flows], columns, shuffle_seed, lo, hi, constant)
    test = Dataset(test_norm, [f.label for f in test_flows], list(columns), shuffle_seed, lo, hi, list(constant))
    return train, test


def build_dataset(
    flows: Sequence[FlowRecord],
    drop_ports: bool = True,
    keep_timestamp: bool = True,
    split_fraction: float = 0.8,
    shuffle_seed: int = 0,
    ip_mode: str = "both",
) -> tuple[Dataset, Dataset]:
    train_flows, test_flows = split_flows(flows, split_fraction, shuffle_seed)
    return build_dataset_from_split(
        train_flows,
        test_flows,
        drop_ports=drop_ports,
        keep_timestamp=keep_timestamp,
        shuffle_seed=shuffle_seed,
        ip_mode=ip_mode,
    )


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dataset_manifest(
    train: Dataset,
    rule_by_scenario: dict[str, LabelRule] | None,
    anonymize_mode: str,
    anonymize_seed: int | None,
    dropped_columns: Sequence[str],
) -> dict:
    return {
        "label_rules": {
            scenario: {
                "attack_label": rule.attack_label,
                "directionality": rule.directionality,
                "malicious_octet": rule.malicious_octet,
            }
            for scenario, rule in (rule_by_scenario or {}).items()
        },
        "anonymize_mode": anonymize_mode,
        "anonymize_seed": anonymize_seed,
        "shuffle_seed": train.shuffle_seed,
        "dropped_columns": list(dropped_columns),
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
        for row, lab in zip(dataset.matrix, dataset.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f',"{lab}"\n')


def read_dataset_csv(path, norm_min: np.ndarray | None = None, norm_max: np.ndarray | None = None) -> Dataset:
    import csv as _csv

    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader)
        if header[-1] != "Label":
            raise ValueError(f"{path}: last column must be Label")
        names = header[:-1]
        rows, labels = [], []
        for row in reader:
            rows.append([float(v) for v in row[:-1]])
            labels.append(row[-1])
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    width = len(names)
    return Dataset(
        matrix=matrix,
        labels=labels,
        feature_names=names,
        shuffle_seed=0,
        norm_min=np.zeros(width) if norm_min is None else norm_min,
        norm_max=np.ones(width) if norm_max is None else norm_max,
    )
