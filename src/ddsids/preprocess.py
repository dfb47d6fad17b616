"""Turns labeled flow tables into model-ready datasets.

The pipeline is: label each scenario's flows (`label_scenario`); pool them,
strip router sessions, sort by start time, rewrite the Timestamp feature as
inter-session deltas and encode the addresses down to their varying octet
(`pool`); split them; optionally anonymize them; then build the train/test
matrices.  Session identity metadata (flow id, ports when dropped) never
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
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .flowmeter import FEATURE_NAMES, FEATURE_INDEX, FLOW_BLOCK, FlowTable
from .parallel import openblas_core, usable_cpus
from .simnet import ATTACK_SCENARIOS as ATTACK_LABELS, ROUTER_HOSTS, SCENARIOS, read_rows, write_rows

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


# The rule each attack scenario's flows are labelled by; benign traces keep
# the meter's "benign" label.
LABEL_RULES = {
    "dos": LabelRule("dos", "bidirectional"),
    "clone": LabelRule("clone", "source_only"),
    "malsub": LabelRule("malsub", "bidirectional"),
}


@dataclass(frozen=True)
class AnonymizeMode:
    kind: str  # shift | switch
    shift_by: int = 1
    pair: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in ("shift", "switch"):
            raise ValueError(f"unknown anonymize kind {self.kind!r}")
        if self.kind == "shift" and self.shift_by < 1:
            raise ValueError("shift_by must be >= 1")
        if self.kind == "switch":
            if self.pair is None or len(self.pair) != 2 or self.pair[0] == self.pair[1]:
                raise ValueError("switch requires a pair of two distinct addresses")


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


def label(flows: FlowTable, rule: LabelRule, strict: bool = False) -> FlowTable:
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
    malicious = _octets(flows) == rule.malicious_octet
    src_hit, dst_hit = malicious[flows.src], malicious[flows.dst]
    hit = {"source_only": src_hit, "destination_only": dst_hit}.get(rule.directionality, src_hit | dst_hit)
    return flows.with_columns(label=np.array(["benign", rule.attack_label], dtype=object)[hit.astype(np.intp)])


def label_scenario(name: str, flows: FlowTable) -> tuple[FlowTable, list[str]]:
    """Label one scenario's flows by its rule and prefix their ids with the
    scenario name; returns (flows, the rule's warnings as notes)."""
    if name != "benign" and name not in LABEL_RULES:
        raise ValueError(f"scenario {name!r} is not one of: benign, {', '.join(LABEL_RULES)}")
    notes: list[str] = []
    if name in LABEL_RULES:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            flows = label(flows, LABEL_RULES[name])
        notes = [str(w.message) for w in caught]
    return flows.with_columns(flow_id=[f"{name}:{i}" for i in flows.flow_id.tolist()]), notes


def pool(flows: FlowTable) -> tuple[FlowTable, int]:
    """Strip router sessions, sort by start time (stably) and encode
    timestamps and addresses; returns (pooled flows, router sessions removed)."""
    kept, removed = strip_router_flows(flows)
    kept = kept[np.argsort(kept.start_time, kind="stable")]
    return encode_ips(encode_timestamps(kept)), removed


def strip_router_flows(flows: FlowTable, router_octets: Sequence[int] = ROUTER_HOSTS) -> tuple[FlowTable, int]:
    """Drop flows touching the router addresses; returns (kept, removed count)."""
    router = np.isin(_octets(flows), list(router_octets))
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


def observed_addresses(flows: FlowTable) -> list[int]:
    try:
        return sorted({int(flows.addresses[i]) for i in _used_addresses(flows)})
    except ValueError:
        raise ValueError("anonymize requires octet-encoded addresses (run encode_ips first)") from None


def anonymize(flows: FlowTable, mode: AnonymizeMode) -> FlowTable:
    """Apply an address anonymization experiment to encoded flows.

    shift      observed addresses move k steps along the sorted observed list,
               wrapping at the end;
    switch     the two addresses of the pair trade places.
    """
    observed = observed_addresses(flows)
    if mode.kind == "shift":
        n = len(observed)
        mapping = {observed[i]: observed[(i + mode.shift_by) % n] for i in range(n)}
    else:
        a, b = mode.pair
        missing = [x for x in (a, b) if x not in observed]
        if missing:
            raise ValueError(f"switch pair addresses not observed: {missing}")
        mapping = {a: b, b: a}
    return flows.with_columns(addresses=[str(mapping.get(a, a)) for a in _octets(flows, int).tolist()])


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

    def denormalize(self, matrix: np.ndarray | None = None) -> np.ndarray:
        values = self.matrix if matrix is None else matrix
        span = self.norm_max - self.norm_min
        return values * span + self.norm_min

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


def _column_names(drop_ports: bool, keep_timestamp: bool, ip_mode: str) -> list[str]:
    if ip_mode not in IP_MODES:
        raise ValueError(f"ip_mode must be one of {IP_MODES}")
    columns: list[str] = []
    if ip_mode in ("both", "source_only"):
        columns.append(SRC_IP_COL)
    if ip_mode in ("both", "destination_only"):
        columns.append(DST_IP_COL)
    if not drop_ports:
        columns += [SRC_PORT_COL, DST_PORT_COL]
    columns += [n for n in FEATURE_NAMES if keep_timestamp or n != "Timestamp"]
    return columns


# Matrix columns taken from a flow's metadata rather than its features.
_METADATA_COLUMNS = {
    SRC_IP_COL: lambda t: _octets(t, int)[t.src],
    DST_IP_COL: lambda t: _octets(t, int)[t.dst],
    SRC_PORT_COL: lambda t: t.src_port,
    DST_PORT_COL: lambda t: t.dst_port,
}


def _matrix(flows: FlowTable, columns: Sequence[str]) -> np.ndarray:
    """The flows' values of `columns`, one column slice each."""
    return np.column_stack([_METADATA_COLUMNS[name](flows) if name in _METADATA_COLUMNS
                            else flows.features[:, FEATURE_INDEX[name]] for name in columns])


def build_dataset_from_split(
    train_flows: FlowTable,
    test_flows: FlowTable,
    drop_ports: bool = True,
    keep_timestamp: bool = True,
    shuffle_seed: int = 0,
    ip_mode: str = "both",
) -> tuple[Dataset, Dataset]:
    """Assemble matrices for an existing flow split; normalization constants
    come from the training side only."""
    columns = _column_names(drop_ports, keep_timestamp, ip_mode)
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
    notes: Sequence[str],
    drop_ports: bool = True,
    keep_timestamp: bool = True,
) -> dict:
    """What built `train` and `test`: the pooled scenarios (each a dict of
    its name, packets and flows) and their label rules, the notes the rules
    raised, the router sessions stripped, the flow columns left out of the
    matrix, the rows per label of each split, the normalization constants
    and the runtime environment."""
    return {
        "environment": runtime_environment(),
        "scenarios": list(scenarios),
        "label_rules": {s["name"]: asdict(LABEL_RULES[s["name"]]) for s in scenarios if s["name"] in LABEL_RULES},
        "notes": list(notes),
        "router_sessions_removed": router_sessions_removed,
        "anonymize_mode": anonymize_mode,
        "anonymize_seed": anonymize_seed,
        "shuffle_seed": train.shuffle_seed,
        "dropped_columns": ["Flow ID", "Start Time"]
        + ([SRC_PORT_COL, DST_PORT_COL] if drop_ports else [])
        + ([] if keep_timestamp else ["Timestamp"]),
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
        write_rows(fh, [(np.asarray(dataset.matrix, dtype=np.float64), "{!r},".format),
                        (dataset.labels, '"{}"\n'.format)], FLOW_BLOCK)


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
