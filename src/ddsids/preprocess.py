"""Turns labeled flow tables into model-ready datasets.

The pipeline is: label each scenario's flows (`label_scenario`); pool them,
leaving out router sessions, sorted by start time, with the Timestamp feature
rewritten as inter-session deltas and the addresses encoded down to their
varying octet (`pool`); split them; optionally anonymize them; then build the
train/test matrices.  Session identity metadata (flow id, start time, ports)
never reaches the matrix, and min-max normalization is fitted on the training
split only; test values are clipped into [0, 1].

Every step is a column operation on a ``FlowTable``: labels and router
stripping are masks over the octets of the few addresses in its address
table, pooling gathers each column once in start-time order, the timestamp
deltas are one subtraction over the sorted start times, and address encoding
rewrites only the address table.  A split holds no flows: each side
(`SplitSide`) is its row numbers into the pooled table, a per-label quota of
the shuffled rows, with their address codes.  Anonymization rewrites only a
side's address table and codes, and each matrix is gathered a block of rows
at a time straight from the pooled features, beside its address columns.
"""

from __future__ import annotations

import json
import platform
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .flowmeter import FEATURE_NAMES, FEATURE_INDEX, METADATA_NAMES, FlowTable
from .parallel import openblas_core, usable_cpus
from .simnet import ATTACKER_HOST, ROUTER_HOSTS, SCENARIOS, SUBNET_HOSTS
from .tables import FLOW_BLOCK, decoded, format_once, read_rows, write_rows

IP_MODES = ("both", "source_only", "destination_only", "none")
SRC_IP_COL = "Src IP"
DST_IP_COL = "Dst IP"

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


def _used_addresses(flows: FlowTable | SplitSide) -> list[int]:
    return np.unique(np.concatenate([flows.src, flows.dst])).tolist()


def _octets(flows: FlowTable | SplitSide, parse=_octet) -> np.ndarray:
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


def _unrouted(flows: FlowTable) -> np.ndarray:
    """The rows of `flows` touching neither router host (`simnet.ROUTER_HOSTS`)."""
    router = np.isin(_octets(flows), ROUTER_HOSTS)
    return np.flatnonzero(~(router[flows.src] | router[flows.dst]))


def pool(tables: Sequence[FlowTable]) -> tuple[FlowTable, int]:
    """The flows of `tables` but those touching a router host, one table
    after another, then sorted (stably) by start time, with the Timestamp
    feature rewritten as the start delta (seconds) to the preceding flow, 0
    for the first, and the addresses encoded (`encode_ips`); returns
    (pooled flows, router sessions removed).  Each column is gathered once,
    straight from `tables` into its sorted place (`FlowTable.gathered`)."""
    rows = [_unrouted(t) for t in tables]
    start = np.concatenate([np.empty(0), *(t.start_time[r] for t, r in zip(tables, rows))])
    order = np.argsort(start, kind="stable")
    addresses, columns = FlowTable.gathered(tables, rows, order)
    timestamp = columns["features"][:, FEATURE_INDEX["Timestamp"]]
    timestamp[:1] = 0.0
    np.subtract(columns["start_time"][1:], columns["start_time"][:-1], out=timestamp[1:])
    removed = sum(map(len, tables)) - len(order)
    return encode_ips(FlowTable(addresses, *(columns[name] for name in FlowTable.COLUMNS))), removed


def off_subnet(tables: Sequence[FlowTable], kept: Callable[[FlowTable], np.ndarray] = _unrouted
               ) -> tuple[int, int, str, str] | None:
    """The first of the rows `kept(t)` of each table t (by default the flows
    `pool(tables)` keeps), in table then row order, with an address outside
    the subnet of the first such row's source: (table, row, address, that
    subnet); None when every address of those rows is in it, as `encode_ips`
    requires."""
    subnet = None
    for i, t in enumerate(tables):
        if not len(rows := kept(t)):
            continue
        prefixes = [a.rsplit(".", 1)[0] for a in t.addresses]
        subnet = prefixes[t.src[rows[0]]] if subnet is None else subnet
        off = np.array([p != subnet for p in prefixes], dtype=bool)
        if len(bad := rows[off[t.src[rows]] | off[t.dst[rows]]]):
            row = int(bad[0])
            return i, row, t.addresses[t.src[row] if off[t.src[row]] else t.dst[row]], subnet
    return None


def encode_ips(flows: FlowTable) -> FlowTable:
    """Reduce addresses to their only varying octet (10.0.5.5 -> 5); every
    flow must lie in one subnet (`off_subnet`)."""
    if off_subnet([flows], kept=lambda t: np.arange(len(t))) is not None:
        prefixes = {flows.addresses[i].rsplit(".", 1)[0] for i in _used_addresses(flows)}
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


@dataclass(frozen=True)
class SplitSide:
    """One side of a split of a pooled table: its row numbers into the table,
    in split order, and those rows' addresses, `src` and `dst` codes into
    `addresses`.  Anonymization rewrites the addresses; the rows stay."""

    rows: np.ndarray
    addresses: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray

    @classmethod
    def of(cls, flows: FlowTable, rows: np.ndarray) -> "SplitSide":
        """The side of the rows `rows` of `flows`, with their addresses as `flows` codes them."""
        return cls(rows, flows.addresses, flows.src[rows], flows.dst[rows])

    def __len__(self) -> int:
        return len(self.rows)


def anonymize(train: SplitSide, test: SplitSide, spec: str, seed: int) -> tuple[SplitSide, SplitSide, str | None]:
    """An encoded split under the address regime `spec` (`parse_anonymize`),
    and the footnote that names it, None for "none".  Only the sides'
    address tables and codes change.

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
        test = replace(test, addresses=tuple(str(h) for h in SUBNET_HOSTS), src=src, dst=dst + (dst >= src))
        return train, test, "test-split addresses reassigned per session from the subnet range"
    # shift moves the addresses of both splits, switch those of the test split
    moved = (train, test) if kind == "shift" else (test,)
    try:
        observed = sorted({int(t.addresses[i]) for t in moved for i in _used_addresses(t)})
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
    moved = [replace(t, addresses=tuple(str(mapping.get(a, a)) for a in _octets(t, int).tolist())) for t in moved]
    return (*moved, note) if kind == "shift" else (train, *moved, note)


@dataclass
class Dataset:
    matrix: np.ndarray
    labels: list[str]
    feature_names: list[str]
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


def split_flows(flows: FlowTable, split_fraction: float, shuffle_seed: int) -> tuple[SplitSide, SplitSide]:
    """Seeded shuffle, then a label-stratified split at split_fraction: the
    (train, test) sides of `flows`, each its row numbers in shuffled order."""
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
    if (quota == totals).all():
        raise ValueError("split leaves no test rows")
    # Each shuffled flow's position among the shuffled flows of its label.
    rank = np.empty(len(order), dtype=np.int64)
    rank[np.argsort(code, kind="stable")] = np.arange(len(order)) - np.repeat(np.cumsum(totals) - totals, totals)
    train = rank < quota[code]
    return SplitSide.of(flows, order[train]), SplitSide.of(flows, order[~train])


def _column_names(ip_mode: str) -> list[str]:
    """The address columns `ip_mode` keeps, then every feature in catalog order."""
    if ip_mode not in IP_MODES:
        raise ValueError(f"ip_mode must be one of {IP_MODES}")
    columns: list[str] = []
    if ip_mode in ("both", "source_only"):
        columns.append(SRC_IP_COL)
    if ip_mode in ("both", "destination_only"):
        columns.append(DST_IP_COL)
    return columns + FEATURE_NAMES


def _matrix(flows: FlowTable, side: SplitSide, columns: Sequence[str]) -> np.ndarray:
    """The values of `columns` (`_column_names`) on the side's rows: the
    address columns from the side's own addresses, the features gathered
    from `flows` FLOW_BLOCK rows at a time into their place, so no copy of
    the side's features is held beside the matrix."""
    width = len(columns) - len(FEATURE_NAMES)
    matrix = np.empty((len(side), len(columns)))
    for j, name in enumerate(columns[:width]):
        matrix[:, j] = _octets(side, int)[side.src if name == SRC_IP_COL else side.dst]
    for lo in range(0, len(side), FLOW_BLOCK):
        matrix[lo : lo + FLOW_BLOCK, width:] = flows.features[side.rows[lo : lo + FLOW_BLOCK]]
    return matrix


def build_dataset_from_split(
    flows: FlowTable,
    train_side: SplitSide,
    test_side: SplitSide,
    ip_mode: str = "both",
) -> tuple[Dataset, Dataset]:
    """Assemble the matrices of a split of `flows` (`split_flows`, perhaps
    anonymized); normalization constants come from the training side only."""
    columns = _column_names(ip_mode)
    train_m = _matrix(flows, train_side, columns)
    test_m = _matrix(flows, test_side, columns)

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

    train = Dataset(train_m, flows.label[train_side.rows].tolist(), columns, lo, hi, constant)
    test = Dataset(test_m, flows.label[test_side.rows].tolist(), list(columns), lo, hi, list(constant))
    return train, test


def build_dataset(
    flows: FlowTable,
    split_fraction: float = 0.8,
    shuffle_seed: int = 0,
    ip_mode: str = "both",
) -> tuple[Dataset, Dataset]:
    train_side, test_side = split_flows(flows, split_fraction, shuffle_seed)
    return build_dataset_from_split(flows, train_side, test_side, ip_mode=ip_mode)


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
    shuffle_seed: int,
    router_sessions_removed: int,
) -> dict:
    """What built `train` and `test`: the pooled scenarios (each a dict of
    its name, packets and flows) and their label rules, the notes the rules
    raise (`rule_notes`), the seed of the split's shuffle, the router sessions
    stripped, the flow file's metadata columns left out of the matrix (in the
    file's order), the rows per label of each split, the normalization
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
        "shuffle_seed": shuffle_seed,
        "dropped_columns": [name for name in METADATA_NAMES if name not in train.feature_names],
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
    """Inverse of write_dataset_csv, through tables.read_rows; rejects an
    empty file, a last column other than Label, a repeated column name and a
    label that is not a scenario name."""
    header, columns, texts = read_rows(path, _dataset_row, '"', {"Label": SCENARIOS})
    width = len(header) - 1
    return Dataset(columns["values"], decoded(columns["label"], texts["label"]), header[:-1], np.zeros(width),
                   np.ones(width))
