"""Record-at-a-time reference for the flow-preparation chain.

These are the functions the columnar `FlowTable` chain replaced, kept
verbatim but for their arguments (a label rule's attack, directionality and
attacker octet, and an anonymization's parsed kind and arguments): labeling, router stripping, timestamp and address encoding,
anonymization, the stratified split, the matrix build and its normalization,
per-session address randomization and the flow CSV reader.  Each takes and returns plain lists of
`records.FlowRecord`s; `label_scenario` and `pool`, which chain them, edit and empty
the lists they are given.  `test_prep_oracle.py` runs both chains on the
same flows and compares them record for record and matrix bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from typing import Sequence

import numpy as np

from ddsids.flowmeter import FEATURE_INDEX, FEATURE_NAMES, LABEL_NAME, METADATA_NAMES
from ddsids.preprocess import DOCUMENTED_RULE_COMBOS, DST_IP_COL, LABEL_RULES, SRC_IP_COL
from ddsids.simnet import ATTACKER_HOST, ROUTER_HOSTS, SUBNET_HOSTS
from ddsids.tables import FLOW_BLOCK
from records import FlowRecord


def _octet(address: str) -> int:
    return int(address.rsplit(".", 1)[-1])


def label(flows: Sequence[FlowRecord], attack: str, directionality: str, malicious_octet: int = ATTACKER_HOST,
          strict: bool = False) -> list[FlowRecord]:
    """Label flows whose addresses match the rule; everything else is benign."""
    if (attack, directionality) not in DOCUMENTED_RULE_COMBOS:
        message = f"labeling combination {attack}/{directionality} is outside the documented reliable set"
        if strict:
            raise ValueError(message)
        warnings.warn(message, stacklevel=2)
    out = []
    for f in flows:
        src_hit = _octet(f.src_ip) == malicious_octet
        dst_hit = _octet(f.dst_ip) == malicious_octet
        if directionality == "source_only":
            hit = src_hit
        elif directionality == "destination_only":
            hit = dst_hit
        else:
            hit = src_hit or dst_hit
        out.append(replace(f, label=attack if hit else "benign"))
    return out


def label_scenario(name: str, flows: list[FlowRecord]) -> tuple[list[FlowRecord], list[str]]:
    """Label one scenario's flows by its rule and prefix their ids with the
    scenario name; returns (flows, the rule's warnings as notes)."""
    if name != "benign" and name not in LABEL_RULES:
        raise ValueError(f"scenario {name!r} is not one of: benign, {', '.join(LABEL_RULES)}")
    notes: list[str] = []
    if name in LABEL_RULES:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            flows = label(flows, name, LABEL_RULES[name])
        notes = [str(w.message) for w in caught]
    for f in flows:
        f.flow_id = f"{name}:{f.flow_id}"
    return flows, notes


def pool(flows: list[FlowRecord]) -> tuple[list[FlowRecord], int]:
    """Strip router sessions, sort by start time and encode timestamps and
    addresses; returns (pooled flows, router sessions removed).

    `flows` is emptied, so the records from before encoding are freed as
    soon as their encoded copies exist, not when the caller drops its list.
    """
    kept, removed = strip_router_flows(flows)
    flows.clear()
    kept.sort(key=lambda f: f.start_time)
    kept = encode_timestamps(kept)
    return encode_ips(kept), removed


def strip_router_flows(flows: Sequence[FlowRecord], router_octets: Sequence[int] = ROUTER_HOSTS) -> tuple[list[FlowRecord], int]:
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


def anonymize(flows: Sequence[FlowRecord], kind: str, args: tuple[int, ...]) -> list[FlowRecord]:
    """Apply an address anonymization experiment to encoded flows.

    shift      (k,): observed addresses move k steps along the sorted observed
               list, wrapping at the end;
    switch     (a, b): the two addresses of the pair trade places.
    """
    observed = observed_addresses(flows)
    if kind == "shift":
        n = len(observed)
        mapping = {observed[i]: observed[(i + args[0]) % n] for i in range(n)}
    else:
        a, b = args
        missing = [x for x in (a, b) if x not in observed]
        if missing:
            raise ValueError(f"switch pair addresses not observed: {missing}")
        mapping = {a: b, b: a}

    out = []
    for f in flows:
        src, dst = _encoded(f)
        out.append(replace(f, src_ip=str(mapping.get(src, src)), dst_ip=str(mapping.get(dst, dst))))
    return out


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
    if all(quota[lab] == n for lab, n in totals.items()):
        raise ValueError("split leaves no test rows")

    taken: dict[str, int] = {lab: 0 for lab in totals}
    train, test = [], []
    for f in shuffled:
        if taken[f.label] < quota[f.label]:
            taken[f.label] += 1
            train.append(f)
        else:
            test.append(f)
    return train, test


_METADATA_COLUMNS = {
    SRC_IP_COL: lambda f: int(f.src_ip),
    DST_IP_COL: lambda f: int(f.dst_ip),
}


def _matrix(flows: Sequence[FlowRecord], columns: Sequence[str]) -> np.ndarray:
    """The flows' values of `columns`, filled column by column from one
    feature array per block of rows."""
    matrix = np.empty((len(flows), len(columns)))
    for lo in range(0, len(flows), FLOW_BLOCK):
        block = flows[lo : lo + FLOW_BLOCK]
        rows = slice(lo, lo + len(block))
        features = np.array([f.features for f in block], dtype=np.float64)
        for j, name in enumerate(columns):
            if name in _METADATA_COLUMNS:
                matrix[rows, j] = [float(_METADATA_COLUMNS[name](f)) for f in block]
            else:
                matrix[rows, j] = features[:, FEATURE_INDEX[name]]
    return matrix


def build_dataset_from_split(train: Sequence[FlowRecord], test: Sequence[FlowRecord], columns: Sequence[str]
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """The train and test matrices of `columns`, min-max normalized by the
    training rows (test values clipped into [0, 1]), the training minimum and
    maximum per column, and the columns constant on the training rows."""
    train_m = _matrix(train, columns)
    test_m = _matrix(test, columns)

    lo = train_m.min(axis=0)
    hi = train_m.max(axis=0)
    span = hi - lo
    constant = [columns[j] for j in np.nonzero(span == 0)[0]]
    safe_span = np.where(span == 0, 1.0, span)

    for m in (train_m, test_m):
        m -= lo
        m /= safe_span
        m[:, span == 0] = 0.0
    np.clip(test_m, 0.0, 1.0, out=test_m)
    return train_m, test_m, lo, hi, constant


def randomize_sessions(flows: Sequence[FlowRecord], seed: int, hosts: Sequence[int] = SUBNET_HOSTS) -> list[FlowRecord]:
    """Per-session random address assignment from the subnet host range,
    keeping src != dst."""
    rng = np.random.default_rng(seed)
    out = []
    hosts = list(hosts)
    for f in flows:
        i = int(rng.integers(len(hosts)))
        j = int(rng.integers(len(hosts) - 1))
        if j >= i:
            j += 1
        out.append(replace(f, src_ip=str(hosts[i]), dst_ip=str(hosts[j])))
    return out


def read_flow_csv(path) -> list[FlowRecord]:
    """Inverse of write_flow_csv; rejects files whose header deviates from the catalog."""
    import csv as _csv

    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty flow file") from None
        expected = METADATA_NAMES + FEATURE_NAMES + [LABEL_NAME]
        known = set(expected)
        for col in header:
            if col not in known:
                raise ValueError(f"{path}: unknown column {col!r}")
        for col in expected:
            if col not in header:
                raise ValueError(f"{path}: missing column {col!r}")
        if header != expected:
            raise ValueError(f"{path}: columns out of catalog order")
        flows = []
        for row in reader:
            if len(row) != len(expected):
                raise ValueError(f"{path}: row with {len(row)} fields, expected {len(expected)}")
            flows.append(
                FlowRecord(
                    flow_id=row[0],
                    src_ip=row[1],
                    src_port=int(row[2]),
                    dst_ip=row[3],
                    dst_port=int(row[4]),
                    protocol=int(float(row[6 + FEATURE_INDEX["Protocol"]])),
                    start_time=float(row[5]),
                    features=[float(v) for v in row[6:-1]],
                    label=row[-1],
                )
            )
    return flows
