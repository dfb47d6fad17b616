"""Bidirectional session assembly and per-session feature vectors.

Packets are grouped by the direction-insensitive 5-tuple (addresses, ports,
protocol).  A group is cut into separate flows whenever the idle gap between
consecutive packets exceeds ``flow_timeout``.  The "forward" direction of a
flow is the direction of its first packet.

Each flow yields 78 numeric features (see FEATURE_NAMES).  Conventions used
throughout, chosen once and documented here because the upstream tooling this
format mimics is not self-consistent:

* packet length   = payload bytes (headers are only counted by the two
                    ``Header Len`` features),
* durations/IATs  = microseconds,
* rates (``/s``)  = per second, with the divisor guarded by
                    ``max(duration, 1 microsecond)`` so zero-duration flows
                    stay finite,
* Min/Max/Mean/Std of an empty set = 0,
* standard deviations are population (ddof=0) and ``Pkt Len Var`` is the
  squared population deviation,
* a "bulk" is a run of >= 4 consecutive same-direction data packets
  (payload >= 1) whose successive gaps are all < ``bulk_gap``; packets with
  empty payload neither join nor break a run, a data packet of the opposite
  direction breaks it,
* subflows are the segments obtained by splitting the whole flow at gaps
  > ``subflow_gap``; the ``Subflow *`` features divide the flow totals by the
  segment count,
* active/idle spans split at gaps > ``activity_timeout``; active spans of
  zero width are not recorded,
* ``Init Fwd/Bwd Win Byts`` are structurally 0 for datagram traffic but kept
  so the catalog stays at 78 features,
* ``Fwd Seg Size Min`` is the smallest forward *header* length.

The ``Timestamp`` feature holds the flow start time in seconds at metering
time; downstream preprocessing replaces it with inter-session deltas.

The meter works on the columns of a ``PacketTrace``: one stable sort groups
the packets by flow, and every feature is a reduction over each flow's
segment of the sorted columns.  Float sums are added left to right within a
flow and squares are taken with Python's ``**``, so each value is the one a
per-packet loop over the flow would compute, to the last bit.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .simnet import (ColumnTable, PacketRecord, PacketTrace, float_cells, numbered_blocks, tokenized_rows,
                     write_rows)

FEATURE_NAMES = [
    "Protocol",
    "Timestamp",
    "Flow Duration",
    "Tot Fwd Pkts",
    "Tot Bwd Pkts",
    "TotLen Fwd Pkts",
    "TotLen Bwd Pkts",
    "Fwd Pkt Len Max",
    "Fwd Pkt Len Min",
    "Fwd Pkt Len Mean",
    "Fwd Pkt Len Std",
    "Bwd Pkt Len Max",
    "Bwd Pkt Len Min",
    "Bwd Pkt Len Mean",
    "Bwd Pkt Len Std",
    "Flow Byts/s",
    "Flow Pkts/s",
    "Flow IAT Mean",
    "Flow IAT Std",
    "Flow IAT Max",
    "Flow IAT Min",
    "Fwd IAT Tot",
    "Fwd IAT Mean",
    "Fwd IAT Std",
    "Fwd IAT Max",
    "Fwd IAT Min",
    "Bwd IAT Tot",
    "Bwd IAT Mean",
    "Bwd IAT Std",
    "Bwd IAT Max",
    "Bwd IAT Min",
    "Fwd PSH Flags",
    "Bwd PSH Flags",
    "Fwd URG Flags",
    "Bwd URG Flags",
    "Fwd Header Len",
    "Bwd Header Len",
    "Fwd Pkts/s",
    "Bwd Pkts/s",
    "Pkt Len Min",
    "Pkt Len Max",
    "Pkt Len Mean",
    "Pkt Len Std",
    "Pkt Len Var",
    "FIN Flag Cnt",
    "SYN Flag Cnt",
    "RST Flag Cnt",
    "PSH Flag Cnt",
    "ACK Flag Cnt",
    "URG Flag Cnt",
    "CWE Flag Cnt",
    "ECE Flag Cnt",
    "Down/Up Ratio",
    "Pkt Size Avg",
    "Fwd Seg Size Avg",
    "Bwd Seg Size Avg",
    "Fwd Byts/b Avg",
    "Fwd Pkts/b Avg",
    "Fwd Blk Rate Avg",
    "Bwd Byts/b Avg",
    "Bwd Pkts/b Avg",
    "Bwd Blk Rate Avg",
    "Subflow Fwd Pkts",
    "Subflow Fwd Byts",
    "Subflow Bwd Pkts",
    "Subflow Bwd Byts",
    "Init Fwd Win Byts",
    "Init Bwd Win Byts",
    "Fwd Act Data Pkts",
    "Fwd Seg Size Min",
    "Active Mean",
    "Active Std",
    "Active Max",
    "Active Min",
    "Idle Mean",
    "Idle Std",
    "Idle Max",
    "Idle Min",
]

FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}

METADATA_NAMES = ["Flow ID", "Src IP", "Src Port", "Dst IP", "Dst Port", "Start Time"]
LABEL_NAME = "Label"

# Flag bit positions in PacketRecord.flags.
FLAG_BITS = {"FIN": 1, "SYN": 2, "RST": 4, "PSH": 8, "ACK": 16, "URG": 32, "CWE": 64, "ECE": 128}

_MIN_RATE_DIVISOR_S = 1e-6
FLOW_BLOCK = 256  # flows (or dataset rows) formatted or parsed at a time


@dataclass(frozen=True)
class MeterConfig:
    """Cut-over thresholds, all in seconds."""

    flow_timeout: float = 120.0
    activity_timeout: float = 5.0
    bulk_gap: float = 1.0
    subflow_gap: float = 1.0

    def __post_init__(self):
        for name in ("flow_timeout", "activity_timeout", "bulk_gap", "subflow_gap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"MeterConfig.{name} must be positive")
        if self.activity_timeout >= self.flow_timeout:
            raise ValueError("MeterConfig.activity_timeout must be smaller than flow_timeout")


@dataclass
class FlowRecord:
    flow_id: str
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: int
    start_time: float
    features: list[float]
    label: str = "benign"

    def feature(self, name: str) -> float:
        return self.features[FEATURE_INDEX[name]]


class FlowTable(ColumnTable):
    """Flows held as columns, with a (flows, 78) ``features`` matrix; it reads
    as a sequence of ``FlowRecord``s, each a copy."""

    COLUMNS = ("flow_id", "src", "src_port", "dst", "dst_port", "protocol", "start_time", "features", "label")
    DTYPES = (object, np.int64, np.int64, np.int64, np.int64, np.int64, np.float64, np.float64, object)
    SHAPES = {"features": (len(FEATURE_NAMES),)}
    RECORD = FlowRecord


def _ordered_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum of each run of `values` (consecutive runs of the given sizes),
    added left to right from 0.0 as Python's ``sum()`` adds a list; numpy's
    own reductions add pairwise and round differently.  One step per offset
    into the runs, over the runs still open at that offset."""
    total = np.zeros(len(sizes))
    if not len(values):
        return total
    by_size = np.argsort(-sizes, kind="stable")
    starts = (np.cumsum(sizes) - sizes)[by_size]
    still_open = len(sizes) - np.cumsum(np.bincount(sizes))
    acc = np.zeros(len(sizes))
    for j, k in enumerate(still_open[:-1].tolist()):
        acc[:k] += values[starts[:k] + j]
    total[by_size] = acc
    return total


_pow = np.frompyfunc(operator.pow, 2, 1)


def _squared(values: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each value as Python computes it (libm ``pow``, which
    rounds a few squares differently from ``v * v``), once per distinct value."""
    distinct, where = np.unique(values, return_inverse=True)
    return _pow(distinct, 2).astype(np.float64)[where]


def _run_stats(values: np.ndarray, sizes: np.ndarray):
    """(max, min, mean, population std, sum) of each run of `values`; zeros
    for an empty run."""
    nonempty = sizes > 0
    mx, mn = np.zeros(len(sizes)), np.zeros(len(sizes))
    if len(values):
        starts = (np.cumsum(sizes) - sizes)[nonempty]
        mx[nonempty] = np.maximum.reduceat(values, starts)
        mn[nonempty] = np.minimum.reduceat(values, starts)
    n = np.maximum(sizes, 1)
    total = _ordered_sums(values, sizes)
    mean = total / n
    deviations = values - np.repeat(mean, sizes)
    var = _ordered_sums(_squared(deviations), sizes) / n
    return mx, mn, mean, np.sqrt(var), total


def _run_sums(values: np.ndarray, starts: np.ndarray, n_runs: int) -> np.ndarray:
    """Exact sums of integer `values` over runs beginning at `starts`."""
    out = np.zeros(n_runs, dtype=values.dtype)
    if len(values):
        out[:] = np.add.reduceat(values, starts)
    return out


def _assemble(trace: PacketTrace, flow_timeout: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group packets into flows: one stable sort on the direction-insensitive
    5-tuple, cut at gaps > flow_timeout.  Returns the packet order that lists
    each flow's packets in time order, flows ordered by their first packet;
    each flow's packet count; and each flow's serial among the flows of its
    5-tuple."""
    sa, sp, da, dp = trace.src, trace.src_port, trace.dst, trace.dst_port
    src_low = (sa < da) | ((sa == da) & (sp <= dp))
    key = np.stack([np.where(src_low, sa, da), np.where(src_low, sp, dp),
                    np.where(src_low, da, sa), np.where(src_low, dp, sp), trace.proto])
    by_key = np.lexsort(key[::-1])
    key, ts = key[:, by_key], trace.ts[by_key]
    new_key = np.ones(len(ts), dtype=bool)
    new_key[1:] = (key[:, 1:] != key[:, :-1]).any(axis=0)
    new_flow = new_key.copy()
    new_flow[1:] |= ts[1:] - ts[:-1] > flow_timeout
    flow_starts = np.flatnonzero(new_flow)
    flow_no = np.arange(len(flow_starts))
    serial = flow_no - np.maximum.accumulate(np.where(new_key[flow_starts], flow_no, 0))
    sizes = np.diff(np.append(flow_starts, len(ts)))
    first = by_key[flow_starts]
    by_first = np.argsort(first)
    order = by_key[np.argsort(np.repeat(first, sizes), kind="stable")]
    return order, sizes[by_first], serial[by_first]


def _features(trace: PacketTrace, order: np.ndarray, sizes: np.ndarray, cfg: MeterConfig) -> np.ndarray:
    """(flows, 78) feature matrix; `order` lists the packets flow by flow."""
    ts, payload, header, flags = (getattr(trace, c)[order] for c in ("ts", "payload_len", "header_len", "flags"))
    src, sport = trace.src[order], trace.src_port[order]
    n_flows = len(sizes)
    starts = np.cumsum(sizes) - sizes
    ends = starts + sizes - 1
    flow_of = np.repeat(np.arange(n_flows), sizes)
    fwd = (src == src[starts][flow_of]) & (sport == sport[starts][flow_of])
    out = np.zeros((n_flows, len(FEATURE_NAMES)))

    def put(name: str, values) -> None:
        out[:, FEATURE_INDEX[name]] = values

    def put_stats(prefix: str, stats) -> None:
        for suffix, values in zip(("Max", "Min", "Mean", "Std"), stats):
            put(f"{prefix} {suffix}", values)

    def per_flow(flow: np.ndarray) -> np.ndarray:
        return np.bincount(flow, minlength=n_flows)

    def count(mask: np.ndarray) -> np.ndarray:
        return per_flow(flow_of[mask])

    def gaps_us(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inter-arrival times (us) between the masked packets of each flow,
        and the flow of each."""
        t, f = ts[mask], flow_of[mask]
        same = f[1:] == f[:-1]
        return ((t[1:] - t[:-1]) * 1e6)[same], f[1:][same]

    duration_s = ts[ends] - ts[starts]
    rate_divisor = np.maximum(duration_s, _MIN_RATE_DIVISOR_S)
    n_fwd = count(fwd)
    n_bwd = sizes - n_fwd
    fwd_bytes = _run_sums(np.where(fwd, payload, 0), starts, n_flows).astype(np.float64)
    bwd_bytes = _run_sums(np.where(fwd, 0, payload), starts, n_flows).astype(np.float64)
    total_bytes = fwd_bytes + bwd_bytes
    length = payload.astype(np.float64)

    put("Protocol", trace.proto[order[starts]])
    put("Timestamp", ts[starts])
    put("Flow Duration", duration_s * 1e6)
    put("Tot Fwd Pkts", n_fwd)
    put("Tot Bwd Pkts", n_bwd)
    put("TotLen Fwd Pkts", fwd_bytes)
    put("TotLen Bwd Pkts", bwd_bytes)
    put_stats("Fwd Pkt Len", _run_stats(length[fwd], n_fwd))
    put_stats("Bwd Pkt Len", _run_stats(length[~fwd], n_bwd))
    put("Flow Byts/s", total_bytes / rate_divisor)
    put("Flow Pkts/s", sizes / rate_divisor)

    flow_iat, iat_flow = gaps_us(np.ones(len(ts), dtype=bool))
    put_stats("Flow IAT", _run_stats(flow_iat, per_flow(iat_flow)))
    for prefix, mask in (("Fwd", fwd), ("Bwd", ~fwd)):
        iat, flow = gaps_us(mask)
        stats = _run_stats(iat, per_flow(flow))
        put(f"{prefix} IAT Tot", stats[4])
        put_stats(f"{prefix} IAT", stats)

    for name, mask in (("Fwd", fwd), ("Bwd", ~fwd)):
        for flag in ("PSH", "URG"):
            put(f"{name} {flag} Flags", count(mask & ((flags & FLAG_BITS[flag]) != 0)))
    put("Fwd Header Len", _run_sums(np.where(fwd, header, 0), starts, n_flows))
    put("Bwd Header Len", _run_sums(np.where(fwd, 0, header), starts, n_flows))
    put("Fwd Pkts/s", n_fwd / rate_divisor)
    put("Bwd Pkts/s", n_bwd / rate_divisor)

    pkt_max, pkt_min, pkt_mean, pkt_std, _ = _run_stats(length, sizes)
    put("Pkt Len Min", pkt_min)
    put("Pkt Len Max", pkt_max)
    put("Pkt Len Mean", pkt_mean)
    put("Pkt Len Std", pkt_std)
    put("Pkt Len Var", pkt_std * pkt_std)
    for flag, bit in FLAG_BITS.items():
        put(f"{flag} Flag Cnt", count((flags & bit) != 0))

    put("Down/Up Ratio", n_bwd // np.maximum(n_fwd, 1))
    put("Pkt Size Avg", total_bytes / sizes)
    put("Fwd Seg Size Avg", np.where(n_fwd > 0, fwd_bytes / np.maximum(n_fwd, 1), 0.0))
    put("Bwd Seg Size Avg", np.where(n_bwd > 0, bwd_bytes / np.maximum(n_bwd, 1), 0.0))

    # Bulks: runs of data packets cut at a flow or direction change and at
    # gaps >= bulk_gap; runs of 4 or more count.
    data = np.flatnonzero(payload >= 1)
    run_start = np.ones(len(data), dtype=bool)
    run_start[1:] = (
        (flow_of[data][1:] != flow_of[data][:-1])
        | (fwd[data][1:] != fwd[data][:-1])
        | (ts[data][1:] - ts[data][:-1] >= cfg.bulk_gap)
    )
    run_starts = np.flatnonzero(run_start)
    run_len = np.diff(np.append(run_starts, len(data)))
    run_bytes = _run_sums(payload[data], run_starts, len(run_starts))
    run_first, run_last = data[run_starts], data[run_starts + run_len - 1]
    run_us = (ts[run_last] - ts[run_first]) * 1e6
    for prefix, direction in (("Fwd", True), ("Bwd", False)):
        bulk = (run_len >= 4) & (fwd[run_first] == direction)
        bulk_flow = flow_of[run_first][bulk]
        n_bulks = per_flow(bulk_flow)
        pkts = np.bincount(bulk_flow, weights=run_len[bulk], minlength=n_flows)
        nbytes = np.zeros(n_flows, dtype=np.int64)
        np.add.at(nbytes, bulk_flow, run_bytes[bulk])
        dur_s = _ordered_sums(run_us[bulk], n_bulks) / 1e6
        has = n_bulks > 0
        per = np.maximum(n_bulks, 1)
        put(f"{prefix} Byts/b Avg", np.where(has, nbytes / per, 0.0))
        put(f"{prefix} Pkts/b Avg", np.where(has, pkts / per, 0.0))
        put(f"{prefix} Blk Rate Avg", np.where(has, nbytes / np.maximum(dur_s, _MIN_RATE_DIVISOR_S), 0.0))

    n_subflows = 1 + per_flow(iat_flow[flow_iat > cfg.subflow_gap * 1e6])
    put("Subflow Fwd Pkts", n_fwd / n_subflows)
    put("Subflow Fwd Byts", fwd_bytes / n_subflows)
    put("Subflow Bwd Pkts", n_bwd / n_subflows)
    put("Subflow Bwd Byts", bwd_bytes / n_subflows)
    put("Fwd Act Data Pkts", count(fwd & (payload >= 1)))
    fwd_header_min = np.full(n_flows, np.iinfo(np.int64).max)
    np.minimum.at(fwd_header_min, flow_of[fwd], header[fwd])
    put("Fwd Seg Size Min", np.where(n_fwd > 0, fwd_header_min, 0))

    # Active and idle spans: split at gaps > activity_timeout; an active
    # span of zero width is not recorded.
    cut = np.zeros(len(ts), dtype=bool)
    cut[1:] = (flow_of[1:] == flow_of[:-1]) & (ts[1:] - ts[:-1] > cfg.activity_timeout)
    span_start = cut.copy()
    span_start[starts] = True
    span_starts = np.flatnonzero(span_start)
    span_ends = np.append(span_starts[1:], len(ts)) - 1
    active = ts[span_ends] > ts[span_starts]
    put_stats("Active", _run_stats(((ts[span_ends] - ts[span_starts]) * 1e6)[active],
                               per_flow(flow_of[span_starts][active])))
    put_stats("Idle", _run_stats(((ts[1:] - ts[:-1]) * 1e6)[cut[1:]], count(cut)))
    return out


def meter(packets: Iterable[PacketRecord], cfg: MeterConfig | None = None) -> FlowTable:
    """Assemble time-sorted packets into flows and compute their features.

    `packets` is a ``PacketTrace`` or any iterable of ``PacketRecord``s,
    which is turned into one.  Flows come out benign, in the order of their
    first packets.  Raises ValueError on the first timestamp inversion in the
    input, and on a non-finite timestamp or a negative length.
    """
    cfg = cfg or MeterConfig()
    trace = PacketTrace.of(packets)
    ts = trace.ts
    for name, bad in (("ts", ~np.isfinite(ts)), ("payload_len", trace.payload_len < 0),
                      ("header_len", trace.header_len < 0)):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"packet {i} has an invalid {name}: {getattr(trace, name)[i].item()}")
    inverted = np.flatnonzero(ts[1:] < ts[:-1])
    if len(inverted):
        i = int(inverted[0]) + 1
        raise ValueError(f"packets not time-sorted: index {i} has ts={ts[i]:.6f} after ts={ts[i - 1]:.6f}")
    if not len(trace):
        return FlowTable.from_records([])
    order, sizes, serial = _assemble(trace, cfg.flow_timeout)
    first = order[np.cumsum(sizes) - sizes]
    src, sport, dst, dport, proto = (getattr(trace, c)[first] for c in ("src", "src_port", "dst", "dst_port", "proto"))
    address = trace.addresses
    flow_id = [f"{address[s]}:{sp}->{address[d]}:{dp}/{p}#{n}" for s, sp, d, dp, p, n in
               zip(src.tolist(), sport.tolist(), dst.tolist(), dport.tolist(), proto.tolist(), serial.tolist())]
    features = _features(trace, order, sizes, cfg)
    return FlowTable(address, flow_id, src, sport, dst, dport, proto, ts[first], features, ["benign"] * len(first))


def write_feature_names(path) -> None:
    """Machine-readable catalog: one name per line, order-significant."""
    with open(path, "w") as fh:
        for name in FEATURE_NAMES:
            fh.write(name + "\n")


def write_flow_csv(flows: Iterable[FlowRecord], path) -> None:
    """One quoted metadata prefix, the features by their float repr and the
    quoted label per flow; `flows` may be any iterable of ``FlowRecord``s."""
    flows = FlowTable.of(flows)
    address = [f'"{a}",' for a in flows.addresses]
    quoted = '"{}",'.format
    with open(path, "w") as fh:
        fh.write(",".join(f'"{h}"' for h in METADATA_NAMES + FEATURE_NAMES + [LABEL_NAME]) + "\n")
        write_rows(fh, [(flows.flow_id, quoted), (flows.src, address.__getitem__), (flows.src_port, quoted),
                        (flows.dst, address.__getitem__), (flows.dst_port, quoted), (flows.start_time, '"{!r}",'.format),
                        (flows.features, "{!r},".format), (flows.label, '"{}"\n'.format)], FLOW_BLOCK)


# A flow row as numpy's tokenizer reads it: the start time and the features
# are one run of floats.
_FLOW_ROW = np.dtype([("flow_id", object), ("src", object), ("src_port", np.int64), ("dst", object),
                      ("dst_port", np.int64), ("values", np.float64, (1 + len(FEATURE_NAMES),)), ("label", object)])


def read_flow_csv(path) -> FlowTable:
    """Inverse of write_flow_csv: read by numpy's C tokenizer, or else
    FLOW_BLOCK rows at a time; rejects a header off the catalog, a row with
    the wrong number of fields, a non-finite start time or feature and an
    integer outside the 64-bit range."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty flow file") from None
        expected = METADATA_NAMES + FEATURE_NAMES + [LABEL_NAME]
        for col in header:
            if col not in expected:
                raise ValueError(f"{path}: unknown column {col!r}")
        for col in expected:
            if col not in header:
                raise ValueError(f"{path}: missing column {col!r}")
        if header != expected:
            raise ValueError(f"{path}: columns out of catalog order")
        rows = tokenized_rows(path, fh, reader.line_num, _FLOW_ROW, quotechar='"')
        if rows is not None:
            values = rows["values"]
            protocol = values[:, 1 + FEATURE_INDEX["Protocol"]]
            if np.isfinite(values).all() and ((protocol >= -2.0**63) & (protocol < 2.0**63)).all():
                return FlowTable.from_columns(
                    [rows["flow_id"].tolist(), rows["src"].tolist(), rows["src_port"].copy(), rows["dst"].tolist(),
                     rows["dst_port"].copy(), protocol.astype(np.int64), values[:, 0].copy(),
                     np.ascontiguousarray(values[:, 1:]), rows["label"].tolist()], FLOW_BLOCK)
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        blocks = []
        for rows, lines in numbered_blocks(reader, FLOW_BLOCK):
            bad = next((row for row in rows if len(row) != len(expected)), None)
            if bad is not None:
                raise ValueError(f"{path}: row with {len(bad)} fields, expected {len(expected)}")
            flow_id, src, sport, dst, dport = zip(*(row[:5] for row in rows))
            values = float_cells(path, header, rows, slice(5, -1), lines)
            start, features = values[:, 0], values[:, 1:]
            protocol = list(map(int, features[:, FEATURE_INDEX["Protocol"]].tolist()))
            try:
                blocks.append(FlowTable.from_columns([flow_id, src, list(map(int, sport)), dst, list(map(int, dport)),
                                                      protocol, start, features, [row[-1] for row in rows]]))
            except OverflowError:
                raise ValueError(f"{path}: integer field outside the 64-bit range") from None
    return FlowTable.concat(blocks)
