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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .simnet import PacketRecord

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


def flow_key(pkt: PacketRecord) -> tuple:
    """Direction-insensitive 5-tuple key."""
    a = (pkt.src_ip, pkt.src_port)
    b = (pkt.dst_ip, pkt.dst_port)
    return (a, b, pkt.proto) if a <= b else (b, a, pkt.proto)


def _stats(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(max, min, mean, population std); zeros on empty input."""
    if not values:
        return 0.0, 0.0, 0.0, 0.0
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return max(values), min(values), mean, math.sqrt(var)


def _iat_us(times: Sequence[float]) -> list[float]:
    return [(times[i] - times[i - 1]) * 1e6 for i in range(1, len(times))]


def _rate(total: float, duration_s: float) -> float:
    return total / max(duration_s, _MIN_RATE_DIVISOR_S)


def _bulks(packets: Sequence[PacketRecord], fwd_src: tuple, bulk_gap: float):
    """Per-direction bulk aggregates: {dir: [count, pkts, bytes, duration_us]}.

    Data packets (payload >= 1) are segmented at direction changes and at
    gaps >= bulk_gap; segments of >= 4 packets count as bulks.
    """
    agg = {True: [0, 0, 0, 0.0], False: [0, 0, 0, 0.0]}
    segment: list[PacketRecord] = []
    seg_fwd = True

    def close():
        if len(segment) >= 4:
            a = agg[seg_fwd]
            a[0] += 1
            a[1] += len(segment)
            a[2] += sum(p.payload_len for p in segment)
            a[3] += (segment[-1].ts - segment[0].ts) * 1e6

    for pkt in packets:
        if pkt.payload_len < 1:
            continue
        is_fwd = (pkt.src_ip, pkt.src_port) == fwd_src
        if segment and (is_fwd != seg_fwd or pkt.ts - segment[-1].ts >= bulk_gap):
            close()
            segment = []
        seg_fwd = is_fwd
        segment.append(pkt)
    close()
    return agg


def _active_idle(times: Sequence[float], activity_timeout: float) -> tuple[list[float], list[float]]:
    """Active and idle span lengths in microseconds."""
    active: list[float] = []
    idle: list[float] = []
    span_start = times[0]
    last = times[0]
    for t in times[1:]:
        gap = t - last
        if gap > activity_timeout:
            if last > span_start:
                active.append((last - span_start) * 1e6)
            idle.append(gap * 1e6)
            span_start = t
        last = t
    if last > span_start:
        active.append((last - span_start) * 1e6)
    return active, idle


def compute_features(packets: Sequence[PacketRecord], cfg: MeterConfig, start_time: float) -> list[float]:
    """78-entry feature vector for one flow's time-ordered packets."""
    first = packets[0]
    fwd_src = (first.src_ip, first.src_port)
    fwd = [p for p in packets if (p.src_ip, p.src_port) == fwd_src]
    bwd = [p for p in packets if (p.src_ip, p.src_port) != fwd_src]

    duration_s = packets[-1].ts - packets[0].ts
    duration_us = duration_s * 1e6

    fwd_len = [float(p.payload_len) for p in fwd]
    bwd_len = [float(p.payload_len) for p in bwd]
    all_len = [float(p.payload_len) for p in packets]

    fwd_stats = _stats(fwd_len)
    bwd_stats = _stats(bwd_len)

    flow_iat = _iat_us([p.ts for p in packets])
    fwd_iat = _iat_us([p.ts for p in fwd])
    bwd_iat = _iat_us([p.ts for p in bwd])
    flow_iat_stats = _stats(flow_iat)
    fwd_iat_stats = _stats(fwd_iat)
    bwd_iat_stats = _stats(bwd_iat)

    tot_fwd_bytes = float(sum(p.payload_len for p in fwd))
    tot_bwd_bytes = float(sum(p.payload_len for p in bwd))
    total_bytes = tot_fwd_bytes + tot_bwd_bytes

    pkt_max, pkt_min, pkt_mean, pkt_std = _stats(all_len)
    pkt_var = pkt_std * pkt_std

    def flag_count(pkts, bit):
        return float(sum(1 for p in pkts if p.flags & bit))

    bulks = _bulks(packets, fwd_src, cfg.bulk_gap)
    fb_count, fb_pkts, fb_bytes, fb_dur_us = bulks[True]
    bb_count, bb_pkts, bb_bytes, bb_dur_us = bulks[False]

    n_subflows = 1 + sum(1 for g in flow_iat if g > cfg.subflow_gap * 1e6)

    active, idle = _active_idle([p.ts for p in packets], cfg.activity_timeout)
    active_stats = _stats(active)
    idle_stats = _stats(idle)

    values = {
        "Protocol": float(first.proto),
        "Timestamp": start_time,
        "Flow Duration": duration_us,
        "Tot Fwd Pkts": float(len(fwd)),
        "Tot Bwd Pkts": float(len(bwd)),
        "TotLen Fwd Pkts": tot_fwd_bytes,
        "TotLen Bwd Pkts": tot_bwd_bytes,
        "Fwd Pkt Len Max": fwd_stats[0],
        "Fwd Pkt Len Min": fwd_stats[1],
        "Fwd Pkt Len Mean": fwd_stats[2],
        "Fwd Pkt Len Std": fwd_stats[3],
        "Bwd Pkt Len Max": bwd_stats[0],
        "Bwd Pkt Len Min": bwd_stats[1],
        "Bwd Pkt Len Mean": bwd_stats[2],
        "Bwd Pkt Len Std": bwd_stats[3],
        "Flow Byts/s": _rate(total_bytes, duration_s),
        "Flow Pkts/s": _rate(float(len(packets)), duration_s),
        "Flow IAT Mean": flow_iat_stats[2],
        "Flow IAT Std": flow_iat_stats[3],
        "Flow IAT Max": flow_iat_stats[0],
        "Flow IAT Min": flow_iat_stats[1],
        "Fwd IAT Tot": sum(fwd_iat),
        "Fwd IAT Mean": fwd_iat_stats[2],
        "Fwd IAT Std": fwd_iat_stats[3],
        "Fwd IAT Max": fwd_iat_stats[0],
        "Fwd IAT Min": fwd_iat_stats[1],
        "Bwd IAT Tot": sum(bwd_iat),
        "Bwd IAT Mean": bwd_iat_stats[2],
        "Bwd IAT Std": bwd_iat_stats[3],
        "Bwd IAT Max": bwd_iat_stats[0],
        "Bwd IAT Min": bwd_iat_stats[1],
        "Fwd PSH Flags": flag_count(fwd, FLAG_BITS["PSH"]),
        "Bwd PSH Flags": flag_count(bwd, FLAG_BITS["PSH"]),
        "Fwd URG Flags": flag_count(fwd, FLAG_BITS["URG"]),
        "Bwd URG Flags": flag_count(bwd, FLAG_BITS["URG"]),
        "Fwd Header Len": float(sum(p.header_len for p in fwd)),
        "Bwd Header Len": float(sum(p.header_len for p in bwd)),
        "Fwd Pkts/s": _rate(float(len(fwd)), duration_s),
        "Bwd Pkts/s": _rate(float(len(bwd)), duration_s),
        "Pkt Len Min": pkt_min,
        "Pkt Len Max": pkt_max,
        "Pkt Len Mean": pkt_mean,
        "Pkt Len Std": pkt_std,
        "Pkt Len Var": pkt_var,
        "FIN Flag Cnt": flag_count(packets, FLAG_BITS["FIN"]),
        "SYN Flag Cnt": flag_count(packets, FLAG_BITS["SYN"]),
        "RST Flag Cnt": flag_count(packets, FLAG_BITS["RST"]),
        "PSH Flag Cnt": flag_count(packets, FLAG_BITS["PSH"]),
        "ACK Flag Cnt": flag_count(packets, FLAG_BITS["ACK"]),
        "URG Flag Cnt": flag_count(packets, FLAG_BITS["URG"]),
        "CWE Flag Cnt": flag_count(packets, FLAG_BITS["CWE"]),
        "ECE Flag Cnt": flag_count(packets, FLAG_BITS["ECE"]),
        "Down/Up Ratio": float(len(bwd) // max(len(fwd), 1)),
        "Pkt Size Avg": total_bytes / len(packets),
        "Fwd Seg Size Avg": tot_fwd_bytes / len(fwd) if fwd else 0.0,
        "Bwd Seg Size Avg": tot_bwd_bytes / len(bwd) if bwd else 0.0,
        "Fwd Byts/b Avg": fb_bytes / fb_count if fb_count else 0.0,
        "Fwd Pkts/b Avg": fb_pkts / fb_count if fb_count else 0.0,
        "Fwd Blk Rate Avg": _rate(float(fb_bytes), fb_dur_us / 1e6) if fb_count else 0.0,
        "Bwd Byts/b Avg": bb_bytes / bb_count if bb_count else 0.0,
        "Bwd Pkts/b Avg": bb_pkts / bb_count if bb_count else 0.0,
        "Bwd Blk Rate Avg": _rate(float(bb_bytes), bb_dur_us / 1e6) if bb_count else 0.0,
        "Subflow Fwd Pkts": len(fwd) / n_subflows,
        "Subflow Fwd Byts": tot_fwd_bytes / n_subflows,
        "Subflow Bwd Pkts": len(bwd) / n_subflows,
        "Subflow Bwd Byts": tot_bwd_bytes / n_subflows,
        "Init Fwd Win Byts": 0.0,
        "Init Bwd Win Byts": 0.0,
        "Fwd Act Data Pkts": float(sum(1 for p in fwd if p.payload_len >= 1)),
        "Fwd Seg Size Min": float(min((p.header_len for p in fwd), default=0)),
        "Active Mean": active_stats[2],
        "Active Std": active_stats[3],
        "Active Max": active_stats[0],
        "Active Min": active_stats[1],
        "Idle Mean": idle_stats[2],
        "Idle Std": idle_stats[3],
        "Idle Max": idle_stats[0],
        "Idle Min": idle_stats[1],
    }
    return [values[name] for name in FEATURE_NAMES]


def meter(packets: Iterable[PacketRecord], cfg: MeterConfig | None = None) -> list[FlowRecord]:
    """Assemble time-sorted packets into flows and compute their features.

    Raises ValueError on the first timestamp inversion in the input.
    """
    cfg = cfg or MeterConfig()
    packets = list(packets)
    for i in range(1, len(packets)):
        if packets[i].ts < packets[i - 1].ts:
            raise ValueError(
                f"packets not time-sorted: index {i} has ts={packets[i].ts:.6f} "
                f"after ts={packets[i - 1].ts:.6f}"
            )

    # Group by key, cutting at idle gaps > flow_timeout.  Each open flow keeps
    # (first-packet-global-index, packet list) so output ordering is stable.
    flows: list[tuple[float, int, list[PacketRecord]]] = []
    open_flows: dict[tuple, list[PacketRecord]] = {}
    open_order: dict[tuple, int] = {}
    for idx, pkt in enumerate(packets):
        key = flow_key(pkt)
        cur = open_flows.get(key)
        if cur is not None and pkt.ts - cur[-1].ts > cfg.flow_timeout:
            flows.append((cur[0].ts, open_order[key], cur))
            cur = None
        if cur is None:
            open_flows[key] = [pkt]
            open_order[key] = idx
        else:
            cur.append(pkt)
    for key, cur in open_flows.items():
        flows.append((cur[0].ts, open_order[key], cur))
    flows.sort(key=lambda item: (item[0], item[1]))

    records = []
    serial: dict[tuple, int] = {}
    for start, _, pkts in flows:
        first = pkts[0]
        key = flow_key(first)
        n = serial.get(key, 0)
        serial[key] = n + 1
        fid = (
            f"{first.src_ip}:{first.src_port}->{first.dst_ip}:{first.dst_port}"
            f"/{first.proto}#{n}"
        )
        records.append(
            FlowRecord(
                flow_id=fid,
                src_ip=first.src_ip,
                src_port=first.src_port,
                dst_ip=first.dst_ip,
                dst_port=first.dst_port,
                protocol=first.proto,
                start_time=start,
                features=compute_features(pkts, cfg, start),
            )
        )
    return records


def write_feature_names(path) -> None:
    """Machine-readable catalog: one name per line, order-significant."""
    with open(path, "w") as fh:
        for name in FEATURE_NAMES:
            fh.write(name + "\n")


def write_flow_csv(flows: Iterable[FlowRecord], path) -> None:
    header = METADATA_NAMES + FEATURE_NAMES + [LABEL_NAME]
    with open(path, "w") as fh:
        fh.write(",".join(f'"{h}"' for h in header) + "\n")
        for f in flows:
            meta = [f.flow_id, f.src_ip, str(f.src_port), f.dst_ip, str(f.dst_port), repr(f.start_time)]
            fh.write(",".join(f'"{m}"' for m in meta))
            fh.write("," + ",".join(repr(v) for v in f.features))
            fh.write(f',"{f.label}"\n')


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
