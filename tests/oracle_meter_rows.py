"""Row-wise reference for the flow meter.

This is the meter `ddsids.flowmeter` used before its columnar rewrite: it
walks the packet records one by one, groups them into flows with a dict of
open flows, and computes each flow's 78 features from Python lists.  The
grouping and the feature code are kept verbatim; only the names of the
catalog and the flag bits come from ddsids, and the record types from the
tests' `records` module.  The columnar
`meter` is checked against it feature for feature, on the `repr` of each
value, so a change in summation order or rounding shows.

The float sums here are Python's `sum()`, which adds left to right up to
Python 3.11; from 3.12 it compensates, so the bit-for-bit comparison only
holds where `LEFT_TO_RIGHT_SUM` is true.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ddsids.flowmeter import FEATURE_NAMES, FLAG_BITS
from records import FlowRecord, PacketRecord

_MIN_RATE_DIVISOR_S = 1e-6
BULK_GAP = 1.0  # seconds; a gap this long ends a bulk
SUBFLOW_GAP = 1.0  # seconds; a longer gap starts a subflow

LEFT_TO_RIGHT_SUM = sum([1e100, 1.0, -1e100]) == 0.0


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


def compute_features(packets: Sequence[PacketRecord], activity_timeout: float, start_time: float) -> list[float]:
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

    bulks = _bulks(packets, fwd_src, BULK_GAP)
    fb_count, fb_pkts, fb_bytes, fb_dur_us = bulks[True]
    bb_count, bb_pkts, bb_bytes, bb_dur_us = bulks[False]

    n_subflows = 1 + sum(1 for g in flow_iat if g > SUBFLOW_GAP * 1e6)

    active, idle = _active_idle([p.ts for p in packets], activity_timeout)
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


def meter(packets: Iterable[PacketRecord], flow_timeout: float = 120.0,
          activity_timeout: float = 5.0) -> list[FlowRecord]:
    """Assemble time-sorted packets into flows and compute their features.

    Raises ValueError on the first timestamp inversion in the input.
    """
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
        if cur is not None and pkt.ts - cur[-1].ts > flow_timeout:
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
                features=compute_features(pkts, activity_timeout, start),
            )
        )
    return records
