"""Brute-force per-formula oracle for the 78 flow features.

Written independently of ddsids.flowmeter: every feature family is computed
directly from the packet list with numpy, one small function per family, so
the production meter can be checked against it value by value.
"""

from __future__ import annotations

import numpy as np

GUARD_S = 1e-6


def _pop_stats(values):
    if len(values) == 0:
        return 0.0, 0.0, 0.0, 0.0
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.max()), float(arr.min()), float(arr.mean()), float(arr.std(ddof=0))


def _gaps_us(times):
    if len(times) < 2:
        return np.empty(0)
    arr = np.asarray(times, dtype=np.float64)
    return (arr[1:] - arr[:-1]) * 1e6


def _is_fwd(pkt, first):
    return pkt.src_ip == first.src_ip and pkt.src_port == first.src_port


def _bulk_segments(packets, first, bulk_gap):
    """Maximal same-direction data-packet runs with gaps < bulk_gap."""
    data = [p for p in packets if p.payload_len >= 1]
    segments = []
    for p in data:
        d = _is_fwd(p, first)
        if segments and segments[-1][0] == d and (p.ts - segments[-1][1][-1].ts) < bulk_gap:
            segments[-1][1].append(p)
        else:
            segments.append((d, [p]))
    return [(d, seg) for d, seg in segments if len(seg) >= 4]


def _bulk_features(packets, first, bulk_gap, want_fwd):
    segs = [seg for d, seg in _bulk_segments(packets, first, bulk_gap) if d == want_fwd]
    if not segs:
        return 0.0, 0.0, 0.0
    n = len(segs)
    total_bytes = sum(p.payload_len for seg in segs for p in seg)
    total_pkts = sum(len(seg) for seg in segs)
    total_dur_s = sum((seg[-1].ts - seg[0].ts) * 1e6 for seg in segs) / 1e6
    return total_bytes / n, total_pkts / n, total_bytes / max(total_dur_s, GUARD_S)


def _active_idle_spans(times, activity_timeout):
    active, idle = [], []
    span_start, last = times[0], times[0]
    for t in times[1:]:
        if t - last > activity_timeout:
            if last > span_start:
                active.append((last - span_start) * 1e6)
            idle.append((t - last) * 1e6)
            span_start = t
        last = t
    if last > span_start:
        active.append((last - span_start) * 1e6)
    return active, idle


def _flag_count(packets, bit):
    return float(sum(1 for p in packets if p.flags & bit))


def oracle_features(packets, start_time, flow_timeout=120.0, activity_timeout=5.0, bulk_gap=1.0, subflow_gap=1.0):
    """Feature-name -> value mapping for one flow's time-ordered packets."""
    first = packets[0]
    fwd = [p for p in packets if _is_fwd(p, first)]
    bwd = [p for p in packets if not _is_fwd(p, first)]
    dur_s = packets[-1].ts - packets[0].ts

    out = {}
    out["Protocol"] = float(first.proto)
    out["Timestamp"] = start_time
    out["Flow Duration"] = dur_s * 1e6
    out["Tot Fwd Pkts"] = float(len(fwd))
    out["Tot Bwd Pkts"] = float(len(bwd))
    out["TotLen Fwd Pkts"] = float(sum(p.payload_len for p in fwd))
    out["TotLen Bwd Pkts"] = float(sum(p.payload_len for p in bwd))

    for prefix, side in (("Fwd", fwd), ("Bwd", bwd)):
        mx, mn, mean, std = _pop_stats([p.payload_len for p in side])
        out[f"{prefix} Pkt Len Max"] = mx
        out[f"{prefix} Pkt Len Min"] = mn
        out[f"{prefix} Pkt Len Mean"] = mean
        out[f"{prefix} Pkt Len Std"] = std

    total_bytes = out["TotLen Fwd Pkts"] + out["TotLen Bwd Pkts"]
    out["Flow Byts/s"] = total_bytes / max(dur_s, GUARD_S)
    out["Flow Pkts/s"] = len(packets) / max(dur_s, GUARD_S)

    for prefix, side in (("Flow", packets), ("Fwd", fwd), ("Bwd", bwd)):
        gaps = _gaps_us([p.ts for p in side])
        mx, mn, mean, std = _pop_stats(gaps)
        if prefix != "Flow":
            out[f"{prefix} IAT Tot"] = float(gaps.sum()) if len(gaps) else 0.0
        out[f"{prefix} IAT Mean"] = mean
        out[f"{prefix} IAT Std"] = std
        out[f"{prefix} IAT Max"] = mx
        out[f"{prefix} IAT Min"] = mn

    out["Fwd PSH Flags"] = _flag_count(fwd, 8)
    out["Bwd PSH Flags"] = _flag_count(bwd, 8)
    out["Fwd URG Flags"] = _flag_count(fwd, 32)
    out["Bwd URG Flags"] = _flag_count(bwd, 32)
    out["Fwd Header Len"] = float(sum(p.header_len for p in fwd))
    out["Bwd Header Len"] = float(sum(p.header_len for p in bwd))
    out["Fwd Pkts/s"] = len(fwd) / max(dur_s, GUARD_S)
    out["Bwd Pkts/s"] = len(bwd) / max(dur_s, GUARD_S)

    mx, mn, mean, std = _pop_stats([p.payload_len for p in packets])
    out["Pkt Len Min"] = mn
    out["Pkt Len Max"] = mx
    out["Pkt Len Mean"] = mean
    out["Pkt Len Std"] = std
    out["Pkt Len Var"] = float(np.asarray([p.payload_len for p in packets], dtype=np.float64).var(ddof=0))

    for name, bit in (("FIN", 1), ("SYN", 2), ("RST", 4), ("PSH", 8), ("ACK", 16), ("URG", 32), ("CWE", 64), ("ECE", 128)):
        out[f"{name} Flag Cnt"] = _flag_count(packets, bit)

    out["Down/Up Ratio"] = float(len(bwd) // max(len(fwd), 1))
    out["Pkt Size Avg"] = total_bytes / len(packets)
    out["Fwd Seg Size Avg"] = out["TotLen Fwd Pkts"] / len(fwd) if fwd else 0.0
    out["Bwd Seg Size Avg"] = out["TotLen Bwd Pkts"] / len(bwd) if bwd else 0.0

    fb, fp_, fr = _bulk_features(packets, first, bulk_gap, True)
    bb, bp, br = _bulk_features(packets, first, bulk_gap, False)
    out["Fwd Byts/b Avg"] = fb
    out["Fwd Pkts/b Avg"] = fp_
    out["Fwd Blk Rate Avg"] = fr
    out["Bwd Byts/b Avg"] = bb
    out["Bwd Pkts/b Avg"] = bp
    out["Bwd Blk Rate Avg"] = br

    gaps = _gaps_us([p.ts for p in packets])
    n_subflows = 1 + int(np.sum(gaps > subflow_gap * 1e6)) if len(gaps) else 1
    out["Subflow Fwd Pkts"] = len(fwd) / n_subflows
    out["Subflow Fwd Byts"] = out["TotLen Fwd Pkts"] / n_subflows
    out["Subflow Bwd Pkts"] = len(bwd) / n_subflows
    out["Subflow Bwd Byts"] = out["TotLen Bwd Pkts"] / n_subflows

    out["Init Fwd Win Byts"] = 0.0
    out["Init Bwd Win Byts"] = 0.0
    out["Fwd Act Data Pkts"] = float(sum(1 for p in fwd if p.payload_len >= 1))
    out["Fwd Seg Size Min"] = float(min((p.header_len for p in fwd), default=0))

    active, idle = _active_idle_spans([p.ts for p in packets], activity_timeout)
    for name, spans in (("Active", active), ("Idle", idle)):
        mx, mn, mean, std = _pop_stats(spans)
        out[f"{name} Mean"] = mean
        out[f"{name} Std"] = std
        out[f"{name} Max"] = mx
        out[f"{name} Min"] = mn
    return out


# Features that are integer-valued by construction; compared bit for bit
# against the meter. Everything else allows 1e-9 relative error.
EXACT_FEATURES = {
    "Protocol",
    "Tot Fwd Pkts",
    "Tot Bwd Pkts",
    "TotLen Fwd Pkts",
    "TotLen Bwd Pkts",
    "Fwd PSH Flags",
    "Bwd PSH Flags",
    "Fwd URG Flags",
    "Bwd URG Flags",
    "Fwd Header Len",
    "Bwd Header Len",
    "FIN Flag Cnt",
    "SYN Flag Cnt",
    "RST Flag Cnt",
    "PSH Flag Cnt",
    "ACK Flag Cnt",
    "URG Flag Cnt",
    "CWE Flag Cnt",
    "ECE Flag Cnt",
    "Down/Up Ratio",
    "Init Fwd Win Byts",
    "Init Bwd Win Byts",
    "Fwd Act Data Pkts",
    "Fwd Seg Size Min",
    "Pkt Len Min",
    "Pkt Len Max",
    "Fwd Pkt Len Max",
    "Fwd Pkt Len Min",
    "Bwd Pkt Len Max",
    "Bwd Pkt Len Min",
}


def random_flow_packets(rng, max_packets=20):
    """One random flow's packets on the microsecond grid: mixed directions,
    payload/header/flag variety, and gaps spanning the bulk, subflow and
    activity thresholds."""
    from records import PacketRecord

    n = int(rng.integers(1, max_packets + 1))
    src = (f"10.0.5.{int(rng.integers(2, 7))}", int(rng.integers(1024, 65536)))
    dst = (f"10.0.5.{int(rng.integers(2, 7))}", int(rng.integers(1024, 65536)))
    while dst == src:
        dst = (dst[0], int(rng.integers(1024, 65536)))
    t_us = int(rng.integers(0, 10_000_000))
    packets = []
    for _ in range(n):
        fwd = bool(rng.uniform() < 0.6)
        payload = int(rng.integers(0, 1500)) if rng.uniform() < 0.9 else 0
        header = int(rng.integers(8, 61))
        flags = int(rng.integers(0, 256)) if rng.uniform() < 0.3 else 0
        s, d = (src, dst) if fwd else (dst, src)
        packets.append(PacketRecord(t_us / 1e6, s[0], s[1], d[0], d[1], 17, payload, header, flags))
        gap_choice = rng.uniform()
        if gap_choice < 0.5:
            t_us += int(rng.integers(0, 300_000))
        elif gap_choice < 0.85:
            t_us += int(rng.integers(900_000, 1_200_000))
        else:
            t_us += int(rng.integers(4_000_000, 9_000_000))
    return packets


def oracle_flows(packets, flow_timeout=120.0):
    """Group time-sorted packets into (key, packet-list) flows by idle cutoff,
    using a dict-of-lists sweep independent of the meter's implementation."""
    flows = []
    open_by_key = {}
    for pkt in packets:
        a = (pkt.src_ip, pkt.src_port)
        b = (pkt.dst_ip, pkt.dst_port)
        key = (min(a, b), max(a, b), pkt.proto)
        if key in open_by_key and pkt.ts - open_by_key[key][-1].ts > flow_timeout:
            flows.append(open_by_key.pop(key))
        open_by_key.setdefault(key, []).append(pkt)
    flows.extend(open_by_key.values())
    flows.sort(key=lambda pkts: pkts[0].ts)
    return flows
