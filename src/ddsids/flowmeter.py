"""Bidirectional session assembly and per-session feature vectors.

Packets are grouped by the direction-insensitive 5-tuple (addresses, ports,
protocol).  A group is cut into separate flows whenever the idle gap between
consecutive packets exceeds ``FLOW_TIMEOUT_S``.  The "forward" direction of a
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
  (payload >= 1) whose successive gaps are all < ``BULK_GAP_S``; packets with
  empty payload neither join nor break a run, a data packet of the opposite
  direction breaks it,
* subflows are the segments obtained by splitting the whole flow at gaps
  > ``SUBFLOW_GAP_S``; the ``Subflow *`` features divide the flow totals by the
  segment count,
* active/idle spans split at gaps > ``ACTIVITY_TIMEOUT_S``; active spans of
  zero width are not recorded,
* ``Init Fwd/Bwd Win Byts`` are structurally 0 for datagram traffic but kept
  so the catalog stays at 78 features,
* ``Fwd Seg Size Min`` is the smallest forward *header* length.

The ``Timestamp`` feature holds the flow start time in seconds at metering
time; downstream preprocessing replaces it with inter-session deltas.

The meter works on the columns of a ``PacketTrace``: one stable sort groups
the packets by flow, and every feature is a reduction over each flow's
segment of the sorted columns.  Float sums are added left to right within a
flow and squares are libm ``pow``'s, as Python's ``**`` takes them, so each
value is the one a per-packet loop over the flow would compute, to the last
bit.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .simnet import SCENARIOS, PacketTrace
from .tables import FLOW_BLOCK, INT64, IPV4, PORTS, ColumnTable, format_once, read_rows, row_line, write_rows

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

# Flag bit positions in a packet's flags.
FLAG_BITS = {"FIN": 1, "SYN": 2, "RST": 4, "PSH": 8, "ACK": 16, "URG": 32, "CWE": 64, "ECE": 128}

_MIN_RATE_DIVISOR_S = 1e-6
FLOW_TIMEOUT_S = 120.0  # a longer gap ends a flow
ACTIVITY_TIMEOUT_S = 5.0  # a longer gap ends an active span
BULK_GAP_S = 1.0  # a gap this long ends a bulk
SUBFLOW_GAP_S = 1.0  # a longer gap starts a subflow
METER_BLOCK = 1 << 15  # packets metered at a time, in whole flows; each block repeats _ordered_sums' steps


class FlowTable(ColumnTable):
    """Flows held as columns, with a (flows, 78) ``features`` matrix."""

    COLUMNS = ("flow_id", "src", "src_port", "dst", "dst_port", "protocol", "start_time", "features", "label")
    DTYPES = (object, np.int64, np.int64, np.int64, np.int64, np.int64, np.float64, np.float64, object)
    SHAPES = {"features": (len(FEATURE_NAMES),)}


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


def _squared(values: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each value as Python computes it: libm ``pow``, here
    through `np.float_power`'s C loop, with no Python float per value.
    ``v * v`` rounds some squares differently, and so does `np.power`, which
    runs a SIMD pow of its own where the CPU has one."""
    return np.float_power(values, np.full(len(values), 2.0))


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


def _tuple_order(trace: PacketTrace) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of the packets by their direction-insensitive
    5-tuple, and where in that order the tuple changes.  The key is a
    sequence of columns, not a stacked array, and is gathered into that
    order a column at a time; it is dropped on return, before `_assemble`
    orders the flows."""
    sa, sp, da, dp = trace.src, trace.src_port, trace.dst, trace.dst_port
    src_low = (sa < da) | ((sa == da) & (sp <= dp))
    # Least significant first, as np.lexsort takes them: the low end's
    # address sorts first, then its port, the high end's address and port.
    key = (trace.proto, np.where(src_low, dp, sp), np.where(src_low, da, sa), np.where(src_low, sp, dp),
           np.where(src_low, sa, da))
    by_key = np.lexsort(key)
    new_key = np.zeros(len(by_key), dtype=bool)
    new_key[:1] = True
    for column in key:
        column = column[by_key]
        new_key[1:] |= column[1:] != column[:-1]
    return by_key, new_key


def _assemble(trace: PacketTrace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group packets into flows: one stable sort on the direction-insensitive
    5-tuple (`_tuple_order`), cut at gaps > FLOW_TIMEOUT_S.  Returns the
    packet order that lists each flow's packets in time order, flows ordered
    by their first packet; each flow's packet count; and each flow's serial
    among the flows of its 5-tuple."""
    by_key, new_key = _tuple_order(trace)
    new_flow = new_key.copy()
    new_flow[1:] |= np.diff(trace.ts[by_key]) > FLOW_TIMEOUT_S
    flow_starts = np.flatnonzero(new_flow)
    flow_no = np.arange(len(flow_starts))
    serial = flow_no - np.maximum.accumulate(np.where(new_key[flow_starts], flow_no, 0))
    sizes = np.diff(np.append(flow_starts, len(by_key)))
    first = by_key[flow_starts]
    by_first = np.argsort(first)
    order = by_key[np.argsort(np.repeat(first, sizes), kind="stable")]
    return order, sizes[by_first], serial[by_first]


def _features(trace: PacketTrace, order: np.ndarray, sizes: np.ndarray) -> np.ndarray:
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
    # gaps >= BULK_GAP_S; runs of 4 or more count.
    data = np.flatnonzero(payload >= 1)
    run_start = np.ones(len(data), dtype=bool)
    run_start[1:] = (
        (flow_of[data][1:] != flow_of[data][:-1])
        | (fwd[data][1:] != fwd[data][:-1])
        | (ts[data][1:] - ts[data][:-1] >= BULK_GAP_S)
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

    n_subflows = 1 + per_flow(iat_flow[flow_iat > SUBFLOW_GAP_S * 1e6])
    put("Subflow Fwd Pkts", n_fwd / n_subflows)
    put("Subflow Fwd Byts", fwd_bytes / n_subflows)
    put("Subflow Bwd Pkts", n_bwd / n_subflows)
    put("Subflow Bwd Byts", bwd_bytes / n_subflows)
    put("Fwd Act Data Pkts", count(fwd & (payload >= 1)))
    fwd_header_min = np.full(n_flows, np.iinfo(np.int64).max)
    np.minimum.at(fwd_header_min, flow_of[fwd], header[fwd])
    put("Fwd Seg Size Min", np.where(n_fwd > 0, fwd_header_min, 0))

    # Active and idle spans: split at gaps > ACTIVITY_TIMEOUT_S; an active
    # span of zero width is not recorded.
    cut = np.zeros(len(ts), dtype=bool)
    cut[1:] = (flow_of[1:] == flow_of[:-1]) & (ts[1:] - ts[:-1] > ACTIVITY_TIMEOUT_S)
    span_start = cut.copy()
    span_start[starts] = True
    span_starts = np.flatnonzero(span_start)
    span_ends = np.append(span_starts[1:], len(ts)) - 1
    active = ts[span_ends] > ts[span_starts]
    put_stats("Active", _run_stats(((ts[span_ends] - ts[span_starts]) * 1e6)[active],
                               per_flow(flow_of[span_starts][active])))
    put_stats("Idle", _run_stats(((ts[1:] - ts[:-1]) * 1e6)[cut[1:]], count(cut)))
    return out


def time_inversion(ts: np.ndarray) -> int | None:
    """The first index whose time precedes the one before it, or None."""
    inverted = np.flatnonzero(ts[1:] < ts[:-1])
    return int(inverted[0]) + 1 if len(inverted) else None


def meter(packets: PacketTrace) -> FlowTable:
    """Assemble time-sorted packets into flows and compute their features.

    Flows come out benign, in the order of their first packets.  Raises
    ValueError on the first timestamp inversion in the input, and on a
    non-finite timestamp or a negative length.
    """
    ts = packets.ts
    for name, bad in (("ts", ~np.isfinite(ts)), ("payload_len", packets.payload_len < 0),
                      ("header_len", packets.header_len < 0)):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"packet {i} has an invalid {name}: {getattr(packets, name)[i].item()}")
    if (i := time_inversion(ts)) is not None:
        raise ValueError(f"packets not time-sorted: index {i} has ts={ts[i]:.6f} after ts={ts[i - 1]:.6f}")
    if not len(packets):
        return FlowTable.empty()
    order, sizes, serial = _assemble(packets)
    first = order[np.cumsum(sizes) - sizes]
    src, sport, dst, dport, proto = (getattr(packets, c)[first]
                                     for c in ("src", "src_port", "dst", "dst_port", "proto"))
    address = packets.addresses
    flow_id = [f"{address[s]}:{sp}->{address[d]}:{dp}/{p}#{n}" for s, sp, d, dp, p, n in
               zip(src.tolist(), sport.tolist(), dst.tolist(), dport.tolist(), proto.tolist(), serial.tolist())]
    # Every feature is a reduction within one flow, so blocks of whole flows,
    # about METER_BLOCK packets each, give the matrix a whole read would.
    features = np.empty((len(sizes), len(FEATURE_NAMES)))
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        start = ends[lo] - sizes[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, start + METER_BLOCK, side="right")))
        features[lo:hi] = _features(packets, order[start : ends[hi - 1]], sizes[lo:hi])
        lo = hi
    return FlowTable(address, flow_id, src, sport, dst, dport, proto, ts[first], features, ["benign"] * len(first))


def write_feature_names(path) -> None:
    """Machine-readable catalog: one name per line, order-significant."""
    with open(path, "w") as fh:
        for name in FEATURE_NAMES:
            fh.write(name + "\n")


def write_flow_csv(flows: FlowTable, path) -> None:
    """One quoted metadata prefix, the features by their float repr and the
    quoted label per flow."""
    address = [f'"{a}",' for a in flows.addresses]
    quoted = '"{}",'.format
    with open(path, "w") as fh:
        fh.write(",".join(f'"{h}"' for h in METADATA_NAMES + FEATURE_NAMES + [LABEL_NAME]) + "\n")
        columns = [(flows.flow_id, quoted), (flows.src, address.__getitem__), (flows.src_port, quoted),
                   (flows.dst, address.__getitem__), (flows.dst_port, quoted), (flows.start_time, '"{!r}",'.format),
                   (flows.features, "{!r},".format), (flows.label, '"{}"\n'.format)]
        write_rows(fh, [(values, partial(format_once, fmt=fmt)) for values, fmt in columns], FLOW_BLOCK)


# A flow row, its fields named as the FlowTable columns they fill.
_FLOW_ROW = np.dtype([("flow_id", object), ("src", object), ("src_port", np.int64), ("dst", object),
                      ("dst_port", np.int64), ("start_time", np.float64),
                      ("features", np.float64, (len(FEATURE_NAMES),)), ("label", object)])
_FLOW_HEADER = METADATA_NAMES + FEATURE_NAMES + [LABEL_NAME]
_QUOTECHAR = '"'  # write_flow_csv quotes the metadata and the label


def _flow_row(path, header: list[str]) -> np.dtype:
    if not header:
        raise ValueError(f"{path}: empty flow file")
    for col in header:
        if col not in _FLOW_HEADER:
            raise ValueError(f"{path}: unknown column {col!r}")
    for col in _FLOW_HEADER:
        if col not in header:
            raise ValueError(f"{path}: missing column {col!r}")
    if header != _FLOW_HEADER:
        raise ValueError(f"{path}: columns out of catalog order")
    return _FLOW_ROW


def flow_line(path, row: int) -> int:
    """The line of the flow CSV file `path` on which flow `row` starts."""
    return row_line(path, _QUOTECHAR, row)


def read_flow_csv(path) -> FlowTable:
    """Inverse of write_flow_csv, through read_rows; rejects a header off the
    catalog, an address that is not IPv4, a port outside 0..65535, a Protocol
    outside the 64-bit range and a label that is not a scenario name."""
    bounds = {"Src IP": IPV4, "Dst IP": IPV4, "Src Port": PORTS, "Dst Port": PORTS, "Protocol": INT64,
              LABEL_NAME: SCENARIOS}
    _, columns, texts = read_rows(path, _flow_row, _QUOTECHAR, bounds)
    columns["protocol"] = columns["features"][:, FEATURE_INDEX["Protocol"]].astype(np.int64)
    return FlowTable.from_coded(columns, texts)
