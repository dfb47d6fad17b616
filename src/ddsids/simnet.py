"""Deterministic discrete-event simulator for pub/sub datagram traffic.

One subnet (10.0.5.0/24) with the fixed cast:

* ``.4`` / ``.5``  data-plane hosts; in benign, dos and clone scenarios the
  subscriber sits on ``.4`` and five publisher instances on ``.5``; in the
  malsub scenario the publisher sits on ``.4`` and the genuine subscriber on
  ``.5``,
* ``.6``           the attacker in every attack scenario,
* ``.2`` / ``.3``  virtual routers, emitting chatter only in malsub traces.

Every participant (re)launch draws a fresh ephemeral source port, so each
launch becomes a new bidirectional session.  A session opens with a 4-packet
16-byte discovery handshake on the same port pair that carries the data,
followed by the receiver announcing its topic slice (8 bytes per topic key).
Publishers then serialize one topic batch per interval: each topic is an
8-byte key plus an 8-byte value, so a batch of n topics is a 16*n-byte
datagram.  Receivers acknowledge every 8th batch with a 16-byte datagram.
Per-launch topic counts mix a compact 50..60 profile with a log-uniform draw
across the configured range, so batch sizes span the fleet.

Fixed accounting decisions: every packet carries a 28-byte header (datagram
plus network header), zeroed TCP-style flags, protocol 17, and a 1-microsecond
clock resolution.  The DoS flood keeps a 1 ms minimum inter-packet gap by
default (``dos_gap``) so inter-arrival statistics stay finite.

The clone keeps the genuine cadence and alternates between its two payloads:
a filler datagram of the maximum topic length and a forged topic batch whose
false values leave no visible trace at the metadata level.  The malicious
subscriber's sessions reuse the genuine session shape end to end; only its
address and its narrow topic slice set it apart.  Trace generation is a pure
function of (config, seed).
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat, starmap
from operator import attrgetter
from typing import Iterable, NamedTuple

import numpy as np

SUBNET = "10.0.5."
ROUTER_HOSTS = (2, 3)
PROTO_UDP = 17
HEADER_LEN = 28
DISCOVERY_PAYLOAD = 16
ACK_PAYLOAD = 16
ACK_EVERY = 8
TOPIC_BYTES = 16  # 8-byte key + 8-byte value
SUBSCRIPTION_KEY_BYTES = 8
DOS_PAYLOAD = 256
MIN_TOPICS = 50

# Benign lifecycle texture (relative to ScenarioConfig.benign_relaunch_period
# and publish_interval).
CYCLE_JITTER = (0.7, 1.3)
BENIGN_INTERVAL_JITTER_MAX = 0.01
RELAUNCH_DOWNTIME_S = 0.2
FIRST_DATA_OFFSET_S = 0.05
# Fraction of publisher relaunches that carry a compact batch (50..60 topics,
# heartbeat-style) instead of a draw over the full topic range.
COMPACT_BATCH_FRACTION = 0.25
# Fraction of clone launches that fall back to the 256-byte filler payload
# instead of forging a plausible topic batch.
CLONE_FILLER_FRACTION = 0.65

SCENARIOS = ("benign", "dos", "clone", "malsub")
ATTACK_SCENARIOS = ("dos", "clone", "malsub")


class PacketRecord(NamedTuple):
    """One simulated datagram event."""

    ts: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    proto: int
    payload_len: int
    header_len: int
    flags: int


PACKET_COLUMNS = ("ts", "src", "src_port", "dst", "dst_port", "proto", "payload_len", "header_len", "flags")
_ROW_BLOCK = 1 << 14  # rows simulated, or turned into records or text, at a time


class ColumnTable(Sequence):
    """A read-only sequence of records held as columns.

    A subclass names its ``COLUMNS``, their ``DTYPES`` (and ``SHAPES`` for a
    column holding a row of values per record) and the ``RECORD`` type a row
    reads as, whose fields follow the columns.  The ``src`` and ``dst``
    columns index ``addresses``, a small table of address strings, some
    perhaps unused.  An int index yields a record; a slice, a row mask or an
    array of row numbers yields a table.  A table equals any sequence of the
    same records in the same order, and keeps the arrays it is given behind
    read-only views.
    """

    COLUMNS: tuple[str, ...]
    DTYPES: tuple
    SHAPES: dict[str, tuple[int, ...]] = {}
    RECORD: type
    ADDRESS_COLUMNS = ("src", "dst")

    def __init__(self, addresses: Sequence[str], *columns):
        self.addresses = tuple(addresses)
        for name, dtype, values in zip(self.COLUMNS, self.DTYPES, columns, strict=True):
            shape = (len(columns[0]), *self.SHAPES.get(name, ()))
            values = np.asarray(values, dtype=dtype)
            values = values.view() if values.size else values.reshape(shape)
            if values.shape != shape:
                raise ValueError(f"{type(self).__name__} column {name} has shape {values.shape}, expected {shape}")
            values.flags.writeable = False
            setattr(self, name, values)

    @classmethod
    def from_columns(cls, columns: Sequence, block: int = 0) -> "ColumnTable":
        """A table from one sequence per column, with address strings in the
        address columns.  The address table lists the addresses in the order
        they first show when the rows are read `block` at a time (all at once
        for 0), each block one address column after the other: the table
        `concat` makes of the blocks' own tables."""
        columns = list(columns)
        where = [k for k, name in enumerate(cls.COLUMNS) if name in cls.ADDRESS_COLUMNS]
        n = len(columns[0])
        step = block or max(n, 1)
        seen = dict.fromkeys(chain.from_iterable(columns[k][lo : lo + step] for lo in range(0, n, step) for k in where))
        index = {a: i for i, a in enumerate(seen)}
        for k in where:
            columns[k] = np.fromiter(map(index.__getitem__, columns[k]), np.int64, len(columns[k]))
        return cls(index, *columns)

    @classmethod
    def from_records(cls, records: Iterable) -> "ColumnTable":
        fields = attrgetter(*cls.RECORD.__annotations__)
        return cls.from_columns(list(zip(*map(fields, records))) or [()] * len(cls.COLUMNS))

    @classmethod
    def of(cls, rows: Iterable) -> "ColumnTable":
        """`rows` if it is a table of this type, else a table of its records."""
        return rows if isinstance(rows, cls) else cls.from_records(rows)

    @classmethod
    def concat(cls, tables: Sequence["ColumnTable"]) -> "ColumnTable":
        """The rows of `tables` one after another, over one merged address table."""
        if not tables:
            return cls.from_records([])
        index: dict[str, int] = {}
        where = [np.array([index.setdefault(a, len(index)) for a in t.addresses], dtype=np.int64) for t in tables]
        return cls(index, *(np.concatenate([w[getattr(t, name)] if name in cls.ADDRESS_COLUMNS else getattr(t, name)
                                            for t, w in zip(tables, where)]) for name in cls.COLUMNS))

    def with_columns(self, addresses: Sequence[str] | None = None, **columns) -> "ColumnTable":
        """A table of the same type with the given columns, or address table, replaced."""
        return type(self)(self.addresses if addresses is None else addresses,
                          *(columns.get(name, getattr(self, name)) for name in self.COLUMNS))

    def __len__(self) -> int:
        return len(getattr(self, self.COLUMNS[0]))

    def _records(self, rows: slice) -> list:
        columns = [getattr(self, name)[rows].tolist() for name in self.COLUMNS]
        for k, name in enumerate(self.COLUMNS):
            if name in self.ADDRESS_COLUMNS:
                columns[k] = [self.addresses[i] for i in columns[k]]
        return list(starmap(self.RECORD, zip(*columns)))

    def __getitem__(self, item):
        if isinstance(item, (slice, np.ndarray)):
            return self.with_columns(**{name: getattr(self, name)[item] for name in self.COLUMNS})
        i = range(len(self))[item]
        return self._records(slice(i, i + 1))[0]

    def __iter__(self):
        for lo in range(0, len(self), _ROW_BLOCK):
            yield from self._records(slice(lo, lo + _ROW_BLOCK))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


class PacketTrace(ColumnTable):
    """A packet trace held as columns, ``ts`` in seconds; it reads as a
    sequence of ``PacketRecord``s."""

    COLUMNS = PACKET_COLUMNS
    DTYPES = (np.float64,) + (np.int64,) * (len(PACKET_COLUMNS) - 1)
    RECORD = PacketRecord


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    duration: float
    publish_interval: float = 0.5
    topics_per_publisher: int = 200
    relaunch_period: float = 1.0
    relaunch_count: int = 0
    rng_seed: int = 1
    # Artifact knobs the scenario descriptions imply but leave open.
    n_publishers: int = 5
    benign_relaunch_period: float = 40.0
    dos_gap: float = 0.001
    attack_active: float | None = None
    malsub_join_delay: float = 0.3

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not self.publish_interval >= 1e-6:
            # A shorter interval rounds a stream's step to 0 us on the 1 us clock.
            raise ValueError("publish_interval must be at least 1e-6 s, the clock resolution")
        if not MIN_TOPICS <= self.topics_per_publisher <= 500:
            raise ValueError("topics_per_publisher must be within 50..500")
        if self.relaunch_period <= 0:
            raise ValueError("relaunch_period must be positive")
        if not 0 <= self.relaunch_count <= 2000:
            raise ValueError("relaunch_count must be within 0..2000")
        if self.n_publishers < 1:
            raise ValueError("n_publishers must be at least 1")
        if self.dos_gap <= 0:
            raise ValueError("dos_gap must be positive")
        if self.attack_active is not None and self.attack_active <= 0:
            raise ValueError("attack_active must be positive when set")


def host_ip(host: int) -> str:
    return f"{SUBNET}{host}"


class _TraceBuilder:
    def __init__(self, config: ScenarioConfig):
        self.cfg = config
        self.rng = np.random.default_rng(config.rng_seed)
        self.duration_us = int(round(config.duration * 1e6))
        # Six fields per emitted packet: t_us, src host, src port, dst host,
        # dst port, payload.
        self.events = array("q")
        self.used_ports: set[tuple[int, int]] = set()

    def ephemeral_port(self, host: int) -> int:
        while True:
            port = int(self.rng.integers(1024, 65536))
            if (host, port) not in self.used_ports:
                self.used_ports.add((host, port))
                return port

    def emit(self, t_us: int, src: int, sport: int, dst: int, dport: int, payload: int) -> bool:
        if not 0 <= t_us < self.duration_us:
            return False
        self.events.extend((t_us, src, sport, dst, dport, payload))
        return True

    def emit_rows(self, rows: np.ndarray) -> None:
        """Append a C-ordered (n, 6) int64 block of events that are already in
        emit order and inside the trace."""
        if len(rows):
            self.events.frombytes(memoryview(rows).cast("B"))

    def discovery(self, t_us: int, joiner: int, jport: int, peer: int, pport: int) -> None:
        for i in range(4):
            src, sport, dst, dport = (joiner, jport, peer, pport) if i % 2 == 0 else (peer, pport, joiner, jport)
            self.emit(t_us + i * 1000, src, sport, dst, dport, DISCOVERY_PAYLOAD)

    def stream(
        self,
        start_us: int,
        end_us: int,
        src: int,
        sport: int,
        dst: int,
        dport: int,
        payload: int,
        interval_s: float,
        jitter_scale: float,
    ) -> int:
        """Emit one topic batch per interval from start to end; the receiver
        acknowledges every ACK_EVERY-th batch.  Returns batches emitted.

        The interval jitters are drawn in blocks, and a block draws only
        jitters the one-at-a-time loop (send a batch, then draw the jitter of
        the next step) would draw.  No step reaches `longest`, so the k
        batches of a block all fall before the limit and each draws its one
        jitter; the rng therefore ends where the loop's would.  A block
        holds at most _ROW_BLOCK batches, which bounds its memory.  Needs
        jitter_scale < 1, which keeps every step positive.
        """
        limit = min(end_us, self.duration_us)
        longest = math.ceil(interval_s * (1.0 + jitter_scale) * 1e6) + 1
        t_us = start_us
        sent = 0
        while 0 <= t_us < limit:
            k = min((limit - 1 - t_us) // longest + 1, _ROW_BLOCK)
            eps = self.rng.uniform(-jitter_scale, jitter_scale, size=k)
            steps = np.rint(interval_s * (1.0 + eps) * 1e6).astype(np.int64)
            ends = t_us + np.cumsum(steps)
            # One slot pair per batch, in emit order: the batch, then its ack.
            rows = np.empty((k, 2, 6), dtype=np.int64)
            rows[:, 0, 0] = ends - steps
            rows[:, 0, 1:] = (src, sport, dst, dport, payload)
            rows[:, 1, 0] = rows[:, 0, 0] + 2000
            rows[:, 1, 1:] = (dst, dport, src, sport, ACK_PAYLOAD)
            keep = np.zeros((k, 2), dtype=bool)
            keep[:, 0] = True
            keep[(ACK_EVERY - 1 - sent) % ACK_EVERY :: ACK_EVERY, 1] = True
            keep[:, 1] &= rows[:, 1, 0] < self.duration_us
            self.emit_rows(rows[keep])
            sent += k
            t_us = int(ends[-1])
        return sent

    def flood(self, start_us: int, end_us: int, src: int, sport: int, dst: int, dport: int, payload: int,
              gap_us: int) -> None:
        """Emit one datagram every gap_us from start (>= 0) to end."""
        times = np.arange(start_us, min(end_us, self.duration_us), gap_us)
        rows = np.empty((len(times), 6), dtype=np.int64)
        rows[:, 0] = times
        rows[:, 1:] = (src, sport, dst, dport, payload)
        self.emit_rows(rows)

    def finish(self) -> PacketTrace:
        """The emitted packets ordered by (time, emit order)."""
        events = np.frombuffer(self.events, dtype=np.int64).reshape(-1, 6)
        t_us, src, sport, dst, dport, payload = events[np.argsort(events[:, 0], kind="stable")].T
        hosts, ends = np.unique(np.concatenate([src, dst]), return_inverse=True)
        n = len(t_us)
        return PacketTrace(
            [host_ip(h) for h in hosts.tolist()], t_us / 1e6, ends[:n], sport, ends[n:], dport,
            np.full(n, PROTO_UDP), payload, np.full(n, HEADER_LEN), np.zeros(n),
        )


def _draw_topics(b: _TraceBuilder) -> int:
    """Per-launch topic count: a compact 50..60 batch for some launches,
    otherwise log-uniform across the configured range."""
    hi = b.cfg.topics_per_publisher
    if hi <= 60 or float(b.rng.uniform()) < COMPACT_BATCH_FRACTION:
        return int(b.rng.integers(MIN_TOPICS, min(60, hi) + 1))
    span = math.log(hi / MIN_TOPICS)
    return min(hi, int(round(MIN_TOPICS * math.exp(float(b.rng.uniform()) * span))))


def _benign_substrate(b: _TraceBuilder, sub_host: int, pub_host: int, sub_port: int) -> None:
    """Five (configurable) publisher instances streaming topic batches to the
    subscriber, each instance relaunching on a fresh port every cycle."""
    cfg = b.cfg
    for i in range(cfg.n_publishers):
        t_us = int(round(i * 0.1 * 1e6))
        while t_us < b.duration_us:
            cycle_s = cfg.benign_relaunch_period * float(b.rng.uniform(*CYCLE_JITTER))
            n_topics = _draw_topics(b)
            jitter_scale = float(b.rng.uniform(0.0, BENIGN_INTERVAL_JITTER_MAX))
            port = b.ephemeral_port(pub_host)
            b.discovery(t_us, pub_host, port, sub_host, sub_port)
            b.emit(t_us + 5_000, sub_host, sub_port, pub_host, port, n_topics * SUBSCRIPTION_KEY_BYTES)
            end_us = t_us + int(round(cycle_s * 1e6))
            b.stream(
                t_us + int(FIRST_DATA_OFFSET_S * 1e6),
                end_us,
                pub_host,
                port,
                sub_host,
                sub_port,
                n_topics * TOPIC_BYTES,
                cfg.publish_interval,
                jitter_scale,
            )
            t_us = end_us + int(RELAUNCH_DOWNTIME_S * 1e6)


def _attack_launches(cfg: ScenarioConfig) -> list[int]:
    """Launch times (us) for the attacker, one per malicious session."""
    launches = []
    for k in range(cfg.relaunch_count):
        t = k * cfg.relaunch_period
        if t + 0.01 >= cfg.duration:
            break
        launches.append(int(round(t * 1e6)))
    if len(launches) < cfg.relaunch_count:
        raise ValueError(
            f"{cfg.scenario}: only {len(launches)} of {cfg.relaunch_count} malicious "
            f"sessions fit in duration {cfg.duration:.1f} s at relaunch_period "
            f"{cfg.relaunch_period:.3f} s (short by {cfg.relaunch_count - len(launches)})"
        )
    return launches


def generate_benign(config: ScenarioConfig) -> PacketTrace:
    """Benign pub/sub trace (also the substrate of dos and clone traces)."""
    b = _TraceBuilder(config)
    sub_port = b.ephemeral_port(4)
    _benign_substrate(b, sub_host=4, pub_host=5, sub_port=sub_port)
    return b.finish()


def generate_attack(config: ScenarioConfig) -> PacketTrace:
    if config.scenario not in ATTACK_SCENARIOS:
        raise ValueError(f"generate_attack requires an attack scenario, got {config.scenario!r}")
    launches = _attack_launches(config)
    b = _TraceBuilder(config)

    if config.scenario in ("dos", "clone"):
        sub_port = b.ephemeral_port(4)
        _benign_substrate(b, sub_host=4, pub_host=5, sub_port=sub_port)
        for t_us in launches:
            port = b.ephemeral_port(6)
            n_topics = _draw_topics(b)
            b.discovery(t_us, 6, port, 4, sub_port)
            b.emit(t_us + 5_000, 4, sub_port, 6, port, n_topics * SUBSCRIPTION_KEY_BYTES)
            if config.scenario == "dos":
                active = config.attack_active if config.attack_active is not None else 0.08
                gap_us = max(1, int(round(config.dos_gap * 1e6)))
                b.flood(t_us + 10_000, t_us + int(round(active * 1e6)), 6, port, 4, sub_port, DOS_PAYLOAD, gap_us)
            else:
                # The clone matches the genuine rate; some launches push the
                # fixed 256-byte filler, the rest forge a plausible topic
                # batch with false values.
                if config.attack_active is not None:
                    active = config.attack_active
                else:
                    active = config.benign_relaunch_period * float(b.rng.uniform(*CYCLE_JITTER))
                # The forged batch mirrors the announced slice, as a genuine
                # publisher's would.
                if float(b.rng.uniform()) < CLONE_FILLER_FRACTION:
                    payload = DOS_PAYLOAD
                else:
                    payload = n_topics * TOPIC_BYTES
                jitter_scale = float(b.rng.uniform(0.0, BENIGN_INTERVAL_JITTER_MAX))
                b.stream(
                    t_us + int(FIRST_DATA_OFFSET_S * 1e6),
                    t_us + int(round(active * 1e6)),
                    6,
                    port,
                    4,
                    sub_port,
                    payload,
                    config.publish_interval,
                    jitter_scale,
                )
        return b.finish()

    # malsub: the publisher on .4 opens one stream per subscriber session;
    # the receiver announces its topic slice, then batches flow to it.
    mgmt_port = b.ephemeral_port(4)

    def subscriber_session(t_us: int, host: int, n_topics: int, active_s: float, jitter: float) -> None:
        pub_port = b.ephemeral_port(4)
        port = b.ephemeral_port(host)
        b.discovery(t_us, 4, pub_port, host, port)
        b.emit(t_us + 5_000, host, port, 4, pub_port, n_topics * SUBSCRIPTION_KEY_BYTES)
        b.stream(
            t_us + int(FIRST_DATA_OFFSET_S * 1e6),
            t_us + int(round(active_s * 1e6)),
            4,
            pub_port,
            host,
            port,
            n_topics * TOPIC_BYTES,
            config.publish_interval,
            jitter,
        )

    # Genuine subscriber on .5, re-served each publisher cycle with all topics.
    t_us = 0
    while t_us < b.duration_us:
        cycle_s = config.benign_relaunch_period * float(b.rng.uniform(*CYCLE_JITTER))
        jitter_scale = float(b.rng.uniform(0.0, BENIGN_INTERVAL_JITTER_MAX))
        subscriber_session(t_us, 5, config.topics_per_publisher, cycle_s, jitter_scale)
        t_us += int(round((cycle_s + RELAUNCH_DOWNTIME_S) * 1e6))

    # Malicious subscriber on .6: joins after a delay, harvests 50..60 of the
    # topics for a limited window, leaves before the trace ends.
    join_delay_us = int(round(config.malsub_join_delay * 1e6))
    for t_us in launches:
        if config.attack_active is not None:
            active = config.attack_active
        else:
            active = config.benign_relaunch_period * float(b.rng.uniform(*CYCLE_JITTER))
        active = min(active, (b.duration_us - t_us - join_delay_us) / 1e6 - 0.05)
        if active <= 0:
            active = 0.05
        n_topics = int(b.rng.integers(50, 61))
        jitter_scale = float(b.rng.uniform(0.0, BENIGN_INTERVAL_JITTER_MAX))
        subscriber_session(t_us + join_delay_us, 6, n_topics, active, jitter_scale)

    # Router chatter, removed later by preprocessing.
    t_us = 0
    while t_us < b.duration_us:
        pa = b.ephemeral_port(2)
        pb = b.ephemeral_port(3)
        b.discovery(t_us, 2, pa, 3, pb)
        t = t_us + 50_000
        end = t_us + int(round(config.benign_relaunch_period * 1e6))
        sent = 0
        while t < end and b.emit(t, 2, pa, 3, pb, 48):
            sent += 1
            if sent % 4 == 0:
                b.emit(t + 3000, 3, pb, 2, pa, 48)
            t += 1_000_000
        pc = b.ephemeral_port(3)
        b.emit(t_us + 7_000, 3, pc, 4, mgmt_port, 64)
        b.emit(t_us + 9_000, 4, mgmt_port, 3, pc, 64)
        t_us = end + int(RELAUNCH_DOWNTIME_S * 1e6)

    return b.finish()


def generate(config: ScenarioConfig) -> PacketTrace:
    if config.scenario == "benign":
        return generate_benign(config)
    return generate_attack(config)


PACKET_CSV_HEADER = "ts,src_ip,src_port,dst_ip,dst_port,proto,payload_len,header_len,flags"


def format_once(values: np.ndarray, fmt) -> np.ndarray:
    """``fmt(v)`` for each value, as an object array of the same shape, with
    each distinct value formatted once.  Floats are told apart by their bits,
    so -0.0 and every NaN payload keep their own text."""
    values = np.ascontiguousarray(values)
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
    texts = np.array([fmt(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
    return texts[inverse].reshape(values.shape)


def write_rows(fh, columns: Sequence[tuple], block: int) -> None:
    """Write the rows of `columns`, `block` rows at a time.  A column pairs a
    sequence, one entry (or, in a 2-D array, one row of cells) per row, with
    the format of a cell and the separator after it; a block is one join of
    its cells, each distinct value formatted once."""
    for lo in range(0, len(columns[0][0]), block):
        cells = [format_once(values[lo : lo + block], fmt) for values, fmt in columns]
        fh.write("".join(np.concatenate([c if c.ndim == 2 else c[:, None] for c in cells], axis=1).ravel().tolist()))


def write_packet_csv(trace: Iterable[PacketRecord], path) -> None:
    trace = PacketTrace.of(trace)
    address = [a + "," for a in trace.addresses]
    formats = ["{:.6f},".format, address.__getitem__, "{},".format, address.__getitem__, *["{},".format] * 4,
               "{}\n".format]
    try:
        with open(path, "w") as fh:
            fh.write(PACKET_CSV_HEADER + "\n")
            write_rows(fh, [(getattr(trace, name), fmt) for name, fmt in zip(PACKET_COLUMNS, formats)], _ROW_BLOCK)
    except OSError as exc:
        raise OSError(f"cannot write packet csv {path}: {exc}") from exc


def numbered_blocks(reader, block: int):
    """The rest of a csv reader's rows, `block` rows at a time, each block
    with the line every row starts on: a quoted field can span lines, so a
    count of rows does not give it."""
    rows, lines = [], []
    line = reader.line_num + 1
    for row in reader:
        rows.append(row)
        lines.append(line)
        line = reader.line_num + 1
        if len(rows) == block:
            yield rows, lines
            rows, lines = [], []
    if rows:
        yield rows, lines


def float_cells(path, header: list[str], rows: list[list[str]], columns: slice, lines: list[int]) -> np.ndarray:
    """The `columns` cells of a block of CSV rows, row r starting on line
    `lines[r]`, as a float matrix.  Rejects a non-finite cell, naming the
    line and column of the first one."""
    block = np.array([list(map(float, row[columns])) for row in rows])
    bad = np.argwhere(~np.isfinite(block))
    if len(bad):
        r, c = bad[0].tolist()
        raise ValueError(f"{path}: line {lines[r]}, column {header[columns][c]!r}: "
                         f"non-finite value {rows[r][columns][c]!r}")
    return block


def _line_stats(path) -> tuple[int, int, bool]:
    """(lines, bytes in the longest line, whether a carriage return or a NUL
    occurs) of a file, read 1 MiB at a time."""
    lines = longest = start = size = 0  # `start`: the offset of the line being read
    odd = False
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) + (size + 1)
            if len(ends):
                longest = max(longest, int(ends[0]) - start, int(np.diff(ends).max(initial=0)))
                start, lines = int(ends[-1]), lines + len(ends)
            size += len(chunk)
            odd = odd or b"\r" in chunk or b"\0" in chunk
    if size > start:
        lines, longest = lines + 1, max(longest, size - start)
    return lines, longest, odd


def tokenized_rows(path, fh, header_lines: int, dtype: np.dtype, quotechar: str | None = None) -> np.ndarray | None:
    """The rows of the text file `fh`, open on `path` and read past its
    `header_lines` header lines, read by numpy's C tokenizer into a
    structured array of `dtype`, one row per line; None where that read could
    differ from the block parsers'.

    Each CSV reader reads its rows this way first and, on None or a value it
    rejects, again with its block parser, which returns the same rows or
    raises its message for the fault.  The tokenizer raises on a row whose
    field count is off the dtype's, on a cell that is no number and on an
    integer beyond 64 bits, and its quoting is the csv module's: a quote
    opens a quoted field only as the field's first character.  It skips
    blank lines, so the rows must number the file's newline bytes; a
    carriage return, which ends a line too, and a NUL, which the csv module
    rejects before Python 3.11, send the file to the block parser.  It has no
    field size limit, so no line may outgrow the csv module's or Python's
    int digit limit.
    """
    lines, longest, odd = _line_stats(path)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or sys.maxsize
    if odd or longest > min(csv.field_size_limit(), digits) or lines <= header_lines:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns of input with no rows
            rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar=quotechar, ndmin=1)
    except (ValueError, UserWarning):
        return None
    return rows if len(rows) == lines - header_lines else None


_PACKET_ROW = np.dtype([(name, object if name in ColumnTable.ADDRESS_COLUMNS else dtype)
                        for name, dtype in zip(PACKET_COLUMNS, PacketTrace.DTYPES)])


def read_packet_csv(path) -> PacketTrace:
    """Inverse of write_packet_csv: read by numpy's C tokenizer, or else
    _ROW_BLOCK rows at a time, which rejects a row without 9 fields and an
    integer outside the 64-bit range."""
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            if header != PACKET_CSV_HEADER:
                raise ValueError(f"{path}: unexpected packet csv header {header!r}")
            rows = tokenized_rows(path, fh, 1, _PACKET_ROW)
            if rows is not None:
                return PacketTrace.from_columns([rows[name].tolist() if name in PacketTrace.ADDRESS_COLUMNS
                                                 else rows[name].copy() for name in PACKET_COLUMNS], _ROW_BLOCK)
            fh.seek(0)
            fh.readline()
            blocks = []
            while lines := list(islice(fh, _ROW_BLOCK)):
                commas = list(map(str.count, lines, repeat(",", len(lines))))
                if commas.count(8) != len(lines):
                    bad = next(line for line, c in zip(lines, commas) if c != 8)
                    raise ValueError(f"{path}: malformed row {bad!r}")
                fields = "".join(lines).replace("\n", ",").split(",")
                ts, src, sport, dst, *rest = (fields[k : 9 * len(lines) : 9] for k in range(9))
                try:
                    blocks.append(PacketTrace.from_columns(
                        [list(map(float, ts)), src, list(map(int, sport)), dst, *(list(map(int, c)) for c in rest)]))
                except OverflowError:
                    raise ValueError(f"{path}: integer field outside the 64-bit range") from None
    except OSError as exc:
        raise OSError(f"cannot read packet csv {path}: {exc}") from exc
    return PacketTrace.concat(blocks)


_CONFIG_FIELDS = {
    "scenario": str,
    "duration": float,
    "publish_interval": float,
    "topics_per_publisher": int,
    "relaunch_period": float,
    "relaunch_count": int,
    "rng_seed": int,
    "n_publishers": int,
    "benign_relaunch_period": float,
    "dos_gap": float,
    "attack_active": float,
    "malsub_join_delay": float,
}


def load_scenario_config(path, seed_override: int | None = None) -> ScenarioConfig:
    """Parse a key = value scenario file; '#' starts a comment."""
    kwargs: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in _CONFIG_FIELDS:
                kwargs[key] = _CONFIG_FIELDS[key](value)
            else:
                raise ValueError(f"{path}:{lineno}: unknown scenario field {key!r}")
    config = ScenarioConfig(**kwargs)
    if seed_override is not None:
        config = replace(config, rng_seed=seed_override)
    return config


def save_scenario_config(config: ScenarioConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"scenario = {config.scenario}\n")
        fh.write(f"duration = {config.duration!r}\n")
        fh.write(f"publish_interval = {config.publish_interval!r}\n")
        fh.write(f"topics_per_publisher = {config.topics_per_publisher}\n")
        fh.write(f"relaunch_period = {config.relaunch_period!r}\n")
        fh.write(f"relaunch_count = {config.relaunch_count}\n")
        fh.write(f"rng_seed = {config.rng_seed}\n")
        fh.write(f"n_publishers = {config.n_publishers}\n")
        fh.write(f"benign_relaunch_period = {config.benign_relaunch_period!r}\n")
        fh.write(f"dos_gap = {config.dos_gap!r}\n")
        if config.attack_active is not None:
            fh.write(f"attack_active = {config.attack_active!r}\n")
        fh.write(f"malsub_join_delay = {config.malsub_join_delay!r}\n")
